"""Polynomial SSP machinery for linear 2-fold transition systems.

A linear 2-fold TS has the SSP exactly when it contains no exact 2-fold
subsequence (a contiguous segment in which every occurring event occurs
exactly twice): summing signatures over such a segment is even, so its
endpoints can never be separated.  Because no event occurs more than
twice, a segment is exact 2-fold exactly when the prefix parity vectors at
its ends are equal, so the decision is one parity pass over the word.
When the SSP holds, a separating region for a state pair s_i, s_j is found
from the partners of the events between them.  Its non-obeying events are
one exit and at most one entry event, and its membership changes only at
their edges, so it is keyed by those events and built once per chain.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, count
from random import Random
from types import MappingProxyType
from typing import NamedTuple, Optional

from .properties import SeparationQuery, Verdict, WitnessMap
from .regions import Region, _named_region
from .ts import TransitionSystem, _linear_chain

__all__ = [
    "second_occurrence_index",
    "find_exact_2fold_subsequence",
    "SeparatorResult",
    "separator",
    "Linear2Verdict",
    "linear2_ssp",
]


class _Linear2(NamedTuple):
    """A linear 2-fold TS as the private helpers below read it."""

    states: tuple[str, ...]  # chain order
    word: tuple[str, ...]
    index: list[int]  # edge k -> edge of the other occurrence of its event, or -1
    unique: bytes  # edge k -> 1 if its event occurs once, else 0


def _linear_2fold(ts: TransitionSystem) -> _Linear2:
    """The check each public entry point makes, run once per linear TS: the
    result is cached in the ``_twofold`` slot (``()`` when the TS is not
    2-fold), and the helpers below take it and trust it.  Anything that is
    not a linear TS, a union included, has no slot and is refused first."""
    chain = _linear_chain(ts)
    lin = () if chain is None else ts._twofold
    if lin is None:
        index = _other_occurrences(chain[1])
        lin = () if index is None else _Linear2(
            *chain, index, bytes(p == -1 for p in index))
        object.__setattr__(ts, "_twofold", lin)
    if not lin:
        raise ValueError("expected a linear 2-fold transition system")
    return lin


def _other_occurrences(word: tuple[str, ...]) -> Optional[list[int]]:
    """The other-occurrence index of a word, or None if an event occurs
    more than twice."""
    index = [-1] * len(word)
    first: dict[str, int] = {}
    for k, ev in enumerate(word):
        other = first.setdefault(ev, k)
        if other != k:
            if index[other] != -1:
                return None
            index[k], index[other] = other, k
    return index


def _first_exact_segment(word: tuple[str, ...]) -> Optional[tuple[int, int]]:
    """Smallest i, then smallest j > i, whose prefix parities are equal.

    The parity after k events is keyed by a Zobrist hash: each event draws
    a random 64-bit key and the hash is the XOR of the keys so far, so
    memory stays linear in the word.  Equal parities always have
    equal hashes, so no hit means no exact segment; a hit is confirmed by
    counting the events of its segment.  A collision can only pick a pair
    that fails that count, and then the pass is repeated with fresh keys.
    """
    for seed in count():
        draw = Random(seed).getrandbits
        key: dict[str, int] = {}
        parity = 0
        first = {0: 0}
        second: dict[int, int] = {}
        for k, ev in enumerate(word, 1):
            bits = key.get(ev)
            if bits is None:
                bits = key[ev] = draw(64)
            parity ^= bits
            if parity in first:
                second.setdefault(parity, k)
            else:
                first[parity] = k
        if not second:
            return None
        value = min(second, key=first.__getitem__)
        i, j = first[value], second[value]
        if all(c == 2 for c in Counter(word[i:j]).values()):
            return i, j


def second_occurrence_index(ts: TransitionSystem) -> list[int]:
    """I_A: edge index k -> index of the other occurrence of its event, or
    -1, as a fresh list."""
    return list(_linear_2fold(ts).index)


def find_exact_2fold_subsequence(ts: TransitionSystem) -> Optional[tuple[int, int]]:
    """First (i, j) whose segment uses every of its events exactly twice.

    Smallest i first, then smallest j, found in one prefix-parity pass.
    Returns None iff the TS has the SSP.
    """
    return _first_exact_segment(_linear_2fold(ts).word)


@dataclass(frozen=True)
class SeparatorResult:
    """Two event sets defining a region, or (set(), set()) on failure."""

    exit_events: frozenset[str]
    enter_events: frozenset[str]
    region: Optional[Region]

    @property
    def found(self) -> bool:
        return self.region is not None


_NOT_FOUND = SeparatorResult(frozenset(), frozenset(), None)


def _result(ts: TransitionSystem, lin: _Linear2, shared: dict, out: int,
            into: int | None = None) -> SeparatorResult:
    """The separator in which the event of edge ``out`` exits and the event
    of edge ``into``, if any, enters: built on the first use of that (exit,
    entry or None) pair of events, and kept in ``shared`` under it."""
    word, index = lin.word, lin.index
    key = (word[out], None if into is None else word[into])
    if key not in shared:
        ends, enter = [(out, -1), (index[out], -1)], ()
        if into is not None:
            ends += [(into, 1), (index[into], 1)]
            enter = (word[into],)
        region = _region_from_changes(ts, lin, sorted(e for e in ends if e[0] != -1))
        shared[key] = SeparatorResult(frozenset([word[out]]), frozenset(enter), region)
    return shared[key]


def _region_from_changes(
    ts: TransitionSystem, lin: _Linear2, changes: list[tuple[int, int]]
) -> Region:
    """Membership that changes by d across each edge p of ``changes``
    (sorted, at most four) and nowhere else.

    The three phases pick changes whose signs alternate, so the membership
    is 1 up to the first exit when an exit comes first, from each entry to
    the next exit, and from a last entry to the end of the chain.  These
    are at most three runs of chain states, so the mask costs a few big-int
    shifts when the states are declared in chain order; otherwise
    ``regions`` builds it from the member states.
    """
    runs, lo = [], 0
    for p, d in changes:
        if d == 1:
            lo = p + 1
        else:
            runs.append((lo, p))  # states lo..p lie before edge p
    if changes[-1][1] == 1:
        runs.append((lo, len(lin.states) - 1))
    if lin.states is ts.states:  # state k is bit k of a mask
        return Region(ts, sum((1 << (hi + 1)) - (1 << lo) for lo, hi in runs))
    return _named_region(ts, (s for lo, hi in runs for s in lin.states[lo:hi + 1]))


def separator(
    ts: TransitionSystem, i: int, j: int, index: list[int] | None = None
) -> SeparatorResult:
    """Separating region for s_i, s_j of a linear 2-fold TS with the SSP.

    Follows the three phases of the search: a unique event inside the
    segment; the event whose partner occurrence is leftmost before s_i plus
    a compensating entering event; symmetrically the rightmost partner
    after s_j.  On TSs without the SSP the result may be empty.  ``index``,
    if given, must be the chain's own :func:`second_occurrence_index`.
    """
    lin = _linear_2fold(ts)
    n = len(lin.word)
    if not (0 <= i < j <= n):
        raise IndexError(f"indices ({i}, {j}) out of range for chain length {n}")
    if index is not None and (index if isinstance(index, list) else list(index)) != lin.index:
        raise ValueError("index is not the other-occurrence index of this chain")
    return _separator(ts, lin, i, j, {})


def _separator(ts: TransitionSystem, lin: _Linear2, i: int, j: int,
               shared: dict) -> SeparatorResult:
    """The body of :func:`separator`, on valid indices, with the results
    so far in ``shared`` (see :func:`_result`)."""
    # Phase 1: the first unique event between s_i and s_j exits alone; the
    # scan stops at its edge.
    k = lin.unique.find(1, i, j)
    if k != -1:
        return _result(ts, lin, shared, k)

    # From here on every edge between s_i and s_j has a partner, read in
    # O(j - i); a scan is empty when its phase has no partner on its side.
    index = lin.index
    inner = index[i:j]
    # Phase 2: leftmost partner before s_i.
    a = min(inner)
    k = _first_outside(index, a + 1, i, a, j - 1)
    if k != -1:
        return _result(ts, lin, shared, a, k)
    # Phase 3: rightmost partner after s_j.
    b = max(inner)
    k = _first_outside(index, j, b, i, b)
    if k != -1:
        return _result(ts, lin, shared, b, k)
    return _NOT_FOUND


def _first_outside(index: list[int], start: int, stop: int, lo: int, hi: int) -> int:
    """First edge in [start, stop) whose partner lies outside [lo, hi], or -1.

    A unique edge's partner, -1, always does.  This compensating scan is
    O(n) only on an interlocking run of pairs.
    """
    for k in range(start, stop):
        if not lo <= index[k] <= hi:
            return k
    return -1


class _Separators(Mapping):
    """The separator of every state pair (s_i, s_j), i < j, keyed by state
    names and computed on lookup.

    Iteration runs i ascending, then j ascending; ``len`` and ``in`` cost
    O(1).  Each lookup is one :func:`_separator` call on ``shared``, the
    chain's results keyed by exit and entry event, so every pair whose
    separator has the same two events gets the same object.
    """

    def __init__(self, ts: TransitionSystem, lin: _Linear2, shared: dict):
        self._ts, self._lin, self._shared = ts, lin, shared
        self._pos = {s: k for k, s in enumerate(lin.states)}

    def __len__(self) -> int:
        n = len(self._lin.word)
        return n * (n + 1) // 2

    def __iter__(self):
        return combinations(self._lin.states, 2)

    def _pair(self, key) -> Optional[tuple[int, int]]:
        if isinstance(key, tuple) and len(key) == 2:
            i, j = (self._pos.get(s, -1) for s in key)
            if 0 <= i < j:
                return i, j
        return None

    def __contains__(self, key) -> bool:
        return self._pair(key) is not None

    def __getitem__(self, key) -> SeparatorResult:
        pair = self._pair(key)
        if pair is None:
            raise KeyError(key)
        return _separator(self._ts, self._lin, *pair, self._shared)


@dataclass
class Linear2Verdict(Verdict):
    """SSP verdict carrying the per-pair separator results, computed on
    lookup; a failing verdict carries none."""

    separators: Mapping[tuple[str, str], SeparatorResult] = field(
        default_factory=lambda: MappingProxyType({}))


def linear2_ssp(ts: TransitionSystem) -> Linear2Verdict:
    """SSP verdict with a SeparatorResult witness per state pair.

    The verdict is the absence of an exact 2-fold subsequence, one parity
    pass.  Each separator is built once, keyed by its exit and entry events,
    for all pairs and lookups; the witnesses are those results in order of
    first use over the pairs, i ascending, then j ascending.  All pairs
    with a unique event between their states share that event's result, so
    only the pairs without one run the full search: O(n) plus theirs.
    """
    lin = _linear_2fold(ts)
    states, word = lin.states, lin.word
    n = len(word)

    bad = _first_exact_segment(word)
    if bad is not None:
        i, j = bad
        return Linear2Verdict(
            WitnessMap(ts, (), []), (SeparationQuery.states(states[i], states[j]),))

    # For each i the pairs up to j = k, the first unique edge from i on, run
    # the search; j = k + 1 gets the phase-1 result that later pairs share.
    shared: dict[tuple[str, Optional[str]], SeparatorResult] = {}
    for i in range(n):
        k = lin.unique.find(1, i)
        last = n if k == -1 else k + 1
        for j in range(i + 1, last + 1):
            _separator(ts, lin, i, j, shared)
    return Linear2Verdict(
        WitnessMap(ts, ("ssp",), [r.region for r in shared.values()]),
        separators=_Separators(ts, lin, shared),
    )
