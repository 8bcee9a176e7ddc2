"""Polynomial SSP machinery for linear 2-fold transition systems.

A linear 2-fold TS has the SSP exactly when it contains no exact 2-fold
subsequence (a contiguous segment in which every occurring event occurs
exactly twice): summing signatures over such a segment is even, so its
endpoints can never be separated.  Because no event occurs more than
twice, a segment is exact 2-fold exactly when the prefix parity vectors at
its ends are equal, so the decision is one parity pass over the word.
When the SSP holds, a separating region for a state pair s_i, s_j is found
from the partners of the events between them, and it has at most two
non-obeying events, so its membership changes at no more than four edges.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import count
from random import Random
from types import MappingProxyType
from typing import NamedTuple, Optional

from .properties import SeparationQuery, Verdict, WitnessMap
from .regions import Region
from .ts import TransitionSystem, _indexed, _linear_chain

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
    in_order: bool  # states declared in chain order: state k is bit k of a mask


def _linear_2fold(ts: TransitionSystem) -> _Linear2:
    """The check each public entry point makes, run once per linear TS: the
    result is cached in the ``_twofold`` slot (``()`` when the TS is not
    2-fold), and the helpers below take it and trust it.  Anything that is
    not a linear TS, a union included, has no slot and is refused first."""
    chain = _linear_chain(ts)
    lin = () if chain is None else ts._twofold
    if lin is None:
        index = _other_occurrences(chain[1])
        lin = () if index is None else _Linear2(*chain, index, chain[0] is ts.states)
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
        return bool(self.exit_events or self.enter_events)


_NOT_FOUND = SeparatorResult(frozenset(), frozenset(), None)


def _result(ts: TransitionSystem, lin: _Linear2, out: int, into: int | None = None
            ) -> SeparatorResult:
    """The separator in which the event of edge ``out`` exits and the event
    of edge ``into``, if any, enters."""
    word, index = lin.word, lin.index
    ends = [(out, -1), (index[out], -1)]
    if into is not None:
        ends += [(into, 1), (index[into], 1)]
    region = _region_from_changes(ts, lin, sorted(e for e in ends if e[0] != -1))
    enter = () if into is None else (word[into],)
    return SeparatorResult(frozenset([word[out]]), frozenset(enter), region)


def _region_from_changes(
    ts: TransitionSystem, lin: _Linear2, changes: list[tuple[int, int]]
) -> Optional[Region]:
    """Membership that changes by d across each edge p of ``changes``
    (sorted, at most four) and nowhere else.

    The membership must stay in {0, 1}; at most one of the two start values
    survives.  It is 1 on at most three runs of chain states, so the mask
    costs a few big-int shifts when the states are declared in chain order,
    and one digit per member state otherwise.
    """
    last = len(lin.states) - 1
    for start in (0, 1):
        value, lo, runs = start, 0, []
        for p, d in changes:
            if value:
                runs.append((lo, p))  # states lo..p lie before edge p
            value += d
            if not 0 <= value <= 1:
                break
            lo = p + 1
        else:
            if value:
                runs.append((lo, last))
            if lin.in_order:
                mask = sum((1 << (hi + 1)) - (1 << lo) for lo, hi in runs)
            else:
                pos = _indexed(ts).state_pos
                digits = bytearray(b"0" * len(lin.states))
                for lo, hi in runs:
                    for state in lin.states[lo:hi + 1]:
                        digits[-1 - pos[state]] = 0x31  # ASCII "1" for bit pos[state]
                mask = int(digits, 2)
            return Region(ts, mask)
    return None


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
    if index is not None and list(index) != lin.index:
        raise ValueError("index is not the other-occurrence index of this chain")
    return _separator(ts, lin, i, j)


def _separator(ts: TransitionSystem, lin: _Linear2, i: int, j: int) -> SeparatorResult:
    """The body of :func:`separator`, on valid indices.

    The exiting event is found among the partners of the edges between s_i
    and s_j, in O(j - i).  The entering event is the first edge, walking
    from the exiting one towards the pair, whose partner lies outside the
    span; that walk is O(n) only on an interlocking run of pairs.
    """
    index = lin.index
    inner = index[i:j]

    # Phase 1: a globally unique event between s_i and s_j exits alone.
    if -1 in inner:
        return _result(ts, lin, i + inner.index(-1))

    # From here on every edge between s_i and s_j has a partner.
    # Phase 2: leftmost partner before s_i (-1 < a covers unique events).
    a = min((p for p in inner if p < i), default=-1)
    if a != -1:
        for k in range(a + 1, i):
            if index[k] < a or index[k] >= j:
                return _result(ts, lin, a, k)

    # Phase 3: rightmost partner after s_j (-1 < i covers unique events).
    b = max((p for p in inner if p >= j), default=-1)
    if b != -1:
        for k in range(j, b):
            if index[k] < i or index[k] > b:
                return _result(ts, lin, b, k)

    return _NOT_FOUND


class _Separators(Mapping):
    """The separator of every state pair (s_i, s_j), i < j, keyed by state
    names and computed on lookup.

    Iteration runs i ascending, then j ascending; ``len`` and ``in`` cost
    O(1).  A pair with a unique event between its states shares the result
    of the first such event; any other pair runs the search of
    :func:`separator`.
    """

    def __init__(self, ts: TransitionSystem, lin: _Linear2, next_unique: list[int],
                 by_unique: dict[int, SeparatorResult]):
        self._ts, self._lin = ts, lin
        self._pos = {s: k for k, s in enumerate(lin.states)}
        self._next_unique, self._by_unique = next_unique, by_unique

    def __len__(self) -> int:
        n = len(self._lin.word)
        return n * (n + 1) // 2

    def __iter__(self):
        states = self._lin.states
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                yield a, b

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
        i, j = pair
        k = self._next_unique[i]
        if k < j:
            return self._by_unique[k]
        return _separator(self._ts, self._lin, i, j)


@dataclass
class Linear2Verdict(Verdict):
    """SSP verdict carrying the per-pair separator results, computed on
    lookup; a failing verdict carries none."""

    separators: Mapping[tuple[str, str], SeparatorResult] = field(
        default_factory=lambda: MappingProxyType({}))


def linear2_ssp(ts: TransitionSystem) -> Linear2Verdict:
    """SSP verdict with a SeparatorResult witness per state pair.

    The verdict is the absence of an exact 2-fold subsequence, one parity
    pass.  The witnesses are the distinct separator regions in order of
    first use over the pairs, i ascending, then j ascending.  All pairs
    with a unique event between their states share that event's region, so
    only the pairs without one run the full search, and the cost is O(n)
    plus theirs.
    """
    lin = _linear_2fold(ts)
    states, word, index = lin.states, lin.word, lin.index
    n = len(word)

    bad = _first_exact_segment(word)
    if bad is not None:
        i, j = bad
        return Linear2Verdict(
            WitnessMap(ts, (), []), (SeparationQuery.states(states[i], states[j]),))

    # next_unique[k]: first position >= k with a globally unique event.
    next_unique = [n] * (n + 1)
    for k in range(n - 1, -1, -1):
        next_unique[k] = k if index[k] == -1 else next_unique[k + 1]

    # For each i the pairs up to j = next_unique[i] run the search; every
    # later pair shares the phase-1 result of next_unique[i].
    by_unique: dict[int, SeparatorResult] = {}
    regions: dict[int, Region] = {}  # distinct masks, in order of first use
    for i in range(n + 1):
        k = next_unique[i]
        found = [_separator(ts, lin, i, j) for j in range(i + 1, k + 1)]
        if k < n:
            if k not in by_unique:
                by_unique[k] = _result(ts, lin, k)
            found.append(by_unique[k])
        for res in found:
            if res.region is not None:
                regions.setdefault(res.region.mask, res.region)
    return Linear2Verdict(
        WitnessMap(ts, ("ssp",), list(regions.values())),
        separators=_Separators(ts, lin, next_unique, by_unique),
    )
