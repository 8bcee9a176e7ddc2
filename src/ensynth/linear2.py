"""Polynomial SSP machinery for linear 2-fold transition systems.

A linear 2-fold TS has the SSP exactly when it contains no exact 2-fold
subsequence (a contiguous segment in which every occurring event occurs
exactly twice): summing signatures over such a segment is even, so its
endpoints can never be separated.  Because no event occurs more than
twice, a segment is exact 2-fold exactly when the prefix parity vectors at
its ends are equal, so the decision is one parity pass over the word.
When the SSP holds, a separating region for any state pair is found in
O(|S|) after preprocessing the second-occurrence index, and it has at most
two non-obeying events.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress, count
from random import Random
from typing import Optional

from .properties import SeparationQuery, Verdict, WitnessMap
from .regions import Region, _indexed
from .ts import TransitionSystem, _linear_chain

__all__ = [
    "second_occurrence_index",
    "find_exact_2fold_subsequence",
    "SeparatorResult",
    "separator",
    "Linear2Verdict",
    "linear2_ssp",
]

Chain = tuple[tuple[str, ...], tuple[str, ...]]  # (states, word) in chain order


def _linear_2fold_chain(ts: TransitionSystem) -> Chain:
    """The chain of a linear 2-fold TS: the one check each public entry
    point makes; the private helpers below take the chain and trust it."""
    chain = _linear_chain(ts)
    if chain is None or max(Counter(chain[1]).values(), default=0) > 2:
        raise ValueError("expected a linear 2-fold transition system")
    return chain


def _other_occurrences(word: tuple[str, ...]) -> list[int]:
    index = [-1] * len(word)
    first: dict[str, int] = {}
    for k, ev in enumerate(word):
        other = first.setdefault(ev, k)
        if other != k:
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
    """I_A: edge index k -> index of the other occurrence of its event, or -1."""
    return _other_occurrences(_linear_2fold_chain(ts)[1])


def find_exact_2fold_subsequence(ts: TransitionSystem) -> Optional[tuple[int, int]]:
    """First (i, j) whose segment uses every of its events exactly twice.

    Smallest i first, then smallest j, found in one prefix-parity pass.
    Returns None iff the TS has the SSP.
    """
    return _first_exact_segment(_linear_2fold_chain(ts)[1])


@dataclass(frozen=True)
class SeparatorResult:
    """Two event sets defining a region, or (set(), set()) on failure."""

    exit_events: frozenset[str]
    enter_events: frozenset[str]
    region: Optional[Region]

    @property
    def found(self) -> bool:
        return bool(self.exit_events or self.enter_events)


def _region_from_sparse_signature(
    ts: TransitionSystem, chain: Chain, sig: dict[str, int]
) -> Optional[Region]:
    """Membership induced by a signature with few non-obeying events.

    The walk along the chain must stay in {0, 1}; at most one of the two
    start values survives.  The mask is read from one digit string, so a
    call stays linear in the chain length.
    """
    states, word = chain
    deltas = [sig.get(ev, 0) for ev in word]
    for start in (0, 1):
        member = list(accumulate(deltas, initial=start))
        if min(member) >= 0 and max(member) <= 1:
            pos = _indexed(ts).state_pos
            digits = bytearray(b"0" * len(states))
            for state in compress(states, member):
                digits[-1 - pos[state]] = 0x31  # ASCII "1" for bit pos[state]
            return Region(ts, int(digits, 2))
    return None


def separator(
    ts: TransitionSystem, i: int, j: int, index: list[int] | None = None
) -> SeparatorResult:
    """Separating region for s_i, s_j of a linear 2-fold TS with the SSP.

    Follows the three phases of the search: a unique event inside the
    segment; the event whose partner occurrence is leftmost before s_i plus
    a compensating entering event; symmetrically the rightmost partner
    after s_j.  On TSs without the SSP the result may be empty.
    """
    chain = _linear_2fold_chain(ts)
    n = len(chain[1])
    if not (0 <= i < j <= n):
        raise IndexError(f"indices ({i}, {j}) out of range for chain length {n}")
    if index is None:
        index = _other_occurrences(chain[1])
    return _separator(ts, chain, index, i, j)


def _separator(
    ts: TransitionSystem, chain: Chain, index: list[int], i: int, j: int
) -> SeparatorResult:
    """The body of :func:`separator`, on a checked chain and valid indices.
    Each phase uses its own locals."""
    word = chain[1]
    n = len(word)

    def result(exit_ev: str, enter_ev: str | None) -> SeparatorResult:
        enter = () if enter_ev is None else (enter_ev,)
        sig = {exit_ev: -1, **dict.fromkeys(enter, 1)}
        region = _region_from_sparse_signature(ts, chain, sig)
        return SeparatorResult(frozenset([exit_ev]), frozenset(enter), region)

    # Phase 1: a globally unique event between s_i and s_j exits alone.
    for k in range(i, j):
        if index[k] == -1:
            return result(word[k], None)

    # Phase 2: leftmost second occurrence before s_i.
    a = next((k for k in range(i) if i <= index[k] < j), -1)
    if a != -1:
        for k in range(a + 1, i):
            if index[k] == -1 or index[k] < a or index[k] >= j:
                return result(word[a], word[k])

    # Phase 3: rightmost second occurrence after s_j.
    b = next((k for k in range(n - 1, j - 1, -1) if i <= index[k] < j), -1)
    if b != -1:
        for k in range(j, b):
            if index[k] == -1 or index[k] < i or index[k] > b:
                return result(word[b], word[k])

    return SeparatorResult(frozenset(), frozenset(), None)


@dataclass
class Linear2Verdict(Verdict):
    """SSP verdict carrying the per-pair separator results."""

    separators: dict[tuple[str, str], SeparatorResult] = field(default_factory=dict)


def linear2_ssp(ts: TransitionSystem) -> Linear2Verdict:
    """SSP verdict with a SeparatorResult witness per state pair.

    The verdict is the absence of an exact 2-fold subsequence, one parity
    pass.  Each of the O(|S|^2) pairs then costs O(|S|), or O(1) when a
    unique event lies between its states, so O(|S|^3) is the worst case.
    """
    chain = _linear_2fold_chain(ts)
    states, word = chain
    n = len(word)

    bad = _first_exact_segment(word)
    if bad is not None:
        i, j = bad
        return Linear2Verdict(
            holds=False,
            witnesses=WitnessMap(ts, (), []),
            counterexample=SeparationQuery.states(states[i], states[j]),
        )

    index = _other_occurrences(word)
    # next_unique[k]: first position >= k with a globally unique event.
    next_unique = [n] * (n + 1)
    for k in range(n - 1, -1, -1):
        next_unique[k] = k if index[k] == -1 else next_unique[k + 1]

    # Phase 1 answers every pair with a unique event between its states by
    # the first such event, so those results are shared by position.
    by_unique: dict[int, SeparatorResult] = {}
    separators: dict[tuple[str, str], SeparatorResult] = {}
    regions: dict[int, Region] = {}  # distinct masks, in order of first use
    for i in range(n + 1):
        k = next_unique[i]
        for j in range(i + 1, n + 1):
            if k >= j:
                res = _separator(ts, chain, index, i, j)
            elif (res := by_unique.get(k)) is None:
                res = by_unique[k] = _separator(ts, chain, index, i, j)
            separators[(states[i], states[j])] = res
            if res.region is not None:
                regions.setdefault(res.region.mask, res.region)
    return Linear2Verdict(
        holds=True,
        witnesses=WitnessMap(ts, ("ssp",), list(regions.values())),
        separators=separators,
    )
