"""SSP / ESSP / feasibility deciders with witness regions.

State separation asks for a region containing one state and not the other;
event/state separation asks for a region that inhibits an event at a state
not firing it.  Both searches are polarity-normalized (membership 1/0 for
the first state, signature -1 plus membership 0 for inhibition), since the
complement region covers the opposite polarity.

The deciders reuse witnesses aggressively: every region found is applied
to all still-open queries in bulk via membership bit-vectors before the
solver is consulted again.  Queries are scanned in declaration order
(events outer, states inner), so counterexamples and witnesses are
deterministic.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Optional

from .regions import Region, RegionConstraint, _positions, _witness_regions, solve_region
from .ts import _indexed

__all__ = [
    "SeparationQuery",
    "Verdict",
    "WitnessMap",
    "TimeoutExceeded",
    "separable",
    "inhibitable",
    "has_ssp",
    "has_essp",
    "is_feasible",
    "is_ssp_witness",
    "is_essp_witness",
]


@dataclass(frozen=True)
class SeparationQuery:
    """Either a state pair (kind 'ssp') or an event-state pair (kind 'essp')."""

    kind: str
    a: str
    b: str

    @classmethod
    def states(cls, s: str, s2: str) -> "SeparationQuery":
        return cls("ssp", s, s2)

    @classmethod
    def event_state(cls, e: str, s: str) -> "SeparationQuery":
        return cls("essp", e, s)

    def __str__(self):
        if self.kind == "ssp":
            return f"states ({self.a}, {self.b})"
        return f"event {self.a} at state {self.b}"


class TimeoutExceeded(Exception):
    def __init__(self, checked: int, total: int):
        self.checked = checked
        self.total = total
        super().__init__(f"timeout after {checked} of {total} queries")


def _answers(region: Region, query: SeparationQuery) -> bool:
    if query.kind == "ssp":
        return (query.a in region) != (query.b in region)
    event = _indexed(region.system).event_pos.get(query.a)
    v = region._cut_signs().get(event, 0)
    if v == -1:
        return query.b not in region
    if v == 1:
        return query.b in region
    return False


class WitnessMap(Mapping):
    """Lazy query -> Region view backed by the found witness list.

    Lookups scan the regions for one that answers the query, so the map
    costs one region per solver call instead of one entry per query; the
    deciders guarantee that, on a holding verdict, every mandatory query is
    answered by some stored region.
    """

    def __init__(self, sys, kinds: tuple[str, ...], regions: list[Region]):
        self._sys = sys
        self._kinds = kinds
        self.regions = regions

    def __getitem__(self, query: SeparationQuery) -> Region:
        for region in self.regions:
            if _answers(region, query):
                return region
        raise KeyError(query)

    def __iter__(self):
        """The queries in sweep order: the intra-component state pairs, then
        the (event, state) pairs with the event not enabled, events outer."""
        idx = _indexed(self._sys)
        states = idx.states
        if "ssp" in self._kinds:
            partition = _Partition(idx)
            for i, s in enumerate(states):
                later = partition.blocks[partition.block_of[i]] >> (i + 1) << (i + 1)
                for j in _positions(idx, later):
                    yield SeparationQuery.states(s, states[j])
        if "essp" in self._kinds:
            for e, pending in zip(idx.events, _essp_pending(idx)):
                for i in _positions(idx, pending):
                    yield SeparationQuery.event_state(e, states[i])

    def __len__(self):
        """The query count, from block sizes and per-event counts."""
        idx = _indexed(self._sys)
        count = 0
        if "ssp" in self._kinds:
            blocks = _Partition(idx).blocks
            count += sum(b.bit_count() * (b.bit_count() - 1) // 2 for b in blocks)
        if "essp" in self._kinds:
            count += sum(m.bit_count() for m in _essp_pending(idx))
        return count


@dataclass
class Verdict:
    """Outcome of a property check: the witnesses found and the failing
    queries, in sweep order.  The property holds iff no query failed."""

    witnesses: WitnessMap
    failures: tuple[SeparationQuery, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.failures

    @property
    def counterexample(self) -> Optional[SeparationQuery]:
        return self.failures[0] if self.failures else None


def separable(sys, s: str, s2: str) -> Optional[Region]:
    """Region with R(s)=1, R(s2)=0, or None; polarity covers the complement."""
    if s == s2:
        raise ValueError("separable needs two distinct states")
    idx = _indexed(sys)
    if idx.component[idx.state_pos[s]] != idx.component[idx.state_pos[s2]]:
        raise ValueError(
            "states from different union components are separable by definition"
        )
    return solve_region(sys, RegionConstraint(membership={s: 1, s2: 0}))


def inhibitable(sys, e: str, s: str) -> Optional[Region]:
    """Region with sig(e)=-1 and R(s)=0, or None.

    Only this polarity is searched; the complement yields sig(e)=+1 with
    R(s)=1, so existence coincides.
    """
    if sys.has_edge(s, e):
        raise ValueError(f"event {e!r} occurs at state {s!r}; the query is vacuous")
    return solve_region(
        sys, RegionConstraint(membership={s: 0}, signature={e: -1})
    )


class _Deadline:
    def __init__(self, timeout: float | None):
        self.at = None if timeout is None else time.monotonic() + timeout
        self.checked = 0
        self.total = 0

    def check(self):
        if self.at is not None and time.monotonic() > self.at:
            raise TimeoutExceeded(self.checked, self.total)


class _Partition:
    """The states of a system that no absorbed region separates yet, as the
    blocks of a partition: one block per component at the start, numbered
    as in ``idx``, the system's index, and refined by every region, so the
    open pairs of a state are the other states of its block.
    """

    def __init__(self, idx):
        self.block_of = list(idx.component)
        self.blocks = [0] * (max(self.block_of) + 1)
        for i, b in enumerate(self.block_of):
            self.blocks[b] |= 1 << i

    def absorb(self, region: Region):
        """Split every block the region cuts.  Each cut block holds a state
        of the region's smaller side, and the smaller part of a split is
        relabelled by walking its set bits, so the cost follows that side."""
        blocks, block_of, mask = self.blocks, self.block_of, region.mask
        side, _ = region._side()
        for b in set(map(block_of.__getitem__, side)):
            block = blocks[b]
            inside = block & mask
            if inside == 0 or inside == block:
                continue
            outside = block ^ inside
            part = inside if inside.bit_count() <= outside.bit_count() else outside
            blocks[b] = block ^ part
            new, rest = len(blocks), part
            while rest:
                low = rest & -rest
                block_of[low.bit_length() - 1] = new
                rest ^= low
            blocks.append(part)


def _run_ssp(sys, deadline: _Deadline, regions: list[Region]) -> list[SeparationQuery]:
    """Cover all intra-component pairs; returns the failing pair, if any."""
    idx = _indexed(sys)
    n = len(idx.states)
    partition = _Partition(idx)
    blocks, block_of = partition.blocks, partition.block_of
    components = list(blocks)

    for region in regions:
        partition.absorb(region)

    deadline.total += sum(c.bit_count() * (c.bit_count() - 1) // 2 for c in components)
    for i in range(n):
        above = ~((1 << (i + 1)) - 1)
        while True:
            rem = blocks[block_of[i]] & above
            if rem == 0:
                break
            j = (rem & -rem).bit_length() - 1
            deadline.check()
            witness = solve_region(
                sys,
                RegionConstraint(membership={idx.states[i]: 1, idx.states[j]: 0}),
                deadline=deadline,
            )
            if witness is None:
                return [SeparationQuery.states(idx.states[i], idx.states[j])]
            regions.append(witness)
            partition.absorb(witness)
        deadline.checked += (components[idx.component[i]] & above).bit_count()
    return []


def _essp_pending(idx) -> list[int]:
    """Per event id, the mask of the states at which the event is not enabled."""
    full = (1 << len(idx.states)) - 1
    pending = []
    for eids in idx.event_edges:
        enabled = 0
        for eid in eids:
            enabled |= 1 << idx.esrc[eid]
        pending.append(full & ~enabled)
    return pending


def _absorb_cut(pending: list[int], region: Region):
    """Drop from ``pending`` the (event, state) queries a region answers:
    an exiting event is inhibited outside it, an entering one inside."""
    mask = region.mask
    for k, v in region._cut_signs().items():
        if pending[k]:
            pending[k] &= mask if v < 0 else ~mask


def _run_essp(sys, deadline: _Deadline, regions: list[Region], exhaustive: bool):
    """Cover all non-vacuous (event, state) queries; returns failing queries."""
    idx = _indexed(sys)
    # pending[k]: states at which event k is not enabled and not yet inhibited.
    pending = _essp_pending(idx)
    deadline.total += sum(m.bit_count() for m in pending)
    for region in regions:
        _absorb_cut(pending, region)

    failures: list[SeparationQuery] = []
    for k, e in enumerate(idx.events):
        while pending[k]:
            low = pending[k] & -pending[k]
            i = low.bit_length() - 1
            deadline.check()
            witness = solve_region(
                sys,
                RegionConstraint(membership={idx.states[i]: 0}, signature={e: -1}),
                deadline=deadline,
            )
            if witness is None:
                failures.append(SeparationQuery.event_state(e, idx.states[i]))
                if not exhaustive:
                    return failures
                pending[k] &= ~low
                deadline.checked += 1
                continue
            regions.append(witness)
            _absorb_cut(pending, witness)
            deadline.checked += 1
    return failures


def _decide(sys, timeout, kinds: tuple[str, ...], exhaustive=False, seeds=()) -> Verdict:
    """The one sweep behind every decider: the SSP sweep if ``kinds`` has
    "ssp", then, unless it failed, the ESSP sweep if ``kinds`` has "essp",
    both sharing the witnesses found so far, ``seeds`` first."""
    deadline = _Deadline(timeout)
    regions = list(_witness_regions(sys, seeds))
    failures = _run_ssp(sys, deadline, regions) if "ssp" in kinds else []
    if "essp" in kinds and not failures:
        failures = _run_essp(sys, deadline, regions, exhaustive)
    return Verdict(WitnessMap(sys, kinds, regions), tuple(failures))


def has_ssp(sys, timeout: float | None = None) -> Verdict:
    """Decide the state separation property with attached witnesses."""
    return _decide(sys, timeout, ("ssp",))


def has_essp(
    sys,
    timeout: float | None = None,
    exhaustive: bool = False,
    seed_regions: Iterable[Region] = (),
) -> Verdict:
    """Decide the event/state separation property.

    With ``exhaustive`` the verdict collects every failing query instead of
    stopping at the first.  ``seed_regions`` primes the witness cache, e.g.
    with regions found by a preceding SSP run; each must be a region of
    ``sys`` (``ValueError`` otherwise).
    """
    return _decide(sys, timeout, ("essp",), exhaustive, seed_regions)


def is_feasible(sys, timeout: float | None = None, exhaustive: bool = False) -> Verdict:
    """SSP and ESSP conjoined; witnesses are shared between the two runs.
    ``exhaustive`` is :func:`has_essp`'s; a failing SSP sweep stops."""
    return _decide(sys, timeout, ("ssp", "essp"), exhaustive)


def is_ssp_witness(sys, regions: Iterable[Region]) -> bool:
    """True iff every intra-component state pair is separated by the set.

    The regions refine the partition of :func:`has_ssp`'s sweep; the set is
    a witness iff every block ends up a single state.
    """
    partition = _Partition(_indexed(sys))
    for region in _witness_regions(sys, regions):
        partition.absorb(region)
    return all(b & (b - 1) == 0 for b in partition.blocks)


def is_essp_witness(sys, regions: Iterable[Region]) -> bool:
    """True iff every non-vacuous (event, state) query is answered by the set.

    The regions are absorbed through the edges they cut, as in
    :func:`has_essp`'s sweep; the set is a witness iff no query is left.
    """
    pending = _essp_pending(_indexed(sys))
    for region in _witness_regions(sys, regions):
        _absorb_cut(pending, region)
    return not any(pending)
