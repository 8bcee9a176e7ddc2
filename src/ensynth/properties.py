"""SSP / ESSP / feasibility deciders with witness regions.

State separation asks for a region containing one state and not the other;
event/state separation asks for a region that inhibits an event at a state
not firing it.  Both searches are polarity-normalized (membership 1/0 for
the first state, signature -1 plus membership 0 for inhibition), since the
complement region covers the opposite polarity.

Each kind's open queries live in one query set: ``_Partition`` for the
SSP, whose rows are the states, and ``_Pending`` for the ESSP, whose rows
are the events.  One sweep serves both: it asks the solver for the first
open query of a row, and every region found or given is absorbed into the
set, which drops every open query the region answers, before the solver
is consulted again.  Rows and their queries are scanned in declaration
order, so counterexamples and witnesses are deterministic.
``_queries`` lists a kind's queries in that order: the one ESSP query
rule, which the witness map and ``build_linear3_ssp``'s gadgets follow.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Optional

from .regions import Region, RegionConstraint, _witness_regions, solve_region
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
    costs one region per solver call instead of one entry per query.  Its
    keys are the queries of ``kinds``, the kinds whose sweep held, so that
    every one of them is answered by some stored region.
    """

    def __init__(self, sys, kinds: tuple[str, ...], regions: list[Region]):
        self._sys = sys
        self._kinds = kinds
        self.regions = regions

    def __getitem__(self, query: SeparationQuery) -> Region:
        if (isinstance(query, SeparationQuery) and query.kind in self._kinds
                and (query.kind == "essp" or self._lists_pair(query.a, query.b))):
            for region in self.regions:
                if _answers(region, query):
                    return region
        raise KeyError(query)

    def _lists_pair(self, s: str, s2: str) -> bool:
        """Whether the SSP sweep lists (s, s2): two states of one
        component, in index order."""
        idx = _indexed(self._sys)
        i, j = idx.state_pos.get(s), idx.state_pos.get(s2)
        return None not in (i, j) and i < j and idx.component[i] == idx.component[j]

    def __iter__(self):
        """The queries in sweep order: the intra-component state pairs, then
        the (event, state) pairs with the event not enabled, events outer."""
        for kind in self._kinds:
            yield from _queries(self._sys, kind)

    def __len__(self):
        """The query count, from block sizes and per-event counts."""
        idx = _indexed(self._sys)
        return sum(_QUERIES[kind](idx).total for kind in self._kinds)


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
    return solve_region(sys, _constraint(SeparationQuery.states(s, s2)))


def inhibitable(sys, e: str, s: str) -> Optional[Region]:
    """Region with sig(e)=-1 and R(s)=0, or None.

    Only this polarity is searched; the complement yields sig(e)=+1 with
    R(s)=1, so existence coincides.
    """
    if sys.has_edge(s, e):
        raise ValueError(f"event {e!r} occurs at state {s!r}; the query is vacuous")
    return solve_region(sys, _constraint(SeparationQuery.event_state(e, s)))


def _constraint(query: SeparationQuery) -> RegionConstraint:
    """The one polarity the solver searches for a query: R(a)=1 and R(b)=0
    for states a and b, sig(a)=-1 and R(b)=0 for event a at state b."""
    if query.kind == "ssp":
        return RegionConstraint(membership={query.a: 1, query.b: 0})
    return RegionConstraint(membership={query.b: 0}, signature={query.a: -1})


_CLOCK_EVERY = 1024  # checks per clock reading: the solver checks at every branch


class _Deadline:
    """Stops a check once the clock passes ``at``, infinite without a timeout;
    the clock is read on the first check and then on every 1,024th."""

    def __init__(self, timeout: float | None):
        if timeout != timeout:  # nan, which no clock reading exceeds
            raise ValueError("timeout must not be nan")
        self.at = float("inf") if timeout is None else time.monotonic() + timeout
        self.checked = 0
        self.total = 0
        self.calls = 0

    def check(self):
        if self.calls % _CLOCK_EVERY == 0 and time.monotonic() > self.at:
            raise TimeoutExceeded(self.checked, self.total)
        self.calls += 1


class _Partition:
    """The open SSP queries: the states of a system that no absorbed region
    separates yet, as the blocks of a partition: one block per component at
    the start, numbered as in ``idx``, the system's index, and refined by
    every region.  A row is a state, and its open queries pair it with the
    later states of its block.
    """

    def __init__(self, idx):
        self.states = idx.states
        self.rows = range(len(idx.states))
        self.block_of = list(idx.component)
        self.blocks = [0] * (max(self.block_of) + 1)
        hi = 0
        for b, run in groupby(self.block_of):  # states lo..hi-1 lie in block b
            lo, hi = hi, hi + len(list(run))
            self.blocks[b] |= (1 << hi) - (1 << lo)
        self.total = sum(b.bit_count() * (b.bit_count() - 1) // 2 for b in self.blocks)

    def open(self, i: int):
        """The pairs (i, j) with j > i in i's block, by j; the block is read
        again after each, so a pair split off meanwhile is skipped."""
        j = i
        while rest := self.blocks[self.block_of[i]] >> (j + 1):
            j += (rest & -rest).bit_length()
            yield SeparationQuery.states(self.states[i], self.states[j])

    def absorb(self, region: Region) -> int:
        """Split every block the region cuts; returns the number of pairs
        split.  Each cut block holds a state of the region's smaller side,
        and the smaller part of a split is relabelled by walking its set
        bits, so the cost follows that side."""
        blocks, block_of, mask = self.blocks, self.block_of, region.mask
        side, _ = region._side()
        answered = 0
        for b in set(map(block_of.__getitem__, side)):
            block = blocks[b]
            inside = block & mask
            if inside == 0 or inside == block:
                continue
            outside = block ^ inside
            size_in, size_out = inside.bit_count(), outside.bit_count()
            answered += size_in * size_out
            part = inside if size_in <= size_out else outside
            blocks[b] = block ^ part
            new, rest = len(blocks), part
            while rest:
                low = rest & -rest
                block_of[low.bit_length() - 1] = new
                rest ^= low
            blocks.append(part)
        return answered


class _Pending:
    """The open ESSP queries: per event id, the mask of the states at which
    the event is not enabled and no absorbed region inhibits it.  A row is
    an event, and its open queries are those states.
    """

    def __init__(self, idx):
        self.states, self.events = idx.states, idx.events
        self.rows = range(len(idx.events))
        full = (1 << len(idx.states)) - 1
        self.pending = []
        for eids in idx.event_edges:
            enabled = 0
            for eid in eids:
                enabled |= 1 << idx.edges[eid][0]
            self.pending.append(full & ~enabled)
        self.total = sum(m.bit_count() for m in self.pending)

    def open(self, k: int):
        """The queries of event k, by state; the mask is read again after
        each, so a query answered meanwhile is skipped."""
        i = -1
        while rest := self.pending[k] >> (i + 1):
            i += (rest & -rest).bit_length()
            yield SeparationQuery.event_state(self.events[k], self.states[i])

    def absorb(self, region: Region) -> int:
        """Drop the queries the region answers, an exiting event inhibited
        outside it and an entering one inside; returns how many."""
        pending, mask, answered = self.pending, region.mask, 0
        for k, v in region._cut_signs().items():
            if before := pending[k]:
                pending[k] = before & (mask if v < 0 else ~mask)
                answered += before.bit_count() - pending[k].bit_count()
        return answered


_QUERIES = {"ssp": _Partition, "essp": _Pending}


def _queries(sys, kind: str):
    """Every query of ``kind`` on ``sys``, in sweep order; for "essp", the
    (event, state) pairs whose event is not enabled, events outer."""
    queries = _QUERIES[kind](_indexed(sys))
    for row in queries.rows:
        yield from queries.open(row)


def _sweep(sys, deadline: _Deadline, queries, regions: list[Region], exhaustive: bool):
    """Answer every open query of ``queries``, a fresh query set, row by
    row: the regions so far are absorbed first, then the solver is asked
    for each query still open and every region it finds is absorbed and
    appended to ``regions``.  Returns the failing queries: the first, or
    with ``exhaustive`` all of them.  ``deadline.checked`` counts the
    queries answered, by a region or by a failed solve."""
    deadline.total += queries.total
    for region in regions:
        deadline.checked += queries.absorb(region)
    failures: list[SeparationQuery] = []
    for row in queries.rows:
        for query in queries.open(row):
            deadline.check()
            witness = solve_region(sys, _constraint(query), deadline=deadline)
            if witness is None:
                failures.append(query)
                if not exhaustive:
                    return failures
                deadline.checked += 1
            else:
                regions.append(witness)
                deadline.checked += queries.absorb(witness)
    return failures


def _decide(sys, timeout, kinds: tuple[str, ...], exhaustive=False, seeds=()) -> Verdict:
    """The one sweep behind every decider, run once per kind of ``kinds``
    ("ssp" before "essp") until one fails, all sharing the witnesses found
    so far, ``seeds`` first.  Only the ESSP sweep is ``exhaustive``.  The
    witness map lists the queries of the kinds whose sweep held."""
    deadline = _Deadline(timeout)
    regions = list(_witness_regions(sys, seeds))
    idx = _indexed(sys)
    failures: list[SeparationQuery] = []
    for n, kind in enumerate(kinds):
        queries = _QUERIES[kind](idx)
        failures = _sweep(sys, deadline, queries, regions, exhaustive and kind == "essp")
        if failures:
            kinds = kinds[:n]
            break
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


def _covers(sys, kind: str, regions: Iterable[Region]) -> bool:
    """True iff the regions answer every query of the kind: absorbed into a
    fresh query set, as in the sweep, they answer as many as it holds."""
    queries = _QUERIES[kind](_indexed(sys))
    return sum(map(queries.absorb, _witness_regions(sys, regions))) == queries.total


def is_ssp_witness(sys, regions: Iterable[Region]) -> bool:
    """True iff every intra-component state pair is separated by the set."""
    return _covers(sys, "ssp", regions)


def is_essp_witness(sys, regions: Iterable[Region]) -> bool:
    """True iff every non-vacuous (event, state) query is answered by the set."""
    return _covers(sys, "essp", regions)
