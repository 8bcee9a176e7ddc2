"""Regions of transition systems and unions, and the region solver.

A region is a state subset R whose characteristic function extends to a
signature sig: E -> {-1,0,+1} with R(s') = R(s) + sig(e) on every edge
s -e-> s'.  The signature is unique, so regions are canonicalized by their
membership bit-vector and the signature is always derived, never stored.
Events without any edge have signature 0 in every region.

Two engines are provided:

* :func:`enumerate_regions` -- brute force over all 2^|S| subsets, the
  independent oracle used by the test suite (capped, default 22 states).
* :func:`solve_region` / :func:`solve_all_regions` -- constraint
  propagation over the edge equations with backtracking, which scales to
  the generated reduction instances.  Propagation maintains domains for
  every membership bit and every signature value and runs the edge
  equation as an arc-consistency rule; branching is restricted to events
  in the constraint's cone of influence first, so gadget chains collapse
  deterministically and search is confined to genuine choices (for the
  generated instances: the translator trichotomy).  Worst-case behavior
  on arbitrary inputs remains exponential.

A solve costs what the constraint reaches, not what the system holds.
The system (a :class:`~ensynth.ts.TransitionSystem` or a
:class:`~ensynth.unions.TsUnion`, which is just a disconnected graph)
owns one integer index, which ``ts`` defines and builds on first use for
every layer, and the solver reads it as it is.  Full domains are
arc-consistent, so the propagation queue is seeded from the constraint
only, and the search undoes a branch through a trail of domain changes
instead of copying the domains at every frame.  The queue takes an edge
only when its revision can narrow a domain: at most once, never by its
own revision, and not while it is open (both ends undecided) and its
event may still obey (sig = 0).  An edge that a newly decided state could
only make narrow its full event to two values is not queued either: the
event is narrowed in place.  The same kernel descends, branching at each
closure on the smallest open event of the cone, which it reads from the
domains.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from heapq import heappop, heappush
from itertools import compress, islice
from typing import Optional

from .ts import _Index, _indexed, _linear_chain

__all__ = [
    "Region",
    "RegionConstraint",
    "check_region",
    "enumerate_regions",
    "solve_region",
    "solve_all_regions",
    "aggregate_signature",
    "format_region",
]

# Domain encodings: membership bit0 = "0 allowed", bit1 = "1 allowed";
# signature bit0 = -1, bit1 = 0, bit2 = +1.
_MEM_ALL = 0b11
_SIG_ALL = 0b111
_SIG_BIT = {-1: 0b001, 0: 0b010, 1: 0b100}


def _revise(ms: int, mg: int, mt: int):
    """Supported values of R(s), sig(e), R(t) under R(t) = R(s) + sig(e)."""
    ns = ng = nt = 0
    if ms & 1:  # R(s) = 0
        if (mg & 0b010) and (mt & 1):
            ns |= 1; ng |= 0b010; nt |= 1
        if (mg & 0b100) and (mt & 2):
            ns |= 1; ng |= 0b100; nt |= 2
    if ms & 2:  # R(s) = 1
        if (mg & 0b001) and (mt & 1):
            ns |= 2; ng |= 0b001; nt |= 1
        if (mg & 0b010) and (mt & 2):
            ns |= 2; ng |= 0b010; nt |= 2
    return (ns, ng, nt) if ns else None


# The edge rule for every domain triple, keyed by ms | mg << 2 | mt << 5:
# ``None`` on a wipe-out, else the new domains (ns, ng, nt).
_REVISE = tuple(_revise(key & 0b11, (key >> 2) & 0b111, key >> 5) for key in range(128))

# The two values the edge rule leaves a full event when exactly one end of
# the edge is decided, keyed by mem[source] | mem[target] << 2; 0 for every
# other pair of end domains.
_NARROW = tuple(
    _revise(ms, _SIG_ALL, mt)[1] if {ms, mt} in ({0b01, 0b11}, {0b10, 0b11}) else 0
    for mt in range(4) for ms in range(4)
)

# Branch values, tried in this order: an event's remaining values by its
# domain (obey first), and a state's.
_EVENT_VALUES = tuple(
    tuple(b for b in (0b010, 0b001, 0b100) if d & b) for d in range(8)
)
_STATE_VALUES = (0b01, 0b10)

# bytes.translate tables: binary digits as 0/1 bytes, and the decided-member
# states of a membership domain array as ASCII binary digits.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_MEMBER_DIGITS = bytes(0x31 if d == 0b10 else 0x30 for d in range(256))


def _positions(idx: _Index, mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending, as the index's
    shared ints: one O(|S|) read."""
    digits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return tuple(compress(idx.positions, digits))


def _witness_regions(sys, regions) -> Iterator[Region]:
    """The given regions, each checked to be a region of ``sys`` (else
    ``ValueError``) and left with its cut signs computed.  Whether a
    region's system is ``sys`` is decided once per distinct system object:
    comparing an equal system that is another object costs O(|S| + |E|),
    and the regions of a witness set share a few system objects."""
    known = {id(sys): sys}  # holding each object keeps its id from reuse
    for region in regions:
        if not isinstance(region, Region):
            raise ValueError("witness sets contain Region values")
        system = region.system
        if id(system) not in known:
            if system != sys:
                raise ValueError("region does not belong to the checked system")
            known[id(system)] = system
        region._cut_signs()  # raises ValueError unless the mask is a region
        yield region


class Region:
    """A valid region: a system, a membership bit-vector, a derived signature.

    A region the solver found also holds its sorted member positions; one
    built from a bare mask reads them from the mask when first asked.  The
    signs of the events the region cuts are computed once, from its smaller
    side, so a small region costs its own size, not the system's.  A mask
    with a bit beyond the system's states, or a negative one, is refused
    with ``ValueError``.
    """

    __slots__ = ("system", "mask", "_members", "_cut")

    def __init__(self, system, mask: int, _members: Optional[tuple[int, ...]] = None):
        if mask < 0 or mask.bit_length() > len(system.states):
            raise ValueError(f"mask {mask} is not a set of the system's states")
        self.system = system
        self.mask = mask
        self._members = _members
        self._cut: Optional[dict[int, int]] = None

    @classmethod
    def from_members(cls, system, members: Iterable[str]) -> "Region":
        """Build and validate a region from a set of state names."""
        region = _named_region(system, members)
        region._cut_signs()
        return region

    def _member_positions(self) -> tuple[int, ...]:
        if self._members is None:
            self._members = _positions(_indexed(self.system), self.mask)
        return self._members

    def _side(self) -> tuple[tuple[int, ...], int]:
        """The positions of the smaller side and its sign: the members (1),
        or the non-members (-1) when the region holds more than half the
        states.  A region and its complement cut the same edges, and each
        cut edge has an end on either side."""
        idx = _indexed(self.system)
        n = len(idx.states)
        if 2 * self.mask.bit_count() <= n:
            return self._member_positions(), 1
        return _positions(idx, self.mask ^ ((1 << n) - 1)), -1

    def _cut_signs(self) -> dict[int, int]:
        """Signature of each event the region cuts, by event id; every other
        event has signature 0.  Raises ``ValueError`` if the membership set
        is not a region."""
        cut = self._cut
        if cut is None:
            cut = _cut_signs(_indexed(self.system), *self._side())
            if cut is None:
                raise ValueError("membership set is not a region of the system")
            self._cut = cut
        return cut

    def _cut_events(self) -> list[tuple[str, int]]:
        """(event, sign) of the events the region cuts, in declaration order."""
        events = _indexed(self.system).events
        return [(events[e], d) for e, d in sorted(self._cut_signs().items())]

    @property
    def members(self) -> tuple[str, ...]:
        states = _indexed(self.system).states
        return tuple(map(states.__getitem__, self._member_positions()))

    def __contains__(self, state: str) -> bool:
        idx = _indexed(self.system)
        return (self.mask >> idx.state_pos[state]) & 1 == 1

    @property
    def signature(self) -> dict[str, int]:
        """The signature of every event, as a new dict on each read."""
        sig = dict.fromkeys(_indexed(self.system).events, 0)
        sig.update(self._cut_events())
        return sig

    def sig(self, event: str) -> int:
        return self._cut_signs().get(_indexed(self.system).event_pos[event], 0)

    def complement(self) -> "Region":
        n = len(_indexed(self.system).states)
        return Region(self.system, ((1 << n) - 1) ^ self.mask)

    def restrict(self, system) -> "Region":
        """Project onto a sub-system (component of a union) by state names."""
        return Region.from_members(system, [s for s in system.states if s in self])

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return self.mask == other.mask and (
            self.system is other.system or self.system == other.system
        )

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        return f"Region({{{', '.join(self.members)}}})"


def _named_region(sys, names: Iterable[str]) -> Region:
    """The region of a set of state names, not yet validated.  Each name
    writes its digit into one string of the system's size, which is read as
    one integer, so the mask costs a step per name and a pass over the
    states in C, not a shift of a growing integer per name."""
    idx = _indexed(sys)
    digits = bytearray(b"0") * len(idx.states)
    for s in map(idx.state_pos.__getitem__, names):
        digits[-1 - s] = 0x31  # ASCII "1" for bit s
    return Region(sys, int(digits, 2))


def _cut_signs(idx: _Index, side: tuple[int, ...], sign: int) -> Optional[dict[int, int]]:
    """Signature of each event with an edge across the cut, by event id, or
    ``None`` if the edges of such an event disagree (not a region).

    ``side`` holds the positions of one side of the cut and ``sign`` is 1
    when they are the members, -1 when they are the non-members.  Every
    cut edge has an end on ``side``, so the cost follows that side's edges.
    """
    edges = idx.edges
    on = set(side)
    signs: dict[int, int] = {}
    for s in side:
        for eid in idx.state_edges[s]:
            a, e, b = edges[eid]
            d = (b in on) - (a in on)
            if d:
                signs[e] = d * sign
    for e, d in signs.items():
        for eid in idx.event_edges[e]:
            a, _, b = edges[eid]
            if ((b in on) - (a in on)) * sign != d:
                return None
    return signs


def check_region(sys, members: Iterable[str]) -> Optional[dict[str, int]]:
    """Signature of the membership set if it is a region, else ``None``.

    Events without any edge get signature 0.
    """
    region = _named_region(sys, members)
    try:
        return region.signature
    except ValueError:
        return None


class RegionConstraint:
    """Partial membership/signature requirements for the solver.

    Accepts mappings or iterables of pairs; conflicting duplicate entries
    are rejected at construction, unknown names at solve time.
    """

    __slots__ = ("membership", "signature")

    def __init__(self, membership=(), signature=()):
        self.membership = self._collect("membership", membership, (0, 1))
        self.signature = self._collect("signature", signature, (-1, 0, 1))

    @staticmethod
    def _collect(label, pairs, allowed) -> dict[str, int]:
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        out: dict[str, int] = {}
        for key, value in items:
            if value not in allowed:
                raise ValueError(f"{label} value {value!r} for {key!r} not in {allowed}")
            if key in out and out[key] != value:
                raise ValueError(
                    f"conflicting {label} constraint for {key!r}: "
                    f"{out[key]} vs {value}"
                )
            out[key] = value
        return out

    def __repr__(self):
        return f"RegionConstraint(membership={self.membership}, signature={self.signature})"


class _Unsatisfiable(Exception):
    pass


class _Solver:
    """Backtracking search over membership/signature domains.

    A solve allocates its domains and its queue flags, and reads every
    other array from the system's index as it is.  An edge whose event
    occurs once constrains nothing, since that event absorbs any
    membership difference, and its signature is derived from the solution
    afterwards: its queue flag starts set, so the kernel never queues it.
    A pin on such an event clears its edge's flag in the solve's own flags,
    and the edge then propagates like any other.

    The trail holds domain changes only, each as (array, position, old
    value), so a branch is undone by replaying it back to the frame's mark.
    The constraint's cone of influence is read from the domains: at every
    closure an event is in the cone iff its signature domain is narrowed
    (``sig != 0b111``), since a decided end of a propagating edge rules out
    one of -1 and +1 and a narrowed domain never widens.  The cone's open
    events wait on a min-heap by declaration order, with lazy deletion.
    Generated gadget unions declare events in chain order, so branching on
    them first keeps conflicting choices chronologically close and stops
    local conflicts from being re-proved under unrelated assignments.
    """

    def __init__(self, sys, constraint: RegionConstraint, deadline=None):
        idx = _indexed(sys)
        self.sys = sys
        self.idx = idx
        self.deadline = deadline
        # One flag per edge, set while the edge is queued or revised, and
        # from the start on an edge that constrains nothing; the extra last
        # flag belongs to the assignment that starts a drain.
        queued = self.queued = bytearray(idx.once)
        queued.append(0)
        # The constraint as the (kind, position, bits) assignments that seed
        # the search, memberships first.
        pins = self.pins = []
        for name, val in constraint.membership.items():
            if name not in idx.state_pos:
                raise KeyError(f"unknown state {name!r} in constraint")
            pins.append(("state", idx.state_pos[name], 0b10 if val else 0b01))
        for name, val in constraint.signature.items():
            if name not in idx.event_pos:
                raise KeyError(f"unknown event {name!r} in constraint")
            e = idx.event_pos[name]
            edges = idx.event_edges[e]
            if len(edges) == 1:
                queued[edges[0]] = 0
            # An edgeless event has signature 0, so a ±1 pin leaves it no value.
            pins.append(("event", e, _SIG_BIT[val] & (_SIG_ALL if edges else 0b010)))
        self.mem = bytearray(b"\x03") * len(idx.states)
        self.sig = bytearray(b"\x07") * len(idx.events)
        self.queue: deque[int] = deque()
        self.trail: list[tuple] = []
        self.heap: list[int] = []
        # The search's frames, [trail mark, kind, var, values, next value
        # index]; ``None`` while seeding, which so stops at closure.
        self.stack: Optional[list[list]] = None

    # -- propagation and descent -----------------------------------------

    def _propagate(self, kind: str, var: int, bits: int):
        """Restrict one state's or event's domain to ``bits``, close the
        edge equations R(t) = R(s) + sig(e) under arc consistency and,
        during the search, descend into the cone.

        The one search kernel, for the constraint and for every branch.
        The assignment enters the loop as if a revision of a sentinel edge
        had made it, so every change, the assignment's and each revision's,
        goes through the same queue rule.  Every edge outside the queue is
        consistent with the current domains, and a change queues only the
        edges whose revision can narrow a domain:

        * an edge is queued at most once (its ``queued`` flag);
        * a revision never queues its own edge, which stays flagged while
          it is revised: the edge rule is idempotent;
        * an event domain that still holds 0 skips its open edges, whose
          ends are both undecided: their revision is a no-op, and a change
          at either end queues them;
        * a newly decided state does not queue an edge whose event is full
          and whose other end is undecided, since its revision could only
          narrow the event to two values: the kernel does that in place.
          The edge is then consistent, and a later change to its event or
          its other end queues it.  The event's other edges at the state
          are queued by the state's own loop; those elsewhere stay open,
          since an unqueued edge of a full event is consistent only if open.

        A revision yields the new domains of its source, event and target,
        and the kernel makes the event's change, then the source's, then
        the target's; on a self-loop the target is read again once the
        source is written.  A changed domain is trailed.  An event joins
        the heap of the cone when it is narrowed in place, the only way a
        full event becomes two-valued.  While the search runs (``stack`` is
        set), each closure picks the smallest event of the cone whose
        domain is still open, pushes its frame and applies its first value
        as the next sentinel assignment.  The kernel returns once no open
        event is left in the cone, and raises ``_Unsatisfiable`` on a
        conflict.  The queue is empty and every flag is back at its value
        before the call, on return and on ``_Unsatisfiable``.
        """
        idx = self.idx
        edges, state_edges, event_edges = idx.edges, idx.state_edges, idx.event_edges
        mem, sig = self.mem, self.sig
        heap, stack, trail, deadline = self.heap, self.stack, self.trail, self.deadline
        queue, queued = self.queue, self.queued
        pop, push, log = queue.popleft, queue.append, trail.append
        sentinel = eid = len(queued) - 1
        if kind == "event":
            e, mg = var, sig[var]
            ng = mg & bits
            if not ng:
                raise _Unsatisfiable
            s = ms = ns = mt = nt = 0
        else:
            s, ms = var, mem[var]
            ns = ms & bits
            mg = ng = mt = nt = 0
        try:
            while True:
                if ng != mg:
                    # A full event is narrowed to two values only by an edge
                    # with one decided end, in place below: only there does
                    # an event join the cone.
                    log((sig, e, mg))
                    sig[e] = ng
                    # Only events whose edges propagate get here.
                    if ng & 0b010:  # skip the open edges
                        for x in event_edges[e]:
                            if not queued[x]:
                                a, _, b = edges[x]
                                if mem[a] & mem[b] != _MEM_ALL:
                                    queued[x] = 1
                                    push(x)
                    else:
                        for x in event_edges[e]:
                            if not queued[x]:
                                queued[x] = 1
                                push(x)
                if ns != ms:
                    if not ns:
                        raise _Unsatisfiable
                    log((mem, s, ms))
                    mem[s] = ns
                    for y in state_edges[s]:
                        if queued[y]:
                            continue
                        a, f, b = edges[y]
                        if sig[f] == _SIG_ALL:
                            g = _NARROW[mem[a] | mem[b] << 2]
                            if g:
                                # The other end is undecided, so y's
                                # revision could only narrow f to g: do it
                                # here.  This loop queues f's other edges at
                                # s, and f's edges elsewhere stay open.
                                log((sig, f, _SIG_ALL))
                                sig[f] = g
                                heappush(heap, f)
                                continue
                        queued[y] = 1
                        push(y)
                if nt != mt:
                    # The target in turn; on a self-loop it is the source,
                    # written just now.
                    s, ms, mg = t, mem[t], ng
                    ns, nt = nt & ms, mt
                    continue
                queued[eid] = 0
                if queue:
                    eid = pop()
                    s, e, t = edges[eid]
                    ms, mg, mt = mem[s], sig[e], mem[t]
                    revised = _REVISE[ms | mg << 2 | mt << 5]
                    if revised is None:
                        raise _Unsatisfiable
                    ns, ng, nt = revised
                    continue
                if stack is None:
                    return
                # Closure: drop the heap's entries that left the cone or
                # were decided, and branch on the smallest open one.
                while heap:
                    e = heap[0]
                    mg = sig[e]
                    if mg != _SIG_ALL and mg & (mg - 1):
                        break
                    heappop(heap)
                else:
                    return
                values = _EVENT_VALUES[mg]
                stack.append([len(trail), "event", e, values, 1])
                if deadline is not None:
                    deadline.check()
                eid, ng, ns = sentinel, values[0], ms
        except _Unsatisfiable:
            queued[eid] = 0
            for x in queue:
                queued[x] = 0
            queue.clear()
            raise

    def _undo(self, mark: int):
        """Replay the trail back to ``mark``.  An event whose restored
        domain is open and narrowed goes back on the heap, where the
        closure may have dropped it decided; a duplicate is harmless."""
        trail, heap, sig = self.trail, self.heap, self.sig
        while len(trail) > mark:
            array, pos, old = trail.pop()
            array[pos] = old
            if array is sig and old != _SIG_ALL and old & (old - 1):
                heappush(heap, pos)

    # -- search ---------------------------------------------------------

    def _pick_free(self):
        """Branch variable outside the cone: free events, then states."""
        sig, event_edges = self.sig, self.idx.event_edges
        for e in range(len(sig)):
            d = sig[e]
            if d & (d - 1) and len(event_edges[e]) > 1:
                return ("event", e)
        for s, m in enumerate(self.mem):
            if m == _MEM_ALL:
                return ("state", s)
        return None

    def _solution(self) -> Region:
        """The decided members; undecided states read as non-members.

        Two outcomes.  A state appears on the trail at most once on a path,
        so a trail of at most |S|/5 entries gives the members, shifted into
        the mask when fewer than |S|/32 (a shift costs about as much as
        reading 32 domain bytes).  Otherwise the domain array is read once
        for the members and the mask."""
        mem, trail = self.mem, self.trail
        if 5 * len(trail) <= len(mem):
            members = sorted([s for array, s, _ in trail if array is mem and mem[s] == 0b10])
            if 32 * len(members) < len(mem):
                return Region(self.sys, sum(map((1).__lshift__, members)), tuple(members))
        digits = mem.translate(_MEMBER_DIGITS)
        members = tuple(compress(self.idx.positions, digits.translate(_BIT_BYTES)))
        return Region(self.sys, int(digits[::-1], 2), members)

    def solutions(self, first_only=False):
        """DFS over branch choices, seeded from the constraint; yields
        regions deterministically.

        The kernel descends through the cone; this loop backtracks, tries
        each frame's next value and, outside the cone, branches on free
        variables.  With ``first_only`` the search stops once no event of
        the cone is open: everything outside it is free, and the all-zero
        extension (undecided states outside, undecided events obeying) is
        a solution.
        """
        try:  # seeding stops at closure: no frame is pushed yet
            for pin in self.pins:
                self._propagate(*pin)
        except _Unsatisfiable:
            return
        deadline, trail = self.deadline, self.trail
        self.stack = stack = []
        # Restricting a domain to all of its values changes nothing: the
        # first step only descends from the seeded closure.
        kind, var, bits = "state", 0, _MEM_ALL
        while True:
            try:
                self._propagate(kind, var, bits)
            except _Unsatisfiable:
                pass
            else:
                pick = None if first_only else self._pick_free()
                if pick is None:
                    yield self._solution()
                    if first_only:
                        return
                else:
                    kind, var = pick
                    values = _EVENT_VALUES[self.sig[var]] if kind == "event" else _STATE_VALUES
                    stack.append([len(trail), kind, var, values, 0])
            # Take the next untried value of the deepest frame.
            while stack:
                frame = stack[-1]
                mark, kind, var, values, i = frame
                if i < len(values):
                    break
                stack.pop()
            else:
                return
            frame[4] = i + 1
            if deadline is not None:
                deadline.check()
            self._undo(mark)
            bits = values[i]


def _as_constraint(constraint) -> RegionConstraint:
    if constraint is None:
        return RegionConstraint()
    if isinstance(constraint, RegionConstraint):
        return constraint
    raise TypeError("expected a RegionConstraint or None")


def solve_region(
    sys, constraint: RegionConstraint | None = None, deadline=None
) -> Optional[Region]:
    """First region satisfying the constraint, or ``None`` if none exists.

    ``deadline``, if given, is an object whose ``check()`` the search calls
    before every branch; whatever it raises aborts the solve.
    """
    solver = _Solver(sys, _as_constraint(constraint), deadline)
    return next(solver.solutions(first_only=True), None)


def solve_all_regions(
    sys, constraint: RegionConstraint | None = None, limit: int | None = None
) -> list[Region]:
    """All regions satisfying the constraint, deterministically ordered;
    the first ``limit`` of them if given (``ValueError`` if negative)."""
    solver = _Solver(sys, _as_constraint(constraint))
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    return list(islice(solver.solutions(), limit))


def enumerate_regions(sys, cap: int = 22) -> list[Region]:
    """Brute-force region enumeration over all state subsets.

    Refuses systems with more than ``cap`` states; use the solver beyond
    that.  The result is ordered by membership bit-vector value and is the
    oracle the solver is tested against.
    """
    idx = _indexed(sys)
    n = len(idx.states)
    if n > cap:
        raise ValueError(
            f"{n} states exceeds the enumeration cap {cap}; use solve_all_regions"
        )
    sig_val = [0] * len(idx.events)
    sig_gen = [-1] * len(idx.events)
    out = []
    for mask in range(1 << n):
        ok = True
        for s, e, t in idx.edges:
            d = ((mask >> t) & 1) - ((mask >> s) & 1)
            if sig_gen[e] == mask:
                if sig_val[e] != d:
                    ok = False
                    break
            else:
                sig_gen[e] = mask
                sig_val[e] = d
        if ok:
            out.append(Region(sys, mask))
    return out


def aggregate_signature(region: Region, ts, i: int, j: int) -> int:
    """R(s_j) - R(s_i) along a linear TS, i.e. the signature sum over e_{i+1}..e_j."""
    chain = _linear_chain(ts)
    if chain is None:
        raise ValueError("aggregate_signature requires a linear transition system")
    t = len(ts.edges)
    if not (0 <= i < j <= t):
        raise IndexError(f"indices ({i}, {j}) out of range for a chain of length {t}")
    return (chain[0][j] in region) - (chain[0][i] in region)


def format_region(region: Region) -> str:
    """Witness format: membership line plus the non-obeying signature entries."""
    members = ", ".join(region.members)
    parts = [f"{e}={'+1' if d == 1 else '-1'}" for e, d in region._cut_events()]
    sig_line = "sig: " + ", ".join(parts) if parts else "sig:"
    return f"region: {{{members}}}\n{sig_line}"
