"""Differential tests of the solver's propagation kernel.

The solver closes the edge equations with one kernel, ``_Solver._propagate``,
that queues an edge only when its revision can narrow a domain and that
branches inside its loop, on the cone it reads from the domains.  The
reference below is the earlier solver, kept whole: ``_set_mem``, ``_set_sig``
and ``_touch`` made each change, and a change queued every active edge at
the state, or every edge of the event, the revised edge itself included.
Arc-consistency closure is confluent, so after seeding both hold the same
domains, and the reference's touched events are exactly the events whose
signature domain is narrowed, which is where the kernel reads the cone.  The
search reads only those, so it takes the reference's branches in its order
and yields the same regions in the same order.

Random deterministic systems and two-component unions of at most 12 states,
some with an edgeless event and some with self-loops (R(s) = R(s) +
sig(e)), are checked under random constraints.  Fixed instances cover a
solve that backtracks, an event that backtracking reopens, both ways
``_solution`` reads the members, an event narrowed in place (and a
self-loop, where that must not happen), and pins on a once-occurring event,
whose edge propagates only in the solve that pins it.
"""

import random
from collections import deque
from heapq import heappop, heappush
from typing import Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from ensynth import regions
from ensynth.regions import (
    _MEM_ALL, _MEMBER_DIGITS, _SIG_BIT, Region, RegionConstraint, _indexed, _revise,
    _Solver, _Unsatisfiable, solve_all_regions, solve_region,
)
from ensynth.ts import TransitionSystem, _Index
from ensynth.unions import TsUnion

from test_solver_differential import systems

EXAMPLES = settings(max_examples=80, deadline=None)

# -- the reference: the earlier propagation ------------------------------

REFERENCE_REVISE = tuple(
    _revise(key & 0b11, (key >> 2) & 0b111, key >> 5) for key in range(128)
)


def _columns(idx):
    """The edge columns and flags that the earlier index kept, derived from
    its edge triples: each edge's source, event and target, ``repeated``
    per event and ``active`` per edge."""
    esrc = tuple(s for s, _, _ in idx.edges)
    eev = tuple(e for _, e, _ in idx.edges)
    edst = tuple(t for _, _, t in idx.edges)
    repeated = bytearray(len(es) > 1 for es in idx.event_edges)
    active = bytearray(repeated[e] for e in eev)
    return esrc, eev, edst, active, repeated


class ReferenceSolver:
    """The earlier solver, verbatim but for its name, ``_REVISE`` and the
    columns it reads, which ``_columns`` derives from the index.

    Edges of globally-unique events are excluded from propagation unless
    the constraint pins their signature: a single-occurrence event absorbs
    any membership difference, so such edges never constrain anything and
    their signature is derived from the solution afterwards.

    Every domain change, touched flag and heap pop is recorded on a trail
    as (array, position, old value), or (None, event, 0) for a pop, so a
    branch is undone by replaying the trail back to the frame's mark.
    """

    def __init__(self, sys, constraint: RegionConstraint, deadline=None):
        idx = _indexed(sys)
        for name in constraint.membership:
            if name not in idx.state_pos:
                raise KeyError(f"unknown state {name!r} in constraint")
        for name in constraint.signature:
            if name not in idx.event_pos:
                raise KeyError(f"unknown event {name!r} in constraint")
        self.sys = sys
        self.idx = idx
        self.deadline = deadline
        self.mem = bytearray(b"\x03") * len(idx.states)
        self.sig = bytearray(b"\x07") * len(idx.events)
        self.queue: deque[int] = deque()
        self.trail: list[tuple] = []
        self.esrc, self.eev, self.edst, active, repeated = _columns(idx)

        # Events eligible for branching: repeated events and pinned ones.
        self.active = active
        self.branchable = repeated
        for ev in constraint.signature:
            e = idx.event_pos[ev]
            if not self.branchable[e]:
                self.branchable[e] = 1
                for eid in idx.event_edges[e]:
                    self.active[eid] = 1
        # `touched` tracks the constraint's cone of influence; touched events
        # are branched first, ordered by declaration (a min-heap with lazy
        # deletion).  Generated gadget unions declare events in chain
        # order, so this keeps conflicting choices chronologically close
        # and stops local conflicts from being re-proved under unrelated
        # assignments.
        self.touched = bytearray(len(idx.events))
        self.touch_heap: list[int] = []

        self.failed = False
        try:
            for st, val in constraint.membership.items():
                self._set_mem(idx.state_pos[st], 0b01 if val == 0 else 0b10)
            for ev, val in constraint.signature.items():
                e = idx.event_pos[ev]
                if val and not idx.event_edges[e]:
                    raise _Unsatisfiable  # an edgeless event has signature 0
                self._set_sig(e, _SIG_BIT[val])
            self._drain()
        except _Unsatisfiable:
            self.failed = True

    # -- propagation ----------------------------------------------------

    def _touch(self, e: int):
        if self.touched[e]:
            return
        self.touched[e] = 1
        self.trail.append((self.touched, e, 0))
        if self.branchable[e]:
            d = self.sig[e]
            if d & (d - 1):
                heappush(self.touch_heap, e)

    def _set_mem(self, s: int, bits: int):
        mem = self.mem
        old = mem[s]
        new = old & bits
        if new == old:
            return
        if new == 0:
            raise _Unsatisfiable
        self.trail.append((mem, s, old))
        mem[s] = new
        active, eev, queue = self.active, self.eev, self.queue
        for eid in self.idx.state_edges[s]:
            if active[eid]:
                queue.append(eid)
                self._touch(eev[eid])

    def _set_sig(self, e: int, bits: int):
        sig = self.sig
        old = sig[e]
        new = old & bits
        if new == old:
            return
        if new == 0:
            raise _Unsatisfiable
        self.trail.append((sig, e, old))
        sig[e] = new
        self._touch(e)
        # Only events with active edges get here, and all their edges are.
        self.queue.extend(self.idx.event_edges[e])

    def _drain(self):
        """Arc-consistency over the edge equations R(t) = R(s) + sig(e)."""
        esrc, eev, edst = self.esrc, self.eev, self.edst
        queue = self.queue
        mem, sig = self.mem, self.sig
        while queue:
            eid = queue.popleft()
            s, e, t = esrc[eid], eev[eid], edst[eid]
            ms, mg, mt = mem[s], sig[e], mem[t]
            revised = REFERENCE_REVISE[ms | mg << 2 | mt << 5]
            if revised is None:
                raise _Unsatisfiable
            ns, ng, nt = revised
            if ns != ms:
                self._set_mem(s, ns)
            if ng != mg:
                self._set_sig(e, ng)
            if nt != mt:
                self._set_mem(t, nt)

    def _assign(self, kind: str, var: int, bits: int):
        self.queue.clear()
        if kind == "event":
            self._set_sig(var, bits)
        else:
            self._set_mem(var, bits)
        self._drain()

    def _undo(self, mark: int):
        trail, heap = self.trail, self.touch_heap
        while len(trail) > mark:
            array, pos, old = trail.pop()
            if array is None:
                heappush(heap, pos)
            else:
                array[pos] = old

    # -- search ---------------------------------------------------------

    def _pick_touched(self) -> Optional[int]:
        """Smallest touched event whose domain still has more than one value.

        An event is touched when its own domain is restricted or an incident
        state got decided; branching those first keeps search inside the
        constraint's cone of influence.  Heap entries of events untouched
        by an undo are dropped; popped decided events go on the trail so an
        undo that reopens their domain restores them.
        """
        heap, sig, touched = self.touch_heap, self.sig, self.touched
        while heap:
            e = heap[0]
            if touched[e]:
                d = sig[e]
                if d & (d - 1):
                    return e
                self.trail.append((None, e, 0))
            heappop(heap)
        return None

    def _pick_free(self):
        """Branch variable outside the cone: free events, then states."""
        sig, branchable = self.sig, self.branchable
        for e in range(len(sig)):
            d = sig[e]
            if branchable[e] and d & (d - 1):
                return ("event", e)
        for s, m in enumerate(self.mem):
            if m == _MEM_ALL:
                return ("state", s)
        return None

    def _solution(self) -> Region:
        """The decided members, read from the trail, where a state appears
        at most once on a path; undecided states read as non-members."""
        mem = self.mem
        members = sorted([s for array, s, _ in self.trail if array is mem and mem[s] == 0b10])
        # Shifting a bit in costs about as much as reading 32 domain bytes.
        if 32 * len(members) < len(mem):
            mask = sum(map((1).__lshift__, members))
        else:
            mask = int(mem.translate(_MEMBER_DIGITS)[::-1], 2)
        return Region(self.sys, mask, tuple(members))

    def solutions(self, limit=None, first_only=False):
        """DFS over branch choices; yields regions deterministically.

        With ``first_only`` the search stops once no touched event is left
        to branch on: everything outside the cone of influence is free, and
        the all-zero extension (undecided states outside, undecided events
        obeying) is a solution.
        """
        if self.failed:
            return
        count = 0
        deadline = self.deadline
        # Frame: [trail mark, kind, var, values, next value index]
        stack: list[list] = []
        while True:
            e = self._pick_touched()
            if e is not None:
                pick = ("event", e)
            elif first_only:
                yield self._solution()
                return
            else:
                pick = self._pick_free()
            if pick is None:
                yield self._solution()
                count += 1
                if limit is not None and count >= limit:
                    return
            else:
                kind, var = pick
                if kind == "event":
                    values = [b for b in (0b010, 0b001, 0b100) if self.sig[var] & b]
                else:
                    values = [0b01, 0b10]
                stack.append([len(self.trail), kind, var, values, 0])
            # Take the next untried value of the deepest frame.
            while stack:
                frame = stack[-1]
                i = frame[4]
                if i == len(frame[3]):
                    stack.pop()
                    continue
                frame[4] = i + 1
                if deadline is not None:
                    deadline.check()
                self._undo(frame[0])
                try:
                    self._assign(frame[1], frame[2], frame[3][i])
                except _Unsatisfiable:
                    continue
                break
            else:
                return


# -- inputs ----------------------------------------------------------------

def _with_self_loops(ts: TransitionSystem, rng: random.Random) -> TransitionSystem:
    """``ts`` plus self-loops on some states, by events not yet leaving them."""
    leaving = {(src, ev) for src, ev, _ in ts.edges}
    loops = [(s, e, s) for s in ts.states for e in ts.events
             if (s, e) not in leaving and rng.random() < 0.15]
    return TransitionSystem(ts.states, ts.events, ts.initial, (*ts.edges, *loops))


@st.composite
def looped_systems(draw):
    """The systems of the solver differential, half of them with self-loops."""
    sys_obj = draw(systems())
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        if isinstance(sys_obj, TransitionSystem):
            sys_obj = _with_self_loops(sys_obj, rng)
        else:
            sys_obj = TsUnion([_with_self_loops(c, rng) for c in sys_obj.components])
    return sys_obj


def _constraint(data, sys_obj) -> RegionConstraint:
    return RegionConstraint(
        data.draw(st.dictionaries(
            st.sampled_from(sys_obj.states), st.integers(0, 1), max_size=3)),
        data.draw(st.dictionaries(
            st.sampled_from(sys_obj.events), st.integers(-1, 1), max_size=2)),
    )


def _found(regions):
    return [(r.mask, r._members) for r in regions]


def _flags(solver) -> bytearray:
    """The queue flags a solve starts from: the index's ``once`` flags with
    the flag of each once-occurring event's edge that the constraint pins
    cleared, and the sentinel's."""
    idx = _indexed(solver.sys)
    flags = bytearray(idx.once) + b"\x00"
    for kind, var, _ in solver.pins:
        if kind == "event" and len(idx.event_edges[var]) == 1:
            flags[idx.event_edges[var][0]] = 0
    return flags


def _seeded(solver) -> bool:
    """Run seeding, the search's first step, on its own: propagate each of
    the constraint's assignments to closure, with no frame pushed.  True
    unless the assignments conflict."""
    try:
        for pin in solver.pins:
            solver._propagate(*pin)
    except _Unsatisfiable:
        return False
    return True


# -- the kernel against the reference ----------------------------------------

@EXAMPLES
@given(looped_systems(), st.data())
def test_seeding_matches_the_reference(sys_obj, data):
    constraint = _constraint(data, sys_obj)
    solver, reference = _Solver(sys_obj, constraint), ReferenceSolver(sys_obj, constraint)
    assert _seeded(solver) != reference.failed
    if not reference.failed:  # a failed seeding stops wherever it found the conflict
        assert solver.mem == reference.mem
        assert solver.sig == reference.sig
        assert bytearray(d != 0b111 for d in solver.sig) == reference.touched
    assert not solver.queue and solver.queued == _flags(solver)


@EXAMPLES
@given(looped_systems(), st.data())
def test_solve_region_matches_the_reference(sys_obj, data):
    constraint = _constraint(data, sys_obj)
    found = solve_region(sys_obj, constraint)
    expected = list(ReferenceSolver(sys_obj, constraint).solutions(first_only=True))
    assert _found([found] if found is not None else []) == _found(expected)


@EXAMPLES
@given(looped_systems(), st.data())
def test_solve_all_regions_matches_the_reference(sys_obj, data):
    constraint = _constraint(data, sys_obj)
    expected = list(ReferenceSolver(sys_obj, constraint).solutions())
    assert _found(solve_all_regions(sys_obj, constraint)) == _found(expected)


# -- the search against the reference, branch by branch ------------------------

def _check_trail(solver):
    """Every trail entry is a domain change: its old value strictly holds
    the value that followed it, the next entry's for that domain or the
    current one."""
    later = {}
    for array, pos, old in reversed(solver.trail):
        assert array is solver.mem or array is solver.sig
        key = (array is solver.sig, pos)
        new = later.get(key, array[pos])
        assert new != old and new & old == new
        later[key] = old


def _open_cone(solver):
    return {e for e, d in enumerate(solver.sig) if d != 0b111 and d & (d - 1)}


class _CheckedSolver(_Solver):
    """The solver as its own deadline: it records each branch as (kind,
    variable, value), read from its top frame, and checks there that the
    trail holds domain changes only and, there and after every undo, that
    every open event of the cone waits on the heap.  ``push`` records the
    domain of every event pushed on the heap and checks that the kernel
    pushes an event only as it narrows it in place: to the two values that
    the edge rule leaves it on one of its edges with exactly one decided
    end."""

    def __init__(self, sys_obj, constraint):
        self.taken, self.pushed, self.undoing = [], [], False
        super().__init__(sys_obj, constraint, self)

    def push(self, heap, e):
        self.pushed.append(self.sig[e])
        if not self.undoing:
            assert self.sig[e] in self._narrowings(e)
        heappush(heap, e)

    def _narrowings(self, e):
        """The domains the edge rule leaves the full event ``e`` on each of
        its edges with exactly one decided end."""
        mem, edges = self.mem, self.idx.edges
        return {_revise(mem[a], 0b111, mem[b])[1]
                for a, _, b in map(edges.__getitem__, self.idx.event_edges[e])
                if (mem[a] == _MEM_ALL) != (mem[b] == _MEM_ALL)}

    def check(self):
        _, kind, var, values, i = self.stack[-1]
        self.taken.append((kind, var, values[i - 1]))
        _check_trail(self)
        assert _open_cone(self) <= set(self.heap)

    def _undo(self, mark):
        self.undoing = True
        super()._undo(mark)
        self.undoing = False
        assert _open_cone(self) <= set(self.heap)


def _checked_search(sys_obj, constraint, first_only):
    solver = _CheckedSolver(sys_obj, constraint)
    with pytest.MonkeyPatch.context() as patch:  # the search seeds, and so pushes, first
        patch.setattr(regions, "heappush", solver.push)
        return solver, list(solver.solutions(first_only=first_only))


class _BranchingReference(ReferenceSolver):
    """The reference, recording each branch as (kind, variable, value)."""

    def __init__(self, *args):
        self.taken = []
        super().__init__(*args)

    def _assign(self, kind, var, bits):
        self.taken.append((kind, var, bits))
        super()._assign(kind, var, bits)


@st.composite
def _tight_constraints(draw, sys_obj):
    """Up to four memberships and three signatures of ±1: constraints that
    often pass seeding and then conflict under a branch."""
    return RegionConstraint(
        draw(st.dictionaries(st.sampled_from(sys_obj.states), st.integers(0, 1), max_size=4)),
        draw(st.dictionaries(
            st.sampled_from(sys_obj.events), st.sampled_from((-1, 1)), max_size=3)),
    )


@st.composite
def _self_looped(draw, sys_obj):
    """``sys_obj`` with one more self-loop s -e-> s in one component, by an
    event e that has an edge already and does not leave s, and the state s.
    The self-loop is the component's first edge, so it is the first edge of
    e that deciding s meets."""
    comps = [sys_obj] if isinstance(sys_obj, TransitionSystem) else list(sys_obj.components)
    i = draw(st.integers(0, len(comps) - 1))
    ts = comps[i]
    used = {ev for _, ev, _ in sys_obj.edges}
    leaving = {(src, ev) for src, ev, _ in ts.edges}
    pairs = [(s, e) for s in ts.states for e in ts.events if e in used and (s, e) not in leaving]
    assume(pairs)
    s, e = draw(st.sampled_from(pairs))
    comps[i] = TransitionSystem(ts.states, ts.events, ts.initial, ((s, e, s), *ts.edges))
    return (comps[0] if len(comps) == 1 else TsUnion(comps)), s


@settings(max_examples=200, deadline=None)
@given(looped_systems(), st.data())
def test_search_matches_the_reference_branch_by_branch(sys_obj, data):
    """``solve_region`` (first only) and ``solve_all_regions`` (every
    region) take the reference's branches in its order and find its
    regions; the trail holds domain changes only, the heap takes only
    events that the kernel narrowed in place to an open domain, and it
    holds every open event of the cone at every branch.  Half the draws
    add a self-loop by a repeated event and pin its state first, which so
    is decided while the event is still full."""
    looped = None
    if data.draw(st.booleans()):
        sys_obj, looped = data.draw(_self_looped(sys_obj))
    tight = data.draw(st.booleans())
    constraint = data.draw(_tight_constraints(sys_obj)) if tight else _constraint(data, sys_obj)
    if looped is not None:
        membership = {looped: data.draw(st.integers(0, 1)), **constraint.membership}
        constraint = RegionConstraint(membership, constraint.signature)
    _assert_search_matches_the_reference(sys_obj, constraint)


def _assert_search_matches_the_reference(sys_obj, constraint):
    for first_only in (True, False):
        solver, found = _checked_search(sys_obj, constraint, first_only)
        reference = _BranchingReference(sys_obj, constraint)
        expected = list(reference.solutions(first_only=first_only))
        assert _found(found) == _found(expected)
        assert solver.taken == reference.taken
        _check_trail(solver)
        assert all(d != 0b111 and d & (d - 1) for d in solver.pushed)


@pytest.mark.parametrize("word, membership", [
    ("abba", {"s0": 0, "s3": 0}),
    ("abba", {"s1": 1, "s4": 1}),
])
def test_an_event_reopened_by_backtracking_is_branched_on_again(word, membership):
    """Branching on a decides b, and the closure drops b from the heap;
    backtracking from a reopens b, which must be back on the heap."""
    _assert_search_matches_the_reference(
        TransitionSystem.chain(list(word)), RegionConstraint(membership))


# -- fixed instances -----------------------------------------------------------

class _WatchedSolver(_Solver):
    """Records each propagation's outcome and whether it left the queue
    empty and the ``queued`` flags as the solve began."""

    def __init__(self, *args):
        self.outcomes = []
        super().__init__(*args)

    def _propagate(self, kind, var, bits):
        try:
            super()._propagate(kind, var, bits)
            outcome = "ok"
        except _Unsatisfiable:
            outcome = "conflict"
            raise
        finally:
            self.outcomes.append((outcome, not self.queue and self.queued == _flags(self)))


def test_a_solve_that_backtracks_leaves_every_flag_clear():
    ts = TransitionSystem.from_edges("q0", [
        ("q0", "e0", "q1"), ("q1", "e2", "q2"), ("q2", "e1", "q3"),
        ("q2", "e2", "q4"), ("q3", "e0", "q1"),
    ])
    constraint = RegionConstraint(membership={"q4": 0, "q3": 1})
    solver = _WatchedSolver(ts, constraint)
    found = list(solver.solutions(first_only=True))
    assert ("conflict", True) in solver.outcomes  # the search backtracked ...
    assert solver.outcomes[-1] == ("ok", True)  # ... and then succeeded
    assert all(clear for _, clear in solver.outcomes)
    expected = list(ReferenceSolver(ts, constraint).solutions(first_only=True))
    assert _found(found) == _found(expected) and found[0].members == ("q0", "q3")
    # Every region, with the conflicts of the whole search.
    solver = _WatchedSolver(ts, constraint)
    assert _found(solver.solutions()) == _found(ReferenceSolver(ts, constraint).solutions())
    assert all(clear for _, clear in solver.outcomes)


def _seeded_chain(n_states: int, seed: int) -> TransitionSystem:
    """A chain whose every fourth event is unique and the rest drawn from 60."""
    rng = random.Random(seed)
    return TransitionSystem.chain([
        f"u{i}" if i % 4 == 0 else f"a{rng.randrange(60)}" for i in range(n_states - 1)
    ])


@pytest.mark.parametrize("ts, constraint, reads_trail", [
    (_seeded_chain(300, 300), RegionConstraint(membership={"s150": 1}), True),
    (_seeded_chain(300, 300), RegionConstraint(signature={"a1": -1}), True),
    (TransitionSystem.chain(["a", "b"] * 149 + ["a"]),
     RegionConstraint(signature={"a": 1}), False),
    (TransitionSystem.chain(["a", "b"] * 149 + ["a"]),
     RegionConstraint(membership={"s0": 1}), False),
])
def test_solution_reads_the_members_from_the_trail_or_the_domains(ts, constraint, reads_trail):
    solver = _Solver(ts, constraint)
    found = list(solver.solutions(first_only=True))
    assert (5 * len(solver.trail) <= len(solver.mem)) == reads_trail
    expected = list(ReferenceSolver(ts, constraint).solutions(first_only=True))
    assert _found(found) == _found(expected)
    assert found[0]._members == tuple(i for i in range(300) if found[0].mask >> i & 1)


# -- events narrowed in place ---------------------------------------------------

def _sig_trail(solver, event: str) -> list[int]:
    """The old values the trail holds for ``event``'s domain, in order."""
    e = _indexed(solver.sys).event_pos[event]
    return [old for array, pos, old in solver.trail if array is solver.sig and pos == e]


def test_a_self_loop_at_a_newly_decided_state_is_revised_not_narrowed_in_place():
    """Deciding s1 meets the self-loop s1 -b-> s1, whose other end is s1
    itself: its revision decides b = 0 outright, so b must not be narrowed
    in place to two values and join the cone.  The other edge of b stays
    open, and the edges of the once-occurring a and c do not propagate."""
    ts = TransitionSystem.from_edges("s0", [
        ("s0", "a", "s1"), ("s1", "b", "s1"), ("s1", "c", "s2"), ("s2", "b", "s3"),
    ])
    constraint = RegionConstraint(membership={"s1": 1})
    solver, reference = _Solver(ts, constraint), ReferenceSolver(ts, constraint)
    assert _seeded(solver) and not reference.failed
    assert solver.mem == reference.mem and solver.sig == reference.sig
    assert solver.sig[ts.events.index("b")] == _SIG_BIT[0] and not solver.heap
    assert _sig_trail(solver, "b") == [0b111]
    assert _found(solve_all_regions(ts, constraint)) == _found(
        ReferenceSolver(ts, constraint).solutions())


def test_a_zero_pinned_once_occurring_event_is_narrowed_in_place_on_its_patched_edge():
    """In s0 -a-> s1 -u-> s2 -a-> s3 the membership s1 = 1 is seeded before
    the pin u = 0, so deciding s1 meets the edge of u, which propagates only
    because the pin cleared its flag, while u is still full: u is narrowed
    in place to {-1, 0}, and the pin then leaves it 0."""
    ts = TransitionSystem.chain(["a", "u", "a"])
    constraint = RegionConstraint(membership={"s1": 1}, signature={"u": 0})
    solver, reference = _Solver(ts, constraint), ReferenceSolver(ts, constraint)
    assert _seeded(solver) and not reference.failed
    assert solver.mem == reference.mem and solver.sig == reference.sig
    assert _sig_trail(solver, "u") == [0b111, 0b011]
    assert _found([solve_region(ts, constraint)]) == _found(
        ReferenceSolver(ts, constraint).solutions(first_only=True))
    assert _found(solve_all_regions(ts, constraint)) == _found(
        ReferenceSolver(ts, constraint).solutions())


# -- what a solve copies --------------------------------------------------------

def _assert_reads_the_index(solver, pinned_edges):
    """The solve allocates its domains, flags, trail and heap and reads the
    rest from the index, which it leaves as built; its flags differ from
    the index's ``once`` at exactly the edges its pins clear."""
    idx = _indexed(solver.sys)
    built = _Index(solver.sys)
    assert solver.idx is idx
    assert idx.edges == built.edges and idx.state_edges == built.state_edges
    assert idx.once == built.once
    arrays = {name for name, value in vars(solver).items()
              if isinstance(value, (list, tuple, bytes, bytearray))}
    assert arrays <= {"pins", "mem", "sig", "queued", "trail", "heap", "stack"}
    flags = bytearray(idx.once) + b"\x00"
    assert [y for y, (a, b) in enumerate(zip(flags, solver.queued)) if a != b] == pinned_edges


def test_a_once_occurring_event_pinned_to_zero_carries_a_decided_end():
    """In s0 -a-> s1 -u-> s2 -a-> s3 the pin u = 0 meets an open edge, and
    s2 is decided only by the branch on a; the edge of u, whose flag the
    index sets and the pin clears, must then decide s1 too."""
    ts = TransitionSystem.chain(["a", "u", "a"])
    constraint = RegionConstraint(membership={"s3": 1}, signature={"u": 0})
    solver = _Solver(ts, constraint)
    found = list(solver.solutions(first_only=True))
    assert found[0].members == ("s0", "s1", "s2", "s3") and found[0].sig("u") == 0
    expected = list(ReferenceSolver(ts, constraint).solutions(first_only=True))
    assert _found(found) == _found(expected)
    assert _found(solve_all_regions(ts, constraint)) == _found(
        ReferenceSolver(ts, constraint).solutions())
    _assert_reads_the_index(solver, [1])


@pytest.mark.parametrize("constraint", [
    RegionConstraint(membership={"s1": 1, "s3": 0}),  # an SSP query
    RegionConstraint(membership={"s3": 0}, signature={"a": -1}),  # ESSP, a repeated event
    RegionConstraint(membership={"s0": 0}, signature={"u": -1}),  # ESSP, a once-occurring one
])
def test_sweep_constraints_copy_no_index_array(constraint):
    ts = TransitionSystem.chain(["a", "u", "a"])
    solver = _Solver(ts, constraint)
    # edge 1, u's, is the one edge whose event occurs once
    _assert_reads_the_index(solver, [1] if "u" in constraint.signature else [])
    found = list(solver.solutions(first_only=True))
    assert _found(found) == _found(ReferenceSolver(ts, constraint).solutions(first_only=True))


@pytest.mark.parametrize("membership, seeds, u_trail", [
    ({"s0": 1}, True, [0b111, 0b011]),
    ({"s0": 0}, False, [0b111]),
])
def test_a_state_pin_decides_an_end_of_a_once_occurring_edge_before_its_event_pin(
        membership, seeds, u_trail):
    """In s0 -u-> s1 -a-> s2 -a-> s3 the membership of s0 is seeded before
    the pin u = -1, and the pin has already cleared the flag of u's edge: so
    deciding s0 narrows the full u in place, to {-1, 0} under s0 = 1, which
    the pin then decides, and to {0, +1} under s0 = 0, which the pin
    empties."""
    ts = TransitionSystem.chain(["u", "a", "a"])
    constraint = RegionConstraint(membership=membership, signature={"u": -1})
    solver, reference = _Solver(ts, constraint), ReferenceSolver(ts, constraint)
    assert _seeded(solver) is seeds and reference.failed is not seeds
    if seeds:
        assert solver.mem == reference.mem and solver.sig == reference.sig
    assert _sig_trail(solver, "u") == u_trail
    assert not solver.queue and solver.queued == _flags(solver)
    _assert_search_matches_the_reference(ts, constraint)
