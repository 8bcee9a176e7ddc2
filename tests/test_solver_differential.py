"""Differential tests of the region solver and the deciders against brute force.

Random deterministic systems and two-component unions of at most 12
states are checked against ``enumerate_regions`` and the exhaustive
``conftest.brute_*`` deciders.  Some systems declare an event without
edges, whose signature is 0 in every region.
"""

import random

from hypothesis import given, settings, strategies as st

from ensynth.properties import has_essp, has_ssp, is_feasible
from ensynth.regions import RegionConstraint, enumerate_regions, solve_all_regions, solve_region
from ensynth.ts import TransitionSystem
from ensynth.unions import TsUnion

from conftest import brute_essp, brute_feasible, brute_ssp
from corpus import random_deterministic_ts

EXAMPLES = settings(max_examples=60, deadline=None)


def _with_ghost(ts: TransitionSystem) -> TransitionSystem:
    return TransitionSystem(ts.states, (*ts.events, "ghost"), ts.initial, ts.edges)


def _prefixed(ts: TransitionSystem, prefix: str) -> TransitionSystem:
    """The same TS with renamed states and shared event names."""
    return TransitionSystem(
        [prefix + s for s in ts.states], ts.events, prefix + ts.initial,
        [(prefix + a, e, prefix + b) for a, e, b in ts.edges],
    )


@st.composite
def systems(draw):
    """A deterministic TS of at most 12 states or a union of two of at most 6."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_events = draw(st.integers(1, 4))
    if draw(st.booleans()):
        sys_obj = random_deterministic_ts(rng, draw(st.integers(2, 12)), n_events)
    else:
        sys_obj = TsUnion([
            _prefixed(random_deterministic_ts(rng, draw(st.integers(2, 6)), n_events), p)
            for p in ("a", "b")
        ])
    if draw(st.integers(0, 4)) == 0:
        sys_obj = (_with_ghost(sys_obj) if isinstance(sys_obj, TransitionSystem)
                   else TsUnion([_with_ghost(c) for c in sys_obj.components]))
    return sys_obj


@EXAMPLES
@given(systems())
def test_solve_all_regions_matches_enumeration(sys_obj):
    solved = [r.mask for r in solve_all_regions(sys_obj)]
    assert len(solved) == len(set(solved))
    assert sorted(solved) == [r.mask for r in enumerate_regions(sys_obj)]


@EXAMPLES
@given(systems(), st.data())
def test_solve_region_matches_brute_force(sys_obj, data):
    states, events = sys_obj.states, sys_obj.events
    membership = data.draw(st.dictionaries(
        st.sampled_from(states), st.integers(0, 1), max_size=2))
    signature = data.draw(st.dictionaries(
        st.sampled_from(events), st.integers(-1, 1), max_size=1))
    expected = [
        r for r in enumerate_regions(sys_obj)
        if all((s in r) == bool(v) for s, v in membership.items())
        and all(r.signature[e] == v for e, v in signature.items())
    ]
    found = solve_region(sys_obj, RegionConstraint(membership, signature))
    if not expected:
        assert found is None
    else:
        assert found is not None and found.mask in {r.mask for r in expected}


@EXAMPLES
@given(systems())
def test_deciders_match_brute_force(sys_obj):
    assert has_ssp(sys_obj).holds == brute_ssp(sys_obj)
    assert has_essp(sys_obj).holds == brute_essp(sys_obj)
    assert is_feasible(sys_obj).holds == brute_feasible(sys_obj)
