"""Differential tests of the region solver and the deciders against brute force.

Random deterministic systems and two-component unions of at most 12
states are checked against ``enumerate_regions`` and the exhaustive
``conftest.brute_*`` deciders; the witness-set checks and the query
count of a witness map are checked against a pass over every query.  Some systems declare an event without
edges, whose signature is 0 in every region.
"""

import random

from hypothesis import given, settings, strategies as st

from ensynth.properties import (
    WitnessMap, has_essp, has_ssp, is_essp_witness, is_feasible, is_ssp_witness,
)
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


def _ssp_pairs(sys_obj):
    component_of = getattr(sys_obj, "component_of", None)
    states = sys_obj.states
    for i, s in enumerate(states):
        for s2 in states[i + 1:]:
            if component_of is None or component_of[s] == component_of[s2]:
                yield s, s2


def _essp_pairs(sys_obj):
    enabled = {(src, ev) for src, ev, _ in sys_obj.edges}
    for e in sys_obj.events:
        for s in sys_obj.states:
            if (s, e) not in enabled:
                yield e, s


def brute_ssp_witness(sys_obj, regions) -> bool:
    return all(any((s in r) != (s2 in r) for r in regions) for s, s2 in _ssp_pairs(sys_obj))


def brute_essp_witness(sys_obj, regions) -> bool:
    return all(
        any((r.signature[e] == -1 and s not in r) or (r.signature[e] == 1 and s in r)
            for r in regions)
        for e, s in _essp_pairs(sys_obj)
    )


@EXAMPLES
@given(systems(), st.data())
def test_witness_checks_match_brute_force(sys_obj, data):
    every = enumerate_regions(sys_obj)
    assert is_ssp_witness(sys_obj, every) == brute_ssp(sys_obj)
    assert is_essp_witness(sys_obj, every) == brute_essp(sys_obj)
    found = is_feasible(sys_obj).witnesses.regions
    dropped = list(found)
    if dropped:
        del dropped[data.draw(st.integers(0, len(dropped) - 1))]
    for regions in (found, dropped):
        assert is_ssp_witness(sys_obj, regions) == brute_ssp_witness(sys_obj, regions)
        assert is_essp_witness(sys_obj, regions) == brute_essp_witness(sys_obj, regions)


@EXAMPLES
@given(systems())
def test_witness_map_length_counts_every_query(sys_obj):
    ssp, essp = len(list(_ssp_pairs(sys_obj))), len(list(_essp_pairs(sys_obj)))
    for kinds, expected in ((), 0), (("ssp",), ssp), (("essp",), essp), (("ssp", "essp"), ssp + essp):
        witnesses = WitnessMap(sys_obj, kinds, [])
        assert len(witnesses) == expected == sum(1 for _ in witnesses)
