"""Differential tests of the one system protocol against the edge list.

A transition system and a union of them share one index, which answers
``successors`` and ``has_edge``, numbers the components, and yields the
queries of a witness map.  The references below read the edge list
directly, and the query references are the earlier probe-based scans: all
state pairs filtered by ``component_of``, and every (event, state) pair
probed for an edge.  The systems are raw graphs: edges may be
nondeterministic or self-loops, and events may have no edge.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ensynth.properties import SeparationQuery, WitnessMap, separable
from ensynth.synthesis import language_equal, ts_isomorphic
from ensynth.ts import TransitionSystem
from ensynth.unions import TsUnion

EXAMPLES = settings(max_examples=200, deadline=None)
EVENTS = ("a", "b", "c")


@st.composite
def raw_component(draw, prefix: str, max_states: int) -> TransitionSystem:
    states = [f"{prefix}{k}" for k in range(draw(st.integers(1, max_states)))]
    edges = draw(st.permutations(sorted(draw(st.sets(
        st.tuples(st.sampled_from(states), st.sampled_from(EVENTS), st.sampled_from(states)),
        max_size=3 * len(states))))))
    used = {ev for _, ev, _ in edges}
    ghosts = draw(st.lists(st.sampled_from(["g", *EVENTS]), unique=True, max_size=2))
    events = draw(st.permutations(sorted(used | set(ghosts))))
    return TransitionSystem(states, events, draw(st.sampled_from(states)), edges)


@st.composite
def raw_systems(draw):
    """A TS of at most 12 states, or a union of 1-3 components of at most
    4 states each."""
    if draw(st.booleans()):
        return draw(raw_component("s", 12))
    n = draw(st.integers(1, 3))
    return TsUnion([draw(raw_component(f"c{k}.", 4)) for k in range(n)])


def reference_successors(sys_obj, state: str) -> dict[str, str]:
    succ = {}
    for src, ev, dst in sys_obj.edges:
        if src == state:
            succ[ev] = dst  # the last edge wins
    return succ


def reference_ssp_queries(sys_obj) -> list[SeparationQuery]:
    states = sys_obj.states
    component_of = getattr(sys_obj, "component_of", None)
    return [SeparationQuery.states(s, s2)
            for i, s in enumerate(states) for s2 in states[i + 1:]
            if component_of is None or component_of[s] == component_of[s2]]


def reference_essp_queries(sys_obj) -> list[SeparationQuery]:
    enabled = {(src, ev) for src, ev, _ in sys_obj.edges}
    return [SeparationQuery.event_state(e, s)
            for e in sys_obj.events for s in sys_obj.states if (s, e) not in enabled]


@EXAMPLES
@given(raw_systems())
def test_successors_and_has_edge_match_the_edge_list(sys_obj):
    for s in sys_obj.states:
        succ = reference_successors(sys_obj, s)
        assert sys_obj.successors(s) == succ
        for e in (*sys_obj.events, "undeclared"):
            assert sys_obj.has_edge(s, e) == (e in succ)


@EXAMPLES
@given(raw_systems())
def test_mutating_a_successor_map_leaks_nowhere(sys_obj):
    """``successors`` returns a new map each time, so a caller that edits
    it changes neither the system's edges nor its later answers."""
    for s in sys_obj.states:
        succ = sys_obj.successors(s)
        succ["zz"] = s
        for e in list(succ)[:1]:
            del succ[e]
    for s in sys_obj.states:
        assert sys_obj.successors(s) == reference_successors(sys_obj, s)
        assert not sys_obj.has_edge(s, "zz")


def test_edited_successor_map_keeps_the_system_deterministic():
    ts = TransitionSystem.chain(["a", "b"])
    ts.successors("s0")["zz"] = "s2"
    assert not ts.has_edge("s0", "zz")
    assert ts_isomorphic(ts, ts) and language_equal(ts, ts)


@EXAMPLES
@given(raw_systems())
def test_witness_map_queries_match_the_probe_scan(sys_obj):
    ssp, essp = reference_ssp_queries(sys_obj), reference_essp_queries(sys_obj)
    for kinds, expected in ((("ssp",), ssp), (("essp",), essp), (("ssp", "essp"), ssp + essp)):
        witnesses = WitnessMap(sys_obj, kinds, [])
        assert list(witnesses) == expected
        assert len(witnesses) == len(expected)


@EXAMPLES
@given(raw_systems())
def test_separable_refuses_pairs_across_components(sys_obj):
    components = getattr(sys_obj, "components", (sys_obj,))
    for a, b in zip(components, components[1:]):
        with pytest.raises(ValueError, match="different union components"):
            separable(sys_obj, a.states[-1], b.states[0])
