import copy
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from ensynth.linear2 import second_occurrence_index
from ensynth.ts import (
    ParseError,
    TransitionSystem,
    TsClass,
    Violation,
    classify,
    linear_word,
    parse_ts,
    serialize_ts,
    validate,
)

from corpus import linear3_corpus, random_deterministic_ts, small_ts_corpus


def test_master_is_admissible(master):
    report = validate(master)
    assert report.ok
    assert str(report) == "valid"
    assert classify(master) == TsClass(manifoldness=3, degree=1, linear=True)
    assert linear_word(master) == ["k", "z0", "o0", "k", "h", "z0", "v1", "k"]


def test_unused_event_reported():
    ts = TransitionSystem(["s0", "s1"], ["a", "ghost"], "s0", [("s0", "a", "s1")])
    report = validate(ts)
    assert report.kinds() == {"reduced"}
    assert ("ghost",) == report.violations[0].offenders


def test_nondeterminism_reported():
    ts = TransitionSystem(
        ["s0", "s1", "s2"], ["e"], "s0", [("s0", "e", "s1"), ("s0", "e", "s2")]
    )
    assert "deterministic" in validate(ts).kinds()
    assert validate(ts).kinds() == {"deterministic"}


def test_loops_simplicity_reachability_reported():
    ts = TransitionSystem(
        ["s0", "s1", "s2"],
        ["a", "b", "c"],
        "s0",
        [("s0", "a", "s1"), ("s0", "b", "s1"), ("s1", "c", "s1")],
    )
    kinds = validate(ts).kinds()
    assert {"simple", "loop-free", "reachable"} <= kinds


def test_empty_event_set_reported():
    report = validate(TransitionSystem(["s0", "s1"], [], "s0", []))
    assert report.kinds() == {"events", "reachable"}
    assert report.violations[0] == Violation("events", ())
    assert str(report) == "events: none declared; reachable: s1"


def test_structural_errors_raise():
    with pytest.raises(ValueError):
        TransitionSystem(["s0"], ["a"], "s0", [("s0", "a", "sX")])
    with pytest.raises(ValueError):
        TransitionSystem(["s0", "s1"], ["a"], "s0", [("s0", "b", "s1")])
    with pytest.raises(ValueError):
        TransitionSystem(["s0"], ["a"], "missing", [])
    with pytest.raises(ValueError):
        TransitionSystem(
            ["s0", "s1"], ["a"], "s0", [("s0", "a", "s1"), ("s0", "a", "s1")]
        )


def test_classify_examples():
    assert classify(TransitionSystem.chain(["a"])) == TsClass(1, 1, True)
    # the cyclic accordance duplicator: every event once, degree two
    dup = TransitionSystem.from_edges(
        "d0",
        [
            ("d0", "k1", "d1"), ("d1", "v0", "d2"), ("d2", "k0", "d3"),
            ("d3", "v1", "d4"), ("d4", "w0", "d0"), ("d4", "k2", "d1"),
            ("d1", "a0", "d3"),
        ],
    )
    assert classify(dup) == TsClass(manifoldness=1, degree=2, linear=False)


def test_linear_word_of_refresher():
    word = ["o2", "k_3", "o3", "k_4", "o2", "k_5", "o3"]
    f1 = TransitionSystem.chain(word, prefix="f_1_")
    assert linear_word(f1) == word
    assert len(word) == len(f1.states) - 1


def test_linear_word_rejects_nonlinear():
    diamond = TransitionSystem.from_edges(
        "q0", [("q0", "a", "q1"), ("q0", "b", "q2")]
    )
    with pytest.raises(ValueError):
        linear_word(diamond)


@pytest.mark.parametrize("ts", linear3_corpus()[:20])
def test_linear_word_length(ts):
    assert len(linear_word(ts)) == len(ts.states) - 1


def test_classify_monotone_under_edge_deletion():
    """Deleting an edge, restricting to the reachable part, and dropping
    unused events never increases k or g."""
    rng = random.Random(5)
    for ts in small_ts_corpus():
        if len(ts.edges) < 2:
            continue
        before = classify(ts)
        drop = rng.randrange(len(ts.edges))
        edges = [e for i, e in enumerate(ts.edges) if i != drop]
        reached = {ts.initial}
        changed = True
        while changed:
            changed = False
            for src, _, dst in edges:
                if src in reached and dst not in reached:
                    reached.add(dst)
                    changed = True
        kept = [e for e in edges if e[0] in reached and e[2] in reached]
        if not kept:
            continue
        used = {e for _, e, _ in kept}
        sub = TransitionSystem(
            [s for s in ts.states if s in reached],
            [e for e in ts.events if e in used],
            ts.initial,
            kept,
        )
        after = classify(sub)
        assert after.manifoldness <= before.manifoldness
        assert after.degree <= before.degree


# -- .ts format -----------------------------------------------------------


def test_parse_minimal():
    ts = parse_ts(".ts\ninitial m0\nedge m0 k m1\n")
    assert ts.states == ("m0", "m1")
    assert ts.edges == (("m0", "k", "m1"),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ts("")
    with pytest.raises(ParseError):
        parse_ts("initial s0\n")  # missing header
    with pytest.raises(ParseError, match="line 3"):
        parse_ts(".ts\ninitial s0\ninitial s1\n")
    with pytest.raises(ParseError):
        parse_ts(".ts\nedge a b\n")
    with pytest.raises(ParseError):
        parse_ts(".ts\ninitial s0\nfrobnicate s0\n")
    with pytest.raises(ParseError):
        parse_ts(".ts\ninitial s$0\n")  # bad identifier
    with pytest.raises(ParseError):
        parse_ts(".ts\nedge s0 a s1\n")  # no initial at all


def test_comments_and_forced_events():
    text = ".ts\n# a comment\ninitial s0  # trailing\nevent ghost\nedge s0 a s1\n"
    ts = parse_ts(text)
    assert "ghost" in ts.events
    assert "reduced" in validate(ts).kinds()


def test_master_round_trip(master):
    assert parse_ts(serialize_ts(master)) == master


@pytest.mark.parametrize("ts", linear3_corpus()[::5])
def test_round_trip_corpus(ts):
    text = serialize_ts(ts)
    again = parse_ts(text)
    assert again == ts
    assert serialize_ts(again) == text


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8))
def test_round_trip_random_chains(word):
    ts = TransitionSystem.chain(list(word))
    assert parse_ts(serialize_ts(ts)) == ts


def test_round_trip_keeps_unused_event_position():
    ts = TransitionSystem(["s0", "s1", "s2"], ["x", "u", "y"], "s0",
                          [("s0", "x", "s1"), ("s1", "y", "s2")])
    assert parse_ts(serialize_ts(ts)).events == ("x", "u", "y")


@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 4),
       st.lists(st.integers(0, 8), max_size=3))
def test_round_trip_any_event_declaration_order(seed, n_states, n_events, unused):
    rng = random.Random(seed)
    ts = random_deterministic_ts(rng, n_states, n_events)
    events = list(ts.events)
    rng.shuffle(events)
    for k, pos in enumerate(unused):
        events.insert(pos % (len(events) + 1), f"u{k}")
    ts = TransitionSystem(ts.states, events, ts.initial, ts.edges)
    text = serialize_ts(ts)
    assert parse_ts(text) == ts
    assert serialize_ts(parse_ts(text)) == text


# A detached cycle beside the initial state, and a chain beside an isolated
# state: every degree is at most 1 and the initial state has no predecessor,
# yet neither system is one chain.
DETACHED_CYCLE = TransitionSystem(["a", "b", "c"], ["x", "y"], "a",
                                  [("b", "x", "c"), ("c", "y", "b")])
ISOLATED_STATE = TransitionSystem(["a", "b", "c"], ["x"], "a", [("a", "x", "b")])


@pytest.mark.parametrize("ts", [DETACHED_CYCLE, ISOLATED_STATE])
def test_classify_needs_one_chain_through_every_state(ts):
    assert not classify(ts).linear
    with pytest.raises(ValueError, match="requires a linear transition system"):
        linear_word(ts)


def test_classify_linear_shapes():
    assert classify(TransitionSystem(["s0"], ["a"], "s0", [])).linear
    reversed_chain = TransitionSystem(["s2", "s1", "s0"], ["a", "b"], "s0",
                                      [("s1", "b", "s2"), ("s0", "a", "s1")])
    assert classify(reversed_chain).linear
    assert linear_word(reversed_chain) == ["a", "b"]
    looped = TransitionSystem(["s0", "s1"], ["a", "b"], "s0",
                              [("s0", "a", "s1"), ("s1", "b", "s0")])
    assert not classify(looped).linear


def test_linear_chain_does_not_build_successors():
    ts = TransitionSystem.chain(["a", "b", "a"])
    assert linear_word(ts) == ["a", "b", "a"]
    assert ts._index is None


@pytest.mark.parametrize("ts", [
    ISOLATED_STATE,
    TransitionSystem(["a", "c", "b"], ["x", "y"], "a", [("a", "x", "b"), ("b", "y", "c")]),
])
def test_serialize_rejects_state_order_the_format_cannot_express(ts):
    with pytest.raises(ValueError, match="unserializable state order: 'c'"):
        serialize_ts(ts)


@pytest.mark.parametrize("ts, bad", [
    (TransitionSystem.from_edges("a b", [("a b", "x", "c")]), "a b"),  # 'initial a b'
    (TransitionSystem.chain(["x", "x#y"]), "x#y"),  # the rest of its line is a comment
    (TransitionSystem.chain(["x", ""]), ""),
    # both halves are identifiers
    (TransitionSystem.from_edges("a", [("a", "x", "c\nd")]), "c\nd"),
    # of two such names the first declared is named, states before events
    (TransitionSystem.from_edges("a", [("a", "x y", "c#d")]), "c#d"),
    (TransitionSystem.chain(["x y", "z#"]), "x y"),
])
def test_serialize_refuses_names_the_format_cannot_hold(ts, bad):
    """Such a text used to be written, and parse_ts refused it or read
    back another system."""
    with pytest.raises(ValueError, match=f"unserializable name {re.escape(repr(bad))}"):
        serialize_ts(ts)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda ts: pickle.loads(pickle.dumps(ts)),
])
def test_copy_and_pickle_rebuild_without_caches(clone):
    ts = TransitionSystem.chain(["a", "b", "a"])
    ts.successors("s0")
    second_occurrence_index(ts)
    again = clone(ts)
    assert again == ts and again is not ts
    assert (again.states, again.events, again.initial, again.edges) == (
        ts.states, ts.events, ts.initial, ts.edges)
    assert again._twofold is None and again._index is None


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_serialize_round_trips_exactly_the_first_use_state_order(seed, n_states):
    rng = random.Random(seed)
    ts = random_deterministic_ts(rng, n_states, 3)  # states in first-use order
    states = list(ts.states)
    rng.shuffle(states)
    shuffled = TransitionSystem(states, ts.events, ts.initial, ts.edges)
    if shuffled.states == ts.states:
        assert parse_ts(serialize_ts(shuffled)) == shuffled
    else:
        with pytest.raises(ValueError, match="unserializable state order"):
            serialize_ts(shuffled)


def test_initial_state_is_declared_first_wherever_its_line_stands():
    ts = parse_ts(".ts\nedge a x b\ninitial b\n")
    assert ts.states == ("b", "a")
    text = serialize_ts(ts)
    assert text == ".ts\ninitial b\nedge a x b\n"
    assert parse_ts(text) == ts
