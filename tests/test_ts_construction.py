"""Construction and parsing of transition systems: differential checks
against the per-edge constructor and the listing parser they replaced,
malformed edges, equality, name sharing and memory bounds."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from ensynth import ts as ts_module
from ensynth.ts import (
    ParseError,
    TransitionSystem,
    _content_lines,
    _indexed,
    _linear_chain,
    parse_ts,
    serialize_ts,
)

from corpus import random_deterministic_ts


# -- the per-edge constructor and the listing parser, kept as references ---


def reference_build(states, events, initial, edges):
    """(states, events, initial, edges) as the per-edge constructor
    validated them, or its first error."""
    states = tuple(states)
    events = tuple(events)
    edges = tuple(tuple(e) for e in edges)
    state_set = set(states)
    event_set = set(events)
    if len(state_set) != len(states):
        raise ValueError("duplicate state declaration")
    if len(event_set) != len(events):
        raise ValueError("duplicate event declaration")
    if not states:
        raise ValueError("a transition system needs at least one state")
    if initial not in state_set:
        raise ValueError(f"initial state {initial!r} is not a declared state")
    seen = set()
    for src, ev, dst in edges:
        if src not in state_set:
            raise ValueError(f"edge references undeclared state {src!r}")
        if dst not in state_set:
            raise ValueError(f"edge references undeclared state {dst!r}")
        if ev not in event_set:
            raise ValueError(f"edge references undeclared event {ev!r}")
        if (src, ev, dst) in seen:
            raise ValueError(f"duplicate edge {(src, ev, dst)!r}")
        seen.add((src, ev, dst))
    return states, events, initial, edges


def reference_from_edges(initial, edges, extra_events=()):
    edges = [tuple(e) for e in edges]
    states: dict[str, None] = {initial: None}
    events: dict[str, None] = {}
    for src, ev, dst in edges:
        states.setdefault(src, None)
        events.setdefault(ev, None)
        states.setdefault(dst, None)
    for ev in extra_events:
        events.setdefault(ev, None)
    return reference_build(states, events, initial, edges)


def reference_content_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def reference_parse(text):
    lines = list(reference_content_lines(text))
    if not lines:
        raise ParseError("empty input, expected a .ts header")
    header_no, header = lines[0]
    if header != ".ts":
        raise ParseError(f"expected '.ts' header, found {header!r}", header_no)

    def check(token, line):
        if not ts_module.IDENTIFIER.match(token):
            raise ParseError(f"invalid identifier {token!r}", line)
        return token

    initial = None
    states: dict[str, None] = {}
    events: dict[str, None] = {}
    edges = []
    for number, line in lines[1:]:
        fields = line.split()
        if fields[0] == "initial":
            if len(fields) != 2:
                raise ParseError("initial takes exactly one state", number)
            if initial is not None:
                raise ParseError("duplicate initial declaration", number)
            initial = check(fields[1], number)
        elif fields[0] == "event":
            if len(fields) != 2:
                raise ParseError("event takes exactly one name", number)
            events.setdefault(check(fields[1], number), None)
        elif fields[0] == "edge":
            if len(fields) != 4:
                raise ParseError("edge takes source, event, target", number)
            src, ev, dst = (check(f, number) for f in fields[1:])
            states.setdefault(src, None)
            events.setdefault(ev, None)
            states.setdefault(dst, None)
            edges.append((src, ev, dst))
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", number)
    if initial is None:
        raise ParseError("missing initial declaration")
    return reference_build({initial: None, **states}, events, initial, edges)


def outcome(fn, *args):
    """The four fields of the built system, or the error's type, message
    and line."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, TransitionSystem):
        result = (result.states, result.events, result.initial, result.edges)
    return result


# -- edge lists with injected faults --------------------------------------

FAULTS = ("source", "target", "event", "duplicate edge", "duplicate state",
          "duplicate event", "initial")


@st.composite
def faulty_definitions(draw):
    states = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    events = [f"e{i}" for i in range(draw(st.integers(1, 4)))]
    edge = st.tuples(st.sampled_from(states), st.sampled_from(events),
                     st.sampled_from(states))
    edges = draw(st.lists(edge, max_size=10, unique=True))
    initial = draw(st.sampled_from(states))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        if fault in ("source", "target", "event"):
            # A new edge, or one more bad field in an edge already there.
            at = draw(st.integers(0, len(edges)))
            src, ev, dst = edges[at] if at < len(edges) else draw(edge)
            bad = {"source": ("xs", ev, dst), "target": (src, ev, "xt"),
                   "event": (src, "y", dst)}[fault]
            edges[at:at + draw(st.integers(0, 1))] = [bad]
        elif fault == "duplicate edge" and edges:
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
        elif fault == "duplicate state":
            states.insert(draw(st.integers(0, len(states))), draw(st.sampled_from(states)))
        elif fault == "duplicate event":
            events.insert(draw(st.integers(0, len(events))), draw(st.sampled_from(events)))
        elif fault == "initial":
            initial = "x"
    return states, events, initial, edges


@given(faulty_definitions())
@example((["s0"], ["e0"], "s0", [("xs", "y", "xt")]))
@example((["s0"], ["e0"], "s0", [("s0", "y", "xt")]))
@example(([], ["e0"], "s0", []))
def test_constructor_matches_the_per_edge_reference(definition):
    expected = outcome(reference_build, *definition)
    assert outcome(TransitionSystem, *definition) == expected
    states, events, initial, edges = definition
    assert outcome(TransitionSystem, iter(states), events, initial, iter(edges)) == expected


@given(faulty_definitions(), st.lists(st.sampled_from(["e0", "u", "v"]), max_size=3))
def test_from_edges_matches_the_per_edge_reference(definition, extra):
    _, _, initial, edges = definition
    expected = outcome(reference_from_edges, initial, edges, extra)
    assert outcome(TransitionSystem.from_edges, initial, edges, extra) == expected


# -- malformed edges ------------------------------------------------------

MALFORMED = [
    ("s0", "a", "s1", "s2"),
    "axb",
    ("s0", "a"),
    (),
]


@pytest.mark.parametrize("bad", MALFORMED, ids=repr)
def test_malformed_edges_are_refused(bad):
    good = ("s0", "a", "s1")
    for build in (
        lambda: TransitionSystem(["s0", "s1", "a", "x", "b"], ["a", "x"], "s0", [good, bad]),
        lambda: TransitionSystem.from_edges("s0", [good, bad]),
    ):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == f"malformed edge {bad!r}"


def test_three_item_edges_of_any_kind_become_tuples():
    ts = TransitionSystem(["s0", "s1"], ["a"], "s0", [["s0", "a", "s1"]])
    assert ts.edges == (("s0", "a", "s1"),) and type(ts.edges[0]) is tuple
    assert TransitionSystem.from_edges("s0", [iter(["s0", "a", "s1"])]) == ts


# -- mutated .ts texts ----------------------------------------------------

BAD_TOKENS = ("s$0", "é", "a,b", "!")
DIRECTIVES = ("initial", "event", "edge")


@st.composite
def mutated_texts(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ts = random_deterministic_ts(rng, draw(st.integers(2, 6)), draw(st.integers(1, 3)))
    lines = serialize_ts(ts).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([
            "bad token", "field count", "duplicate initial", "drop line",
            "unknown directive", "comment", "blank", "trailing comment",
        ]))
        at = draw(st.integers(0, len(lines)))
        if kind == "bad token" and lines:
            k = min(at, len(lines) - 1)
            fields = lines[k].split()
            for f in draw(st.sets(st.integers(0, len(fields) - 1), min_size=1)):
                fields[f] = draw(st.sampled_from(BAD_TOKENS)) + str(f)
            lines[k] = " ".join(fields)
        elif kind == "field count":
            fields = [draw(st.sampled_from(DIRECTIVES))]
            fields += [f"q{i}" for i in range(draw(st.integers(0, 4)))]
            lines.insert(at, " ".join(fields))
        elif kind == "duplicate initial":
            lines.insert(at, f"initial {draw(st.sampled_from(ts.states))}")
        elif kind == "drop line" and lines:
            del lines[min(at, len(lines) - 1)]  # the header or initial line too
        elif kind == "unknown directive":
            lines.insert(at, "frobnicate q0")
        elif kind == "comment":
            lines.insert(at, "# " + draw(st.sampled_from(["edge q0 a q1", "", "initial x"])))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "trailing comment" and lines:
            lines[min(at, len(lines) - 1)] += "  # note"
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


# Every line boundary ``str.splitlines`` knows, among comment and blank pieces.
LINE_PIECES = ["a", "b", " ", "\t", "#", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85",
               "\u2028"]


@given(st.one_of(mutated_texts(), st.lists(st.sampled_from(LINE_PIECES), max_size=30).map("".join)))
@example(".ts\ninitial s0\nedge s$1 a$2 b$3\n")
@example(".ts\ninitial s0\nedge s0 a$2 b$3\n")
def test_parse_matches_the_listing_reference(text):
    assert list(_content_lines(text)) == list(reference_content_lines(text))
    assert outcome(parse_ts, text) == outcome(reference_parse, text)


# -- equality -------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
def test_systems_with_permuted_edges_stay_equal(seed):
    rng = random.Random(seed)
    ts = random_deterministic_ts(rng, rng.randint(2, 8), 3)
    edges = list(ts.edges)
    rng.shuffle(edges)
    permuted = TransitionSystem(ts.states, ts.events, ts.initial, edges)
    assert permuted == ts and hash(permuted) == hash(ts)
    if len(edges) > 1:
        fewer = TransitionSystem(ts.states, ts.events, ts.initial, edges[1:])
        assert fewer != ts


# -- chain recognition ----------------------------------------------------


def reference_linear_chain(ts):
    """(states, word) found by walking a step map from the initial state."""
    n = len(ts.states)
    if len(ts.edges) != n - 1:
        return None
    step = {edge[0]: edge for edge in ts.edges}
    state = ts.initial
    states, word = [state], []
    while state in step and len(states) < n:
        _, event, state = step[state]
        word.append(event)
        states.append(state)
    return (tuple(states), tuple(word)) if len(set(states)) == n else None


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["chain", "shuffled", "reversed", "moved initial", "retargeted",
                        "graph"]))
def test_linear_chain_matches_the_walk(seed, shape):
    rng = random.Random(seed)
    if shape == "graph":
        ts = random_deterministic_ts(rng, rng.randint(1, 6), 2)
    else:
        ts = TransitionSystem.chain([f"e{rng.randrange(3)}" for _ in range(rng.randint(0, 8))])
    states, edges = list(ts.states), list(ts.edges)
    if shape == "shuffled":
        rng.shuffle(edges)
    if shape == "reversed":
        states.reverse()
    if shape == "retargeted" and edges:
        k = rng.randrange(len(edges))
        edges[k] = (*edges[k][:2], rng.choice(states))
    initial = rng.choice(states) if shape == "moved initial" else ts.initial
    ts = TransitionSystem(states, ts.events, initial, edges)
    found = _linear_chain(ts)
    assert found == reference_linear_chain(ts)
    if found is not None and found[0] == ts.states:
        assert found[0] is ts.states


# -- sharing and memory on a 10^5-edge 2-fold chain -----------------------

N = 100_000
MB = 1 << 20


def two_fold_word(seed: int, n: int) -> list[str]:
    """A seeded word of length n in which a quarter of the positions hold an
    event that occurs once and the rest a shuffled event that occurs twice."""
    rng = random.Random(seed)
    pairs = (n - n // 4) // 2
    word = [f"u{k}" for k in range(n - 2 * pairs)]
    word += [f"d{k}" for k in range(pairs) for _ in range(2)]
    rng.shuffle(word)
    return word


@pytest.fixture(scope="module")
def word():
    return two_fold_word(7, N)


def traced(build):
    """(result, bytes kept, peak bytes) of ``build()``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - base, peak - base


def assert_names_shared(ts):
    states, edges = ts.states, ts.edges
    assert edges[0][0] is states[0]
    assert all(edges[k][2] is edges[k + 1][0] is states[k + 1] for k in range(len(edges) - 1))
    assert edges[-1][2] is states[-1]


def test_chain_makes_each_state_name_once(word):
    ts, kept, peak = traced(lambda: TransitionSystem.chain(word))
    assert_names_shared(ts)
    # 13.3 MB kept and a 21.7 MB peak: the constructor's checks hold at
    # most two sets at a time.  Names made twice and a set of rebuilt edge
    # tuples kept 18.7 MB and peaked at 42.4 MB.
    assert kept < 16 * MB and peak < 30 * MB


def test_parse_shares_each_identifier(word):
    text = serialize_ts(TransitionSystem.chain(word))
    ts, kept, peak = traced(lambda: parse_ts(text))
    assert_names_shared(ts)
    event_ids = set(map(id, ts.events))
    assert all(id(edge[1]) in event_ids for edge in ts.edges)
    # 16.6 MB kept and a 29.4 MB peak.  Listing the lines and storing
    # every name as often as it is written kept 24.0 MB and peaked at
    # 66.3 MB above the text.
    assert kept < 20 * MB and peak < 40 * MB


def test_parse_drops_its_name_table_before_building(word):
    text = serialize_ts(TransitionSystem.chain(word))
    _, _, peak = traced(lambda: parse_ts(text))
    # 29.2 MB; the table of 10^5 names, kept while the constructor runs,
    # would add 3.7 MB to the peak.
    assert peak < 31 * MB


def test_index_holds_no_per_state_maps(word):
    ts = TransitionSystem.chain(word)
    idx, kept, _ = traced(lambda: _indexed(ts))
    assert idx is ts._index
    # 36.3 MB kept, each edge once as a triple of positions; three edge
    # columns kept 31.8 MB, and a successor dict per state, which no sweep
    # read, made it 50.1 MB.
    assert kept < 40 * MB


def test_a_state_lists_each_of_its_edges_once():
    """A self-loop is listed once at its state, every other edge once at
    each end, so deciding a state meets each of its edges once."""
    ts = TransitionSystem(
        ["s0", "s1", "s2"], ["a", "b", "c"], "s0",
        [("s0", "a", "s1"), ("s1", "b", "s1"), ("s1", "c", "s2"), ("s2", "b", "s2")],
    )
    idx = _indexed(ts)
    assert idx.state_edges == [[0], [0, 1, 2], [2, 3]]


def test_in_order_chain_is_recognised_without_a_per_edge_map(word):
    ts = TransitionSystem.chain(word)
    (states, chain_word), kept, peak = traced(lambda: _linear_chain(ts))
    assert states is ts.states and list(chain_word) == word
    # The word and two transient columns of N pointers each, a 1.5 MB
    # peak; the step map of N edges it replaces peaked at 11.2 MB.
    assert peak < 3 * 8 * N + MB // 4
