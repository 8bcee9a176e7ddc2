import pytest
from hypothesis import given, settings, strategies as st

from ensynth.properties import has_essp, is_essp_witness, is_feasible
from ensynth.reductions import CubicMonotoneFormula, build_linear3_essp
from ensynth.regions import Region, enumerate_regions
from ensynth.synthesis import (
    ElementaryNetSystem,
    check_morphism,
    fire,
    language_equal,
    parse_ens,
    reachability_graph,
    serialize_ens,
    synthesize,
    ts_isomorphic,
)
from ensynth.ts import Edge, ParseError, TransitionSystem
from ensynth.unions import join

from corpus import PHI6, random_linear_ts, small_ts_corpus
from test_system_protocol import raw_component


def single_edge():
    return TransitionSystem.chain(["a"])


def test_synthesize_single_edge():
    ts = single_edge()
    regions = [Region.from_members(ts, ["s0"]), Region.from_members(ts, ["s1"])]
    net = synthesize(ts, regions)
    assert net.places == ("p0", "p1")
    assert net.flows == frozenset({("p0", "a"), ("a", "p1")})
    assert net.initial_marking == frozenset({"p0"})


def test_synthesize_empty_and_obeying():
    ts = single_edge()
    empty = synthesize(ts, [])
    assert empty.places == () and empty.initial_marking == frozenset()
    full = synthesize(ts, [Region.from_members(ts, ts.states)])
    assert full.flows == frozenset()  # all events obey the full-set region


def test_synthesize_rejects_foreign_regions():
    ts = single_edge()
    other = TransitionSystem.chain(["b"])
    with pytest.raises(ValueError):
        synthesize(ts, [Region.from_members(other, ["s0"])])


def test_fire():
    ts = single_edge()
    net = synthesize(
        ts, [Region.from_members(ts, ["s0"]), Region.from_members(ts, ["s1"])]
    )
    assert fire(net, frozenset({"p0"}), "a") == frozenset({"p1"})
    assert fire(net, frozenset({"p1"}), "a") is None
    lonely = ElementaryNetSystem(("p0",), ("e",), frozenset(), frozenset({"p0"}))
    assert fire(lonely, frozenset({"p0"}), "e") == frozenset({"p0"})
    with pytest.raises(ValueError):
        fire(net, frozenset(), "zap")


def test_reachability_graph_single_edge():
    ts = single_edge()
    net = synthesize(
        ts, [Region.from_members(ts, ["s0"]), Region.from_members(ts, ["s1"])]
    )
    result = reachability_graph(net)
    assert result.report.ok
    assert ts_isomorphic(result.ts, ts)
    assert result.markings["M0"] == frozenset({"p0"})


def test_reachability_graph_no_places_loops():
    net = ElementaryNetSystem((), ("a", "b"), frozenset(), frozenset())
    result = reachability_graph(net)
    assert len(result.ts.states) == 1
    assert len(result.ts.edges) == 2  # one self-loop per event
    assert "loop-free" in result.report.kinds()


def test_feasible_round_trip_corpus():
    for ts in small_ts_corpus():
        if len(ts.states) > 12:
            continue
        if not is_feasible(ts).holds:
            continue
        regions = enumerate_regions(ts)
        rg = reachability_graph(synthesize(ts, regions))
        assert ts_isomorphic(ts, rg.ts), ts
        assert check_morphism(ts, regions)
        assert language_equal(ts, rg.ts)


def test_reachable_markings_equal_state_images():
    for ts in small_ts_corpus():
        if len(ts.states) > 12:
            continue
        verdict = has_essp(ts)
        if not verdict.holds:
            continue
        regions = verdict.witnesses.regions
        rg = reachability_graph(synthesize(ts, regions))
        expected = {
            frozenset(f"p{i}" for i, r in enumerate(regions) if s in r)
            for s in ts.states
        }
        assert set(rg.markings.values()) == expected, ts


def test_essp_witness_gives_morphism_and_language():
    for ts in small_ts_corpus()[:10]:
        if len(ts.states) > 12:
            continue
        verdict = has_essp(ts)
        if not verdict.holds:
            continue
        regions = verdict.witnesses.regions
        assert check_morphism(ts, regions), ts
        rg = reachability_graph(synthesize(ts, regions))
        assert language_equal(ts, rg.ts), ts


def test_morphism_does_not_make_an_essp_witness():
    """The empty and the full region give every state the same marking, and
    a has no place, so the morphism holds; neither region inhibits a at s1."""
    ts = single_edge()
    regions = [Region.from_members(ts, []), Region.from_members(ts, ["s0", "s1"])]
    assert check_morphism(ts, regions)
    assert not is_essp_witness(ts, regions)


def test_morphism_fails_on_a_marking_no_state_has():
    """b fires at M(s0) = {p0, p1} too and reaches {p0}, which is no
    state's marking."""
    ts = TransitionSystem.chain(["a", "b"])
    regions = [Region.from_members(ts, ["s0"]), Region.from_members(ts, ["s0", "s1"])]
    assert frozenset({"p0"}) in reachability_graph(synthesize(ts, regions)).markings.values()
    assert not check_morphism(ts, regions)


def test_morphism_reads_its_regions_once():
    """An iterator of regions is answered like a list or a tuple of them,
    not read empty by a second pass after ``synthesize`` consumed it."""
    ts = TransitionSystem.chain(["a", "b"])
    regions = enumerate_regions(ts)
    assert check_morphism(ts, regions) and check_morphism(ts, tuple(regions))
    assert check_morphism(ts, iter(regions))


@settings(max_examples=300, deadline=None)
@given(raw_component("s", 6), st.data())
def test_every_edge_fires_between_the_markings_of_its_ends(ts, data):
    """The lemma ``check_morphism`` rests on: in the net of any regions,
    an edge s -e-> s' fires from the places holding s to exactly the
    places holding s', on self-loops, nondeterministic edges and
    unreachable states too."""
    regions = data.draw(st.lists(st.sampled_from(enumerate_regions(ts)), max_size=6))
    net = synthesize(ts, regions)
    marking = {s: frozenset(p for p, r in zip(net.places, regions) if s in r)
               for s in ts.states}
    for src, e, dst in ts.edges:
        assert fire(net, marking[src], e) == marking[dst]


def test_linear_essp_witness_forces_isomorphism():
    """For linear inputs an ESSP witness set already separates states, so
    the reachability graph cannot merge any."""
    import random

    rng = random.Random(7)
    found = 0
    while found < 40:
        ts = random_linear_ts(rng, 9, rng.randint(1, 4))
        verdict = has_essp(ts)
        if not verdict.holds:
            continue
        found += 1
        rg = reachability_graph(synthesize(ts, verdict.witnesses.regions))
        assert ts_isomorphic(ts, rg.ts), ts


def test_degenerate_witness_breaks_morphism():
    # abab has ESSP-witnessing impossible; with all regions the graph
    # folds states and the morphism check must reject arc mismatches.
    ts = TransitionSystem.chain(["a", "b", "a", "b"])
    regions = enumerate_regions(ts)
    rg = reachability_graph(synthesize(ts, regions))
    assert not ts_isomorphic(ts, rg.ts)


def test_ts_isomorphic_basics(master):
    assert ts_isomorphic(master, master)
    renamed = master.rename(lambda x: x + "x" if x in master.states else x)
    assert ts_isomorphic(master, renamed)
    assert not ts_isomorphic(master, TransitionSystem.chain(["a"]))
    bad = TransitionSystem.from_edges(
        "q0", [("q0", "a", "q1"), ("q0", "a", "q2")]
    )
    with pytest.raises(ValueError):
        ts_isomorphic(bad, bad)


def test_language_equal_basics():
    a = TransitionSystem.chain(["x", "y"])
    b = TransitionSystem.chain(["x", "y"], prefix="t")
    assert language_equal(a, b)
    assert not language_equal(a, TransitionSystem.chain(["x", "z"]))
    # equal language, different graph: a cycle vs its unrolling is *not*
    # language-equal because one side is finite
    loop = TransitionSystem.from_edges("c0", [("c0", "x", "c1"), ("c1", "x", "c0")])
    assert not language_equal(loop, TransitionSystem.chain(["x", "x"]))


def test_ens_format_round_trip():
    ts = TransitionSystem.chain(["a", "b"])
    net = synthesize(ts, enumerate_regions(ts))
    text = serialize_ens(net)
    again = parse_ens(text)
    assert again == net
    assert serialize_ens(again) == text


def test_parse_ens_errors():
    from ensynth.ts import ParseError

    with pytest.raises(ParseError):
        parse_ens("place p0\n")
    with pytest.raises(ParseError):
        parse_ens(".ens\nflow p0 -> t0\n")
    with pytest.raises(ParseError):
        parse_ens(".ens\nplace p0\ninitial qX\n")


# -- flows whose ends name both a place and a transition ------------------


@pytest.mark.parametrize("word", [["p0", "p1"], ["p1", "p0"], ["p0", "p1", "p2"]])
def test_ambiguous_synthesized_flow_is_refused(word):
    """Events named like places make a flow pair readable both ways; every
    reader of the net refuses it instead of building a wrong graph."""
    ts = TransitionSystem.chain(word)
    regions = is_feasible(ts).witnesses.regions
    net = synthesize(ts, regions)
    for read in (reachability_graph, serialize_ens, lambda n: fire(n, frozenset(), word[0]),
                 lambda n: n.inputs(word[0]), lambda _: check_morphism(ts, regions)):
        with pytest.raises(ValueError, match="ambiguous flow p"):
            read(net)


def test_ambiguous_ens_flow_is_a_parse_error():
    text = ".ens\nplace p0\nplace p1\ntransition p0\ntransition p1\nflow p0 -> p1\n"
    with pytest.raises(ParseError, match="line 6: ambiguous flow p0 -> p1"):
        parse_ens(text)
    # a later declaration can make an earlier flow ambiguous
    late = ".ens\nplace a\ntransition b\nflow a -> b\nplace b\ntransition a\n"
    with pytest.raises(ParseError, match="line 4: ambiguous flow a -> b"):
        parse_ens(late)


def test_clashing_but_unambiguous_names_are_read_the_one_way():
    ts = TransitionSystem.chain(["a", "p0", "b"])
    regions = is_feasible(ts).witnesses.regions
    net = synthesize(ts, regions)
    assert set(net.places) & set(net.transitions) == {"p0"}
    assert check_morphism(ts, regions)
    rg = reachability_graph(net)
    assert ts_isomorphic(ts, rg.ts) and language_equal(ts, rg.ts)
    assert parse_ens(serialize_ens(net)) == net
    # place x and transition x: (x, t) consumes, (x, q) produces
    net = ElementaryNetSystem(
        ("x", "q"), ("x", "t"), frozenset({("x", "t"), ("x", "q")}), frozenset({"x"}))
    assert net.inputs("t") == {"x"} and net.outputs("x") == {"q"}
    assert net.inputs("x") == net.outputs("t") == frozenset()
    assert fire(net, frozenset({"x"}), "t") == frozenset()
    assert fire(net, frozenset({"x"}), "x") == frozenset({"x", "q"})


def test_net_refuses_dangling_flows_and_undeclared_initial_places():
    """Such a net used to be read partly: serialize_ens dropped the flow
    and the marking, and reachability_graph kept the marking."""
    net = ElementaryNetSystem(
        ("p",), ("t",), frozenset({("p", "zz"), ("t", "p")}), frozenset({"q"}))
    for call in (serialize_ens, reachability_graph, lambda n: fire(n, frozenset(), "t"),
                 lambda n: n.inputs("t")):
        with pytest.raises(ValueError, match="flow p -> zz does not connect"):
            call(net)
    marked = ElementaryNetSystem(("p",), ("t",), frozenset({("t", "p")}), frozenset({"q"}))
    for call in (serialize_ens, reachability_graph):
        with pytest.raises(ValueError, match="initially marked place 'q' is not declared"):
            call(marked)


def test_net_refuses_a_place_or_transition_declared_twice():
    """Such a net used to be written with ``place p`` twice, which reads
    back as a net with one place p."""
    flows = frozenset({("p", "t")})
    for net, message in (
        (ElementaryNetSystem(("p", "p"), ("t",), flows, frozenset()), "place 'p'"),
        (ElementaryNetSystem(("p", "q"), ("t", "u", "t"), flows, frozenset()), "transition 't'"),
    ):
        for call in (serialize_ens, reachability_graph, lambda n: fire(n, frozenset(), "t"),
                     lambda n: n.inputs("t")):
            with pytest.raises(ValueError, match=f"{message} is declared more than once"):
                call(net)
    # in .ens text a repeated declaration is one declaration
    text = ".ens\nplace p\nplace p\ntransition t\nflow p -> t\n"
    assert parse_ens(text) == ElementaryNetSystem(("p",), ("t",), flows, frozenset())


@pytest.mark.parametrize("places, transitions, bad", [
    (("p0", "a b"), ("t",), "a b"),
    (("p0",), ("t", "x#y"), "x#y"),
    (("a b", "c#d"), ("t u",), "a b"),  # the first declared, places before transitions
])
def test_serialize_ens_refuses_names_it_cannot_write(places, transitions, bad):
    """Such a net used to be written as a text parse_ens refuses."""
    net = ElementaryNetSystem(places, transitions, frozenset(), frozenset())
    with pytest.raises(ValueError, match=f"unserializable name '{bad}'"):
        serialize_ens(net)


def test_net_index_is_not_part_of_equality_or_repr():
    ts = single_edge()
    net = synthesize(ts, enumerate_regions(ts))
    fresh = synthesize(ts, enumerate_regions(ts))
    reachability_graph(net)
    assert net._index is not None and fresh._index is None
    assert net == fresh and hash(net) == hash(fresh) and repr(net) == repr(fresh)
    assert "_index" not in repr(net)


# -- the flow-scan readers the net index replaced, kept as references -----


def scan_inputs(net, t):
    return frozenset(p for p, u in net.flows if u == t and p in net.places)


def scan_outputs(net, t):
    return frozenset(p for u, p in net.flows if u == t and p in net.places)


def scan_fire(net, marking, event):
    if event not in net.transitions:
        raise ValueError(f"unknown transition {event!r}")
    inputs, outputs = scan_inputs(net, event), scan_outputs(net, event)
    if not inputs <= marking or outputs & marking:
        return None
    return (marking - inputs) | outputs


def scan_reachability_graph(net, fire_one=scan_fire):
    """Tries every transition at every marking; with ``fire`` in place of
    the flow scan it is the loop that the candidate index replaced."""
    names = {net.initial_marking: "M0"}
    order = [net.initial_marking]
    edges: list[Edge] = []
    head = 0
    while head < len(order):
        marking = order[head]
        head += 1
        for e in net.transitions:
            nxt = fire_one(net, marking, e)
            if nxt is None:
                continue
            if nxt not in names:
                names[nxt] = f"M{len(names)}"
                order.append(nxt)
            edges.append((names[marking], e, names[nxt]))
    ts = TransitionSystem([names[m] for m in order], net.transitions, "M0", edges)
    return ts, {names[m]: m for m in order}


def scan_serialize_ens(net):
    out = [".ens"]
    out.extend(f"place {p}" for p in net.places)
    out.extend(f"transition {t}" for t in net.transitions)
    for p in net.places:
        for t in net.transitions:
            if (p, t) in net.flows:
                out.append(f"flow {p} -> {t}")
    for t in net.transitions:
        for p in net.places:
            if (t, p) in net.flows:
                out.append(f"flow {t} -> {p}")
    marked = [p for p in net.places if p in net.initial_marking]
    if marked:
        out.append("initial " + " ".join(marked))
    return "\n".join(out) + "\n"


@st.composite
def nets(draw):
    """A net of at most 6 places and 5 transitions whose names may clash
    (a name can be both a place and a transition) but whose flows all have
    exactly one reading."""
    names = ["p0", "p1", "p2", "a", "b", "x.1", "y-2", "q:3"]
    places = draw(st.lists(st.sampled_from(names), max_size=6, unique=True))
    transitions = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True))
    pairs = {(p, t) for p in places for t in transitions}
    pairs |= {(t, p) for t in transitions for p in places}
    clash = set(places) & set(transitions)
    readable = sorted((a, b) for a, b in pairs if not (a in clash and b in clash))
    flows = draw(st.sets(st.sampled_from(readable), max_size=12)) if readable else set()
    marked = draw(st.sets(st.sampled_from(places))) if places else set()
    return ElementaryNetSystem(
        tuple(places), tuple(transitions), frozenset(flows), frozenset(marked))


@settings(max_examples=200, deadline=None)
@given(nets())
def test_ens_round_trip(net):
    text = serialize_ens(net)
    assert parse_ens(text) == net
    assert serialize_ens(parse_ens(text)) == text


@settings(max_examples=200, deadline=None)
@given(nets())
def test_net_index_matches_the_flow_scan(net):
    assert serialize_ens(net) == scan_serialize_ens(net)
    rg = reachability_graph(net)
    ts, markings = scan_reachability_graph(net)
    assert rg.ts == ts and rg.ts.edges == ts.edges and rg.markings == markings
    for marking in markings.values():
        for t in net.transitions:
            assert net.inputs(t) == scan_inputs(net, t)
            assert net.outputs(t) == scan_outputs(net, t)
            assert fire(net, marking, t) == scan_fire(net, marking, t)


def test_net_index_matches_the_flow_scan_on_synthesized_nets():
    for ts in small_ts_corpus():
        if len(ts.states) > 12:
            continue
        net = synthesize(ts, enumerate_regions(ts))
        assert serialize_ens(net) == scan_serialize_ens(net)
        rg = reachability_graph(net)
        scanned, markings = scan_reachability_graph(net)
        assert rg.ts == scanned and rg.ts.edges == scanned.edges and rg.markings == markings


def test_reachability_graph_tries_every_enabled_transition_at_generated_size():
    """The joined linear3-essp instance of PHI6 and the net of its
    feasibility witnesses: each marking tries only the transitions indexed
    under its marked places, and the graph is the one that trying every
    transition gives."""
    instance = build_linear3_essp(CubicMonotoneFormula(PHI6))
    ts = join(instance.union, instance.join_plan)
    net = synthesize(ts, is_feasible(ts).witnesses.regions)
    assert (len(ts.states), len(net.places), len(net.transitions)) == (1023, 901, 491)
    rg = reachability_graph(net)
    everything, markings = scan_reachability_graph(net, fire)
    assert rg.ts == everything and rg.ts.edges == everything.edges and rg.markings == markings
    assert ts_isomorphic(ts, rg.ts)


def test_transitions_without_inputs_fire_in_declaration_order():
    """``idle`` has no flows and ``emit`` only an output; both are tried at
    every marking, between the transitions indexed under marked places."""
    net = ElementaryNetSystem(
        ("p", "q", "r"), ("t0", "idle", "t1", "emit", "t2"),
        frozenset({("p", "t0"), ("t0", "q"), ("q", "t1"), ("t1", "p"),
                   ("emit", "r"), ("r", "t2")}),
        frozenset({"p"}))
    rg = reachability_graph(net)
    assert rg.ts.edges == (
        ("M0", "t0", "M1"), ("M0", "idle", "M0"), ("M0", "emit", "M2"),
        ("M1", "idle", "M1"), ("M1", "t1", "M0"), ("M1", "emit", "M3"),
        ("M2", "t0", "M3"), ("M2", "idle", "M2"), ("M2", "t2", "M0"),
        ("M3", "idle", "M3"), ("M3", "t1", "M2"), ("M3", "t2", "M1"),
    )
    assert rg.markings == {"M0": {"p"}, "M1": {"q"}, "M2": {"p", "r"}, "M3": {"q", "r"}}
    assert (rg.ts, rg.markings) == scan_reachability_graph(net)
