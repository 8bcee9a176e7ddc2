import copy
import pickle
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from ensynth.properties import has_essp, has_ssp, is_feasible
from ensynth.regions import Region, aggregate_signature, check_region, enumerate_regions
from ensynth.ts import IDENTIFIER, ParseError, TransitionSystem, classify, linear_word, validate
from ensynth.unions import (
    JoinPlan,
    TsUnion,
    default_join_plan,
    join,
    lift_region,
    make_union,
    original_name,
    parse_union,
    rectified_name,
    rectify,
    serialize_union,
)

from corpus import random_deterministic_ts, random_linear_ts, reversed_declaration


def chain(word, prefix="s"):
    return TransitionSystem.chain(word, prefix=prefix)


def test_monadic_union_behaves_like_its_component(master):
    union = make_union([master])
    assert union.states == master.states
    assert has_ssp(union).holds == has_ssp(master).holds
    assert join(union) is master


def test_flattening():
    a, b, c = chain(["x"], "a"), chain(["y"], "b"), chain(["z"], "c")
    nested = make_union([make_union([a, b]), c])
    assert nested.components == (a, b, c)
    assert nested == make_union([a, b, c])


def test_state_clash_reported():
    a = chain(["x"], "s")
    b = chain(["y"], "s")
    with pytest.raises(ValueError, match="s0"):
        make_union([a, b])


def test_shared_events_accumulate():
    a = chain(["x", "y"], "a")
    b = chain(["x"], "b")
    union = make_union([a, b])
    assert classify(union).manifoldness == 2
    assert union.events == ("x", "y")


def test_join_two_single_edges():
    union = make_union([chain(["x"], "a"), chain(["y"], "b")])
    joined = join(union)
    assert validate(joined).ok
    assert classify(joined).linear
    assert len(joined.states) == 5
    assert [e for _, e, _ in joined.edges] == ["x", "y1.1", "y2.1", "y"]
    assert "z.1" in joined.states


def test_join_single_component_is_identity(master):
    assert join(make_union([master])) is master


def test_join_requires_terminals_for_nonlinear():
    cyc = TransitionSystem.from_edges(
        "c0", [("c0", "x", "c1"), ("c1", "y", "c0")]
    )
    union = make_union([cyc, chain(["z"], "b")])
    with pytest.raises(ValueError):
        join(union)
    joined = join(union, JoinPlan(("c1", None)))
    assert validate(joined).ok


def test_join_refuses_a_plan_that_does_not_fit():
    union = make_union([chain(["x"], "a"), chain(["y"], "b")])
    with pytest.raises(ValueError, match="join plan does not match the number of components"):
        join(union, JoinPlan(("a1",)))
    with pytest.raises(ValueError, match="terminal 'b1' is not a state of component 0"):
        join(union, JoinPlan(("b1", None)))


def test_a_union_needs_a_component():
    with pytest.raises(ValueError, match="a union needs at least one component"):
        TsUnion([])


def test_join_connector_freshness():
    bad = chain(["x"], "z.")  # states z.0, z.1 clash with the connector namespace
    union = make_union([chain(["w"], "a"), bad])
    with pytest.raises(ValueError, match="z.1"):
        join(union)


def test_join_preserves_admissibility():
    rng = random.Random(31)
    for _ in range(30):
        comps = [
            random_linear_ts(rng, 4, 3).rename(lambda x, i=i: f"c{i}.{x}")
            for i in range(rng.randint(1, 3))
        ]
        union = make_union(comps)
        assert validate(join(union)).ok


def test_join_preserves_separation_and_feasibility():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        comps = [
            random_linear_ts(rng, 4, rng.randint(1, 3)).rename(
                lambda x, i=i: f"c{i}.{x}"
            )
            for i in range(rng.randint(1, 3))
        ]
        union = make_union(comps)
        joined = join(union)
        assert has_ssp(union).holds == has_ssp(joined).holds
        assert is_feasible(union).holds == is_feasible(joined).holds
        checked += 1


def test_lift_region_zero_extension():
    base = chain(["x"], "a")
    union = make_union([base])
    region = Region.from_members(union, ["a0"])  # sig(x) = -1
    extra = chain(["u", "w"], "b")  # no constrained events
    lifted = lift_region(union, region, [extra])
    assert set(lifted.members) == {"a0"}
    assert lifted.sig("x") == -1


def test_lift_region_entering_suffix():
    base = chain(["e"], "a")
    union = make_union([base])
    region = Region.from_members(union, ["a1"])  # sig(e) = +1
    extra = chain(["u", "e", "w"], "b")  # one e-edge at position 1
    lifted = lift_region(union, region, [extra])
    # membership on the extra component: states from the target of the
    # e-edge onward
    assert set(lifted.members) == {"a1", "b2", "b3"}


def test_lift_region_exit_prefix():
    base = chain(["e"], "a")
    union = make_union([base])
    region = Region.from_members(union, ["a0"])  # sig(e) = -1
    extra = chain(["u", "e", "w"], "b")
    lifted = lift_region(union, region, [extra])
    assert set(lifted.members) == {"a0", "b0", "b1"}
    assert check_region(lifted.system, lifted.members) is not None


def test_lift_region_refuses_two_constrained_edges():
    base = chain(["e"], "a")
    union = make_union([base])
    region = Region.from_members(union, ["a0"])
    extra = chain(["e", "u", "e"], "b")
    with pytest.raises(ValueError):
        lift_region(union, region, [extra])


def test_lift_region_refuses_a_non_linear_extra():
    union = make_union([chain(["e"], "a")])
    region = Region.from_members(union, ["a0"])
    cycle = TransitionSystem.from_edges("c0", [("c0", "x", "c1"), ("c1", "y", "c0")])
    with pytest.raises(ValueError, match="region lifting requires linear extra components"):
        lift_region(union, region, [cycle])


def test_lift_region_validates_against_check(master):
    union = make_union([master])
    region = Region.from_members(union, ["m0", "m3", "m7"])
    extras = [chain(["k", "w"], "x"), chain(["h"], "y"), chain(["q1", "q2"], "z")]
    lifted = lift_region(union, region, extras)
    assert check_region(lifted.system, lifted.members) is not None
    assert lifted.sig("k") == -1
    # k exits, so the first extra contributes its prefix up to the k-edge
    assert "x0" in lifted and "x1" not in lifted


def test_rectify_round_trip():
    union = make_union([chain(["x", "y"], "a"), chain(["x"], "b")])
    renamed = rectify(union, ("e", "s"))
    assert renamed.states[0] == "e:s:a0"
    stripped = TsUnion(
        tuple(c.rename(original_name) for c in renamed.components)
    )
    assert stripped == union


def test_rectify_region_bijection():
    union = make_union([chain(["x", "y", "x"], "a")])
    renamed = rectify(union, ("e", "s"))
    original = {frozenset(r.members) for r in enumerate_regions(union)}
    mapped = {
        frozenset(original_name(s) for s in r.members)
        for r in enumerate_regions(renamed)
    }
    assert original == mapped


def test_rectified_unions_disjoint():
    union = make_union([chain(["x"], "a")])
    one = rectify(union, ("e", "s1"))
    two = rectify(union, ("e", "s2"))
    both = make_union([one, two])  # no state clash
    assert len(both.states) == 4
    assert set(one.events).isdisjoint(two.events)


def test_a_colon_in_a_tag_part_cannot_shift_the_prefix():
    """The tags ("x:y", "z") and ("x", "y:z") once both gave the prefix
    "x:y:z:", and ``original_name`` split a tag part's ":" off the name."""
    assert rectified_name(("x:y", "z"), "m0") != rectified_name(("x", "y:z"), "m0")
    assert original_name(rectified_name(("a:b", "s"), "m0")) == "m0"
    assert rectified_name(("e", "s0"), "x:y") == "e:s0:x:y"  # the name is not escaped


identifiers = st.text("ab:-.", min_size=1, max_size=6)


def unescape(part):
    return re.sub(r"-([-.])", lambda m: "-" if m[1] == "-" else ":", part)


@settings(max_examples=300, deadline=None)
@given(st.tuples(identifiers, identifiers), st.tuples(identifiers, identifiers),
       identifiers, identifiers)
@example(("a:", "s"), ("a-.", "s"), "m", "m")
def test_rectified_names_are_injective(tag, tag2, name, name2):
    """``original_name`` inverts ``rectified_name``, the tag can be read
    back from the prefix, so distinct tags never give one name, and the
    escape keeps a tag without ":" or "-"."""
    rectified = rectified_name(tag, name)
    assert IDENTIFIER.match(rectified)
    assert original_name(rectified) == name
    event, state, _ = rectified.split(":", 2)
    assert (unescape(event), unescape(state)) == tag
    if tag != tag2:
        assert rectified != rectified_name(tag2, name2)
    if not set(tag[0] + tag[1]) & set(":-"):
        assert rectified == f"{tag[0]}:{tag[1]}:{name}"


# -- .union format ---------------------------------------------------------


def test_union_format_round_trip():
    union = make_union([chain(["x", "y"], "a"), chain(["x"], "b")])
    plan = default_join_plan(union)
    text = serialize_union(union, plan, names=["A", "B"])
    parsed, parsed_plan, names = parse_union(text)
    assert parsed == union
    assert parsed_plan == plan
    assert names == ["A", "B"]
    assert serialize_union(parsed, parsed_plan, names) == text


def test_union_format_refuses_plans_it_cannot_write():
    """A plan naming no terminal used to be written as no plan at all."""
    union = make_union([chain(["x", "y"], "a"), chain(["x"], "b")])
    with pytest.raises(ValueError, match="names no terminal"):
        serialize_union(union, JoinPlan((None, None)))
    with pytest.raises(ValueError, match="number of components"):
        serialize_union(union, JoinPlan(("a2",)))
    text = serialize_union(union, JoinPlan((None, "b1")))
    assert parse_union(text)[1] == JoinPlan((None, "b1"))


def test_union_format_refuses_names_it_cannot_write():
    """A state named ``b 0`` used to be written as ``initial b 0``."""
    union = make_union([chain(["x", "y"], "a"), chain(["x"], "b ")])
    with pytest.raises(ValueError, match="unserializable name 'b 0'"):
        serialize_union(union)
    # of two such names the first declared is named: by component, and
    # within one, states before events
    for union, bad in ((make_union([chain(["x y"], "a"), chain(["x"], "b ")]), "x y"),
                       (make_union([chain(["x"], "a"), chain(["y z"], "b ")]), "b 0")):
        with pytest.raises(ValueError, match=f"unserializable name '{bad}'"):
            serialize_union(union)



@pytest.mark.parametrize("names, message", [
    (["A"], "component names do not match the number of components"),
    (["A", "B", "C"], "component names do not match the number of components"),
    (["A", "A"], "duplicate component name 'A'"),
    (["a b", "B"], "unserializable component name 'a b'"),
    (["A", "a#b"], "unserializable component name 'a#b'"),
    (["", "B"], "unserializable component name ''"),
])
def test_union_format_refuses_component_names_it_cannot_write(names, message):
    """Too few names used to drop components, a repeated one to be refused
    only on reading, and ``a b`` and ``a#b`` to read back as a file
    reference and as ``a``."""
    union = make_union([chain(["x", "y"], "a"), chain(["x"], "b")])
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_union(union, names=names)


def test_union_format_round_trips_a_path_like_component_name():
    union = make_union([chain(["x", "y"], "a"), chain(["x"], "b")])
    plan = default_join_plan(union)
    text = serialize_union(union, plan, names=["a/b", "B"])
    assert parse_union(text) == (union, plan, ["a/b", "B"])


def test_union_format_refuses_a_second_terminal_for_a_component():
    """The second line used to replace the first one silently."""
    text = (".union\ncomponent A\ninitial a\nedge a x b\nend\n"
            "terminal A b\nterminal A a\n")
    with pytest.raises(ParseError, match=r"line 7: duplicate terminal for component 'A'"):
        parse_union(text)

@st.composite
def unions_with_plans(draw):
    """One to three components in first-use state order (some declare
    unused events), distinct names, and a plan naming some terminals."""
    components = []
    for c in range(draw(st.integers(1, 3))):
        grown = random_deterministic_ts(
            random.Random(draw(st.integers(0, 10**6))),
            draw(st.integers(1, 6)), draw(st.integers(1, 4)))
        unused = draw(st.lists(st.sampled_from(["e0", "e3", "u", "v"]), max_size=2))
        components.append(TransitionSystem.from_edges(
            f"c{c}.{grown.initial}",
            [(f"c{c}.{a}", e, f"c{c}.{b}") for a, e, b in grown.edges], unused))
    names = draw(st.lists(st.sampled_from(["A", "B", "C", "left", "x.1", "q:3"]),
                          min_size=len(components), max_size=len(components), unique=True))
    terminals = tuple(draw(st.one_of(st.none(), st.sampled_from(comp.states)))
                      for comp in components)
    plan = None if all(t is None for t in terminals) else JoinPlan(terminals)
    return TsUnion(components), plan, names


@settings(max_examples=200, deadline=None)
@given(unions_with_plans())
def test_union_format_round_trip_property(case):
    union, plan, names = case
    text = serialize_union(union, plan, names)
    assert parse_union(text) == (union, plan, names)
    assert serialize_union(*parse_union(text)) == text


def test_union_format_file_reference(tmp_path):
    inner = ".ts\ninitial q0\nedge q0 w q1\n"
    (tmp_path / "inner.ts").write_text(inner)
    text = ".union\ncomponent A\ninitial s0\nedge s0 x s1\nend\ncomponent B inner.ts\n"
    union, plan, names = parse_union(
        text, loader=lambda ref: (tmp_path / ref).read_text()
    )
    assert names == ["A", "B"]
    assert union.components[1].states == ("q0", "q1")
    assert plan is None
    with pytest.raises(ParseError, match="line 6: no loader for component file references"):
        parse_union(text)


def test_union_regions_match_enumeration():
    """Shared events couple the components: the solver must agree with
    brute force on unions, not just single systems."""
    import random

    from ensynth.regions import enumerate_regions, solve_all_regions

    rng = random.Random(3)
    checked = 0
    while checked < 40:
        # states get a component prefix, events stay shared across parts
        comps = [
            random_linear_ts(rng, 4, 3).rename(
                lambda x, i=i: f"c{i}.{x}" if x.startswith("s") else x
            )
            for i in range(rng.randint(2, 3))
        ]
        union = make_union(comps)
        if len(union.states) > 13:
            continue
        checked += 1
        brute = {r.mask for r in enumerate_regions(union)}
        solved = {r.mask for r in solve_all_regions(union)}
        assert brute == solved


def test_lift_region_and_join_plan_follow_the_chain_not_the_declaration():
    base = chain(["e"], "a")
    union = make_union([base])
    for members in (["a0"], ["a1"]):
        region = Region.from_members(union, members)
        extra = chain(["u", "e", "w"], "b")
        lifted = lift_region(union, region, [extra])
        again = lift_region(union, region, [reversed_declaration(extra)])
        assert set(again.members) == set(lifted.members)
    backwards = make_union([reversed_declaration(chain(["u", "v"], "b")), base])
    assert default_join_plan(backwards).terminals == ("b2", "a1")


def test_default_join_plan_leaves_non_chains_open():
    isolated = TransitionSystem(["b0", "b1", "b2"], ["x"], "b0", [("b0", "x", "b1")])
    assert default_join_plan(make_union([isolated, chain(["e"], "a")])).terminals == (None, "a1")


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda u: pickle.loads(pickle.dumps(u)),
])
def test_union_copy_and_pickle_rebuild_without_index(clone):
    union = make_union([chain(["a", "b"], "p"), chain(["b"], "q")])
    verdict = has_ssp(union)  # fills the index
    again = clone(union)
    assert again == union and again is not union
    assert again.states == union.states and again.edges == union.edges
    assert again.component_of == union.component_of
    assert again._index is None
    assert has_ssp(again).holds == verdict.holds


def test_ts_only_helpers_see_a_union_as_not_linear():
    """A union has no initial state, so it is never a chain."""
    union = make_union([chain(["x"], prefix="a"), chain(["y"], prefix="b")])
    cls = classify(union)
    assert (cls.manifoldness, cls.degree, cls.linear) == (1, 1, False)
    with pytest.raises(ValueError, match="linear_word requires a linear"):
        linear_word(union)
    with pytest.raises(ValueError, match="aggregate_signature requires a linear"):
        aggregate_signature(Region.from_members(union, ["a1"]), union, 0, 1)
