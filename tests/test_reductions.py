import pytest
from hypothesis import given, settings, strategies as st

from ensynth.properties import has_essp, has_ssp, inhibitable, separable
from ensynth.reductions import (
    CubicMonotoneFormula,
    build_2grade2_essp,
    build_2grade2_ssp,
    build_key_region_2grade2,
    build_key_region_linear3,
    build_linear3_essp,
    build_linear3_ssp,
    find_one_in_three_models,
    is_one_in_three_model,
    parse_cnf3,
    serialize_cnf3,
)
from ensynth.regions import RegionConstraint, check_region, enumerate_regions, solve_all_regions
from ensynth.ts import TransitionSystem, classify, linear_word, validate
from ensynth.unions import join, make_union, serialize_union

from corpus import PHI4, PHI6

phi6 = CubicMonotoneFormula(PHI6)
phi4 = CubicMonotoneFormula(PHI4)
phi1 = CubicMonotoneFormula([(0, 1, 2)], check=False)


# -- formulas and the model oracle -----------------------------------------


def test_formula_validation():
    CubicMonotoneFormula(PHI6)
    with pytest.raises(ValueError):
        CubicMonotoneFormula([(0, 1, 2)])  # m=1 cannot be cubic
    with pytest.raises(ValueError):
        CubicMonotoneFormula([(0, 0, 1)])
    with pytest.raises(ValueError):
        CubicMonotoneFormula([(0, 1, 2)] * 4)  # duplicate clauses
    assert phi1.checked is False


def test_cnf3_round_trip():
    text = serialize_cnf3(phi6)
    assert parse_cnf3(text) == phi6
    assert serialize_cnf3(parse_cnf3(text)) == text


clause_lists = st.lists(st.lists(st.integers(0, 30), min_size=3, max_size=3, unique=True),
                        max_size=8)


@settings(max_examples=200, deadline=None)
@given(clause_lists)
def test_cnf3_round_trip_property(clauses):
    formula = CubicMonotoneFormula(clauses, check=False)
    text = serialize_cnf3(formula)
    assert parse_cnf3(text, check=False) == formula
    assert serialize_cnf3(parse_cnf3(text, check=False)) == text


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(6)), st.randoms(use_true_random=False))
def test_cnf3_round_trip_property_on_cubic_formulas(names, rng):
    """PHI6 with its variables renamed and its clauses and variables
    shuffled: the text is checked on the way back."""
    clauses = [[names[v] for v in clause] for clause in PHI6]
    rng.shuffle(clauses)
    for clause in clauses:
        rng.shuffle(clause)
    formula = CubicMonotoneFormula(clauses)
    text = serialize_cnf3(formula)
    assert parse_cnf3(text) == formula and serialize_cnf3(parse_cnf3(text)) == text


@settings(max_examples=200, deadline=None)
@given(clause_lists, st.randoms(use_true_random=False))
def test_cnf3_text_round_trip_property(clauses, rng):
    """Text with unsorted clauses, spacing, comments and blank lines reads
    as the formula its canonical text reads as."""
    lines = []
    for clause in clauses:
        lines.append("clause " + "  ".join(map(str, clause)) + rng.choice(["", "  # note"]))
        lines.extend(rng.choice([[], [""], ["# comment"]]))
    parsed = parse_cnf3("\n".join(lines), check=False)
    assert parsed == CubicMonotoneFormula(clauses, check=False)
    assert parse_cnf3(serialize_cnf3(parsed), check=False) == parsed


def test_model_oracle():
    # all four 3-subsets of {0..3}: every subset misses or doubles a clause
    assert find_one_in_three_models(phi4) == []
    models = find_one_in_three_models(phi6)
    assert frozenset({0, 4}) in models
    assert all(is_one_in_three_model(phi6, m) for m in models)
    assert find_one_in_three_models(CubicMonotoneFormula([])) == [frozenset()]
    too_wide = CubicMonotoneFormula([(0, 1, v) for v in range(2, 27)], check=False)
    with pytest.raises(ValueError, match="capped at 24 variables"):
        find_one_in_three_models(too_wide)


def test_model_oracle_covers_every_variable_that_occurs():
    """An unchecked formula may use variables at or past its clause count;
    the models still come ordered by ``sum(1 << v)``."""
    one = CubicMonotoneFormula([(0, 1, 2)], check=False)
    assert find_one_in_three_models(one) == [frozenset({0}), frozenset({1}), frozenset({2})]
    far = CubicMonotoneFormula([(3, 5, 9)], check=False)
    assert find_one_in_three_models(far) == [frozenset({3}), frozenset({5}), frozenset({9})]
    two = CubicMonotoneFormula([(0, 1, 2), (2, 3, 4)], check=False)
    assert find_one_in_three_models(two) == [
        frozenset({2}), frozenset({0, 3}), frozenset({1, 3}), frozenset({0, 4}), frozenset({1, 4}),
    ]


# -- linear 3-fold ESSP -----------------------------------------------------


def test_basic_union_shape():
    instance = build_linear3_essp(phi1)
    basic = make_union(instance.union.components[:13])
    assert len(basic.components) == 13
    assert len(basic.states) == 147  # 9 + 6*8 + 6*15


def test_key_region_of_basic_union_unique():
    instance = build_linear3_essp(phi1)
    basic = make_union(instance.union.components[:13])
    regions = solve_all_regions(
        basic, RegionConstraint(membership={"m6": 0}, signature={"k": -1})
    )
    assert len(regions) == 1
    region = regions[0]
    expected = {"m0", "m3", "m7"}
    for j in range(6):
        expected |= {f"f_{j}_{n}" for n in (1, 3, 5, 7)}
        expected |= {f"d_{j}_{n}" for n in (0, 3, 6, 7, 10, 13)}
    assert set(region.members) == expected
    assert all(region.sig(f"k_{i}") == -1 for i in range(18))


def test_translator_trichotomy():
    instance = build_linear3_essp(phi1)
    translator = make_union(instance.union.components[13:16])
    constraint = RegionConstraint(
        signature={f"k_{n}": -1 for n in (2, 5, 8, 11, 14, 17)}
    )
    regions = solve_all_regions(translator, constraint)
    base = {"t_0_0_0", "t_0_0_4", "t_0_1_0", "t_0_1_3", "t_0_2_0", "t_0_2_3"}
    expected = {
        frozenset(base),
        frozenset(base | {"t_0_0_2", "t_0_0_3"}),
        frozenset(base | {"t_0_0_3", "t_0_1_2", "t_0_2_2"}),
    }
    assert {frozenset(r.members) for r in regions} == expected


def test_linear3_essp_soundness():
    positive = build_linear3_essp(phi6)
    region = inhibitable(positive.union, *positive.key_query)
    assert region is not None
    decoded = {v for v in range(6) if region.signature.get(f"X{v}", 0) == 1}
    assert is_one_in_three_model(phi6, decoded)

    negative = build_linear3_essp(phi4)
    assert inhibitable(negative.union, *negative.key_query) is None


def test_key_region_construction_matches_solver():
    instance = build_linear3_essp(phi6)
    region = build_key_region_linear3(phi6, {0, 4}, union=instance.union)
    assert region.sig("k") == -1 and "m6" not in region
    solutions = solve_all_regions(
        instance.union,
        RegionConstraint(membership={"m6": 0}, signature={"k": -1}),
    )
    assert any(r.mask == region.mask for r in solutions)
    # one solution per model
    assert len(solutions) == len(find_one_in_three_models(phi6))
    with pytest.raises(ValueError):
        build_key_region_linear3(phi6, {0, 1}, union=instance.union)
    # the other model, {0, 5}, puts its variable third in clauses 3-5
    third = build_key_region_linear3(phi6, {0, 5}, union=instance.union)
    assert third != region and any(r.mask == third.mask for r in solutions)


def test_translator_template_b_extends_c():
    region_b = build_key_region_linear3(phi6, {0, 4})
    # clause 3 = (1,4,5): model variable 4 sits in the middle, i.e. the
    # b-template, which adds the three inner states to the c-template
    for state in ("t_3_0_3", "t_3_1_2", "t_3_2_2"):
        assert state in region_b


def test_linear3_essp_joined_class():
    instance = build_linear3_essp(phi6)
    joined = join(instance.union, instance.join_plan)
    assert validate(joined).ok
    cls = classify(joined)
    assert (cls.manifoldness, cls.degree, cls.linear) == (3, 1, True)
    word = linear_word(joined)
    assert word[:8] == ["k", "z0", "o0", "k", "h", "z0", "v1", "k"]


def test_generated_instances_reproducible():
    a = build_linear3_essp(phi6)
    b = build_linear3_essp(phi6)
    assert serialize_union(a.union, a.join_plan) == serialize_union(b.union, b.join_plan)
    g1 = build_2grade2_essp(phi4)
    g2 = build_2grade2_essp(phi4)
    assert serialize_union(g1.union, g1.join_plan) == serialize_union(g2.union, g2.join_plan)


# -- linear 3-ESSP to linear 3-SSP ------------------------------------------


def test_single_edge_query_union_shape():
    ts = TransitionSystem.chain(["a"])
    instance = build_linear3_ssp(ts)
    assert len(instance.union.components) == 8  # M, D0..D4, P, C
    assert instance.key_pairs == (("a:s1:m0", "a:s1:m1"),)
    copy = instance.union.components[-1]
    assert linear_word(copy) == ["a:s1:a.1", "a:s1:h1", "a:s1:h2"]
    assert copy.states == ("a:s1:s0", "a:s1:s1", "a:s1:p", "a:s1:s1+")


def test_key_region_structure():
    """The seven structural facts about a region separating the key states."""
    ts = TransitionSystem.chain(["a", "b"])
    instance = build_linear3_ssp(ts)
    union = instance.union
    for key0, key1 in instance.key_pairs:
        region = separable(union, key0, key1)
        assert region is not None
        tag = key0.rsplit(":", 1)[0] + ":"
        event, state = key0.split(":")[0], key0.split(":")[1]
        members = {s[len(tag):] for s in region.members if s.startswith(tag)}
        # 1. mapper fragment
        assert members & {f"m{n}" for n in range(6)} == {"m0", "m2", "m4"}
        # 2. duplicator fragments
        for j in range(5):
            dj = {s for s in members if s.startswith(f"d_{j}_")}
            assert dj == {f"d_{j}_{n}" for n in (1, 3, 5, 7, 8, 10, 12)}
        # 3. provider fragment
        assert members & {f"p{n}" for n in range(8)} == {"p0", "p2", "p5", "p7"}
        sig = {
            e[len(tag):]: v for e, v in region.signature.items()
            if e.startswith(tag)
        }
        # 4. the event and all its copies exit
        assert sig[event] == -1
        assert all(sig[f"{event}.{n}"] == -1 for n in range(10))
        # 5. all vices enter; 6. helpers split
        assert all(sig[f"v{n}"] == 1 for n in range(12))
        assert sig["h1"] == 1 and sig["h2"] == -1
        # 7. the restriction to the input is a region inhibiting e at s
        inner = {s for s in members if s in ts.states}
        inner_sig = check_region(ts, inner)
        assert inner_sig is not None
        assert inner_sig[event] == -1 and state not in inner


def test_linear3_ssp_equivalence_small():
    for word in (["a"], ["a", "b"], ["a", "a", "a"], ["a", "b", "a", "b"],
                 ["a", "b", "a"], ["a", "a", "b"]):
        ts = TransitionSystem.chain(word)
        instance = build_linear3_ssp(ts)
        joined = join(instance.union, instance.join_plan)
        assert validate(joined).ok
        cls = classify(joined)
        assert cls.linear and cls.manifoldness <= 3
        assert has_essp(ts).holds == has_ssp(joined).holds, word


def test_linear3_ssp_key_pair_pinpoints_failure():
    ts = TransitionSystem.chain(["a", "a", "a"])  # ESSP fails
    instance = build_linear3_ssp(ts)
    failing = [
        (k0, k1)
        for k0, k1 in instance.key_pairs
        if separable(instance.union, k0, k1) is None
    ]
    assert failing
    for k0, _ in failing:
        event, state = k0.split(":")[0], k0.split(":")[1]
        assert inhibitable(ts, event, state) is None


def test_linear3_ssp_name_freshening():
    # the input reuses gadget names; the construction must keep them apart
    ts = TransitionSystem.from_edges(
        "m0", [("m0", "v0", "m1"), ("m1", "h1", "p")]
    )
    instance = build_linear3_ssp(ts)
    joined = join(instance.union, instance.join_plan)
    assert validate(joined).ok
    assert has_essp(ts).holds == has_ssp(joined).holds


def test_linear3_ssp_keeps_tags_with_a_colon_apart():
    """The tags ("x:y", "z") and ("x", "y:z") name one query each; their
    rectified sub-unions share no state, and the instance still decides
    the input's ESSP."""
    ts = TransitionSystem(["s0", "y:z", "z"], ["x", "x:y"], "s0",
                          [("s0", "x", "y:z"), ("y:z", "x:y", "z")])
    assert classify(ts).linear and classify(ts).manifoldness == 1
    instance = build_linear3_ssp(ts)
    assert len(instance.key_pairs) == 4
    assert len(set(instance.union.states)) == len(instance.union.states)
    joined = join(instance.union, instance.join_plan)
    assert has_essp(ts).holds == has_ssp(joined).holds


def test_linear3_ssp_numbers_occurrences_in_chain_order():
    """Equal inputs give the same instance: the free copies of the queried
    event follow the chain, not the order the edges are listed in."""
    ts = TransitionSystem.chain(list("abacab"))
    reversed_edges = TransitionSystem(ts.states, ts.events, ts.initial, ts.edges[::-1])
    assert ts == reversed_edges
    forwards, backwards = build_linear3_ssp(ts), build_linear3_ssp(reversed_edges)
    assert serialize_union(forwards.union) == serialize_union(backwards.union)
    assert forwards.key_pairs == backwards.key_pairs


# -- 2-grade 2-fold ESSP -----------------------------------------------------


def test_2grade2_shape():
    m = phi6.m
    instance = build_2grade2_essp(phi6)
    union = instance.union
    assert len(union.components) == 1 + 14 * m + 4 * m + m + 3 * m
    assert classify(union).manifoldness == 2
    assert instance.key_query == ("k", "h_0_8")
    # the published terminal choices
    terminals = instance.join_plan.terminals
    assert terminals[0] == "h_0_8"
    assert terminals[1] == "d_0_0"
    assert terminals[1 + 14 * m] == "b_0_1"
    assert terminals[1 + 18 * m] == "x_0_5"
    assert terminals[1 + 19 * m: 1 + 19 * m + 3] == ("t_0_0_5", "t_0_1_4", "t_0_2_4")
    joined = join(instance.union, instance.join_plan)
    report = validate(joined)
    assert report.ok
    assert classify(joined).manifoldness == 2
    # successor degree stays at two; the accordance chain gives h_{j,8}
    # three predecessors, which classify reports honestly
    out = {}
    for src, _, _ in joined.edges:
        out[src] = out.get(src, 0) + 1
    assert max(out.values()) == 2


def test_2grade2_refuses_a_variable_not_in_three_clauses():
    """The scaffolding formulas that linear3-essp builds from are refused
    by name, not by an unpacking error inside a manifolder."""
    with pytest.raises(ValueError, match=r"exactly three clauses; X0 occurs in 1$"):
        build_2grade2_essp(phi1)
    uneven = CubicMonotoneFormula([(0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 2, 3)], check=False)
    with pytest.raises(ValueError, match=r"exactly three clauses; X0 occurs in 4$"):
        build_2grade2_essp(uneven)
    assert build_linear3_essp(phi1).union.components


def test_2grade2_soundness():
    positive = build_2grade2_essp(phi6)
    region = inhibitable(positive.union, *positive.key_query)
    assert region is not None
    # item: all key copies exit
    assert all(region.sig(f"k_{n}") == -1 for n in range(42 * phi6.m - 2))
    # item: barter fragments keep the consistency events obeying
    for q in range(4 * phi6.m):
        assert f"b_{q}_0" in region and f"b_{q}_2" in region
        assert region.sig(f"c{q}") == 0
    # item: headmaster fragment
    for j in range(14 * phi6.m):
        hj = {s for s in region.members if s.startswith(f"h_{j}_")}
        assert hj == {f"h_{j}_0", f"h_{j}_4"}
    # item: duplicator fragments
    for j in range(14 * phi6.m):
        dj = {s for s in region.members if s.startswith(f"d_{j}_")}
        assert dj == {f"d_{j}_0", f"d_{j}_2", f"d_{j}_4"}
    # manifolder halves stay internally equal
    for i in range(phi6.m):
        top = {f"x_{i}_{n}" in region for n in (0, 1, 2)}
        bottom = {f"x_{i}_{n}" in region for n in (3, 4, 5)}
        assert len(top) == 1 and len(bottom) == 1
    # item: representer events of one variable share their signature
    for i in range(phi6.m):
        sigs = {
            region.sig(f"X.{alpha}.{i}") for alpha in phi6.clauses_of(i)
        }
        assert len(sigs) == 1
    decoded = {
        i
        for i in range(phi6.m)
        if region.sig(f"X.{phi6.clauses_of(i)[0]}.{i}") == 1
    }
    assert is_one_in_three_model(phi6, decoded)

    negative = build_2grade2_essp(phi4)
    assert inhibitable(negative.union, *negative.key_query) is None


def test_2grade2_key_region_construction():
    instance = build_2grade2_essp(phi6)
    region = build_key_region_2grade2(phi6, {0, 4}, union=instance.union)
    assert region.sig("k") == -1 and "h_0_8" not in region
    solutions = solve_all_regions(
        instance.union,
        RegionConstraint(membership={"h_0_8": 0}, signature={"k": -1}),
    )
    assert any(r.mask == region.mask for r in solutions)
    assert build_key_region_2grade2(phi6, {0, 4}).mask == region.mask
    with pytest.raises(ValueError):
        build_key_region_2grade2(phi6, set(), union=instance.union)


def test_barters_use_free_key_copies():
    """Every key copy occurs at most twice across the whole union."""
    instance = build_2grade2_essp(phi6)
    counts = {}
    for _, ev, _ in instance.union.edges:
        counts[ev] = counts.get(ev, 0) + 1
    assert max(counts.values()) == 2
    # translators take subscripts 2 mod 3 below 18m, barters the rest
    m = phi6.m
    for q in range(4 * m):
        q1 = 18 * m + 6 * q + 2
        assert counts[f"k_{q1}"] == 2 and counts[f"k_{q1 + 3}"] == 2


# -- linear 3-fold SSP to 2-grade 2-fold SSP ---------------------------------


def test_2grade2_ssp_identity_without_triples():
    ts = TransitionSystem.chain(["a", "b"])
    instance = build_2grade2_ssp(ts)
    assert len(instance.union.components) == 1
    assert instance.union.components[0] == ts


def test_2grade2_ssp_master_shape(master):
    instance = build_2grade2_ssp(master)
    assert len(instance.union.components) == 2  # modification + one duplicator
    modified = instance.union.components[0]
    word = linear_word(modified)
    assert word == ["k.0", "z0", "o0", "k.1", "h", "z0", "v1", "k.2"]
    joined = join(instance.union, instance.join_plan)
    assert validate(joined).ok
    cls = classify(joined)
    assert cls.manifoldness == 2 and cls.degree == 2


def test_2grade2_ssp_accordance_coupling():
    for word in (["a", "a", "a"], ["a", "a", "a", "b"], ["a", "b", "a", "b"]):
        ts = TransitionSystem.chain(word)
        instance = build_2grade2_ssp(ts)
        if len(instance.union.states) > 14:
            continue
        triples = [e for e in ts.events
                   if sum(1 for _, ev, _ in ts.edges if ev == e) == 3]
        for region in enumerate_regions(instance.union):
            for e in triples:
                values = {region.sig(f"{e}.{n}") for n in range(3)}
                assert len(values) == 1


def test_2grade2_ssp_equivalence_small(master):
    words = [["a"], ["a", "a", "a"], ["a", "b", "a", "b"], ["a", "b", "c"],
             ["a", "a", "a", "b"], ["a", "b", "a", "c", "b"]]
    for word in words:
        ts = TransitionSystem.chain(word)
        instance = build_2grade2_ssp(ts)
        assert has_ssp(ts).holds == has_ssp(instance.union).holds, word
    instance = build_2grade2_ssp(master)
    assert has_ssp(master).holds == has_ssp(instance.union).holds
