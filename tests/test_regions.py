import pytest
from hypothesis import given, settings, strategies as st

from ensynth.regions import (
    Region,
    RegionConstraint,
    aggregate_signature,
    check_region,
    enumerate_regions,
    format_region,
    solve_all_regions,
    solve_region,
)
from ensynth.ts import TransitionSystem
from ensynth.unions import make_union

from corpus import reversed_declaration, small_ts_corpus

R_M = ["m0", "m3", "m7"]


def test_check_region_master(master):
    sig = check_region(master, R_M)
    assert sig == {"k": -1, "z0": 0, "o0": 1, "h": 0, "v1": 1}


def test_full_state_set_is_region(master):
    assert check_region(master, master.states) == {e: 0 for e in master.events}
    assert check_region(master, []) == {e: 0 for e in master.events}


def test_check_region_rejects_inconsistent(master):
    # k would need -1 on m0 -> m1 but 0 on m3 -> m4
    assert check_region(master, ["m0"]) is None


def test_complement(master):
    full = Region.from_members(master, master.states)
    empty = full.complement()
    assert empty.members == ()
    assert all(v == 0 for v in empty.signature.values())

    r = Region.from_members(master, R_M)
    c = r.complement()
    assert set(c.members) == {"m1", "m2", "m4", "m5", "m6", "m8"}
    assert c.sig("k") == 1
    assert c.complement() == r


def test_writing_to_a_signature_changes_no_region(master):
    """Each read of ``signature`` used to hand out the region's own copy."""
    region = Region.from_members(master, R_M)
    text = format_region(region)
    region.signature["o0"] = 0
    assert region.sig("o0") == 1 and region.signature["o0"] == 1
    assert format_region(region) == text
    with pytest.raises(KeyError):
        region.sig("unknown")


def test_complement_involution_over_enumeration():
    for ts in small_ts_corpus()[:8]:
        for r in enumerate_regions(ts):
            c = r.complement()
            assert check_region(ts, c.members) == c.signature
            assert c.complement() == r


def test_enumerate_single_edge():
    ts = TransitionSystem.chain(["a"])
    regions = enumerate_regions(ts)
    assert sorted(r.members for r in regions) == [
        (), ("s0",), ("s0", "s1"), ("s1",)
    ]


def test_enumerate_double_occurrence_chain():
    # mixed memberships would force two different values on sig(a)
    ts = TransitionSystem.chain(["a", "a"])
    regions = enumerate_regions(ts)
    assert len(regions) == 2
    assert sorted(r.members for r in regions) == [(), ("s0", "s1", "s2")]


def test_enumerate_cap():
    big = TransitionSystem.chain(["e"] * 25)
    with pytest.raises(ValueError):
        enumerate_regions(big)


def test_solver_matches_enumeration(master):
    brute = {r.mask for r in enumerate_regions(master)}
    solved = {r.mask for r in solve_all_regions(master)}
    assert brute == solved


def test_solver_matches_enumeration_corpus():
    for ts in small_ts_corpus():
        if len(ts.states) > 14:
            continue
        brute = {r.mask for r in enumerate_regions(ts)}
        solved = {r.mask for r in solve_all_regions(ts)}
        assert brute == solved, ts


def test_solve_region_master_key(master):
    constraint = RegionConstraint(membership={"m6": 0}, signature={"k": -1})
    regions = solve_all_regions(master, constraint)
    assert len(regions) == 1
    assert set(regions[0].members) == set(R_M)


def test_malformed_constraint_rejected():
    with pytest.raises(ValueError):
        RegionConstraint(signature=[("e", 1), ("e", -1)])
    with pytest.raises(ValueError):
        RegionConstraint(membership=[("s", 0), ("s", 1)])
    with pytest.raises(ValueError):
        RegionConstraint(signature={"e": 2})


def test_unknown_constraint_names(master):
    with pytest.raises(KeyError):
        solve_region(master, RegionConstraint(membership={"nope": 1}))
    with pytest.raises(KeyError):
        solve_region(master, RegionConstraint(signature={"nope": -1}))


def test_solver_completeness_on_queries():
    """solve_region(sig(e)=-1, R(s)=0) agrees with brute enumeration, and
    the result is present exactly when the +1/1 polarity is (complement)."""
    for ts in small_ts_corpus():
        if len(ts.states) > 12:
            continue
        regions = enumerate_regions(ts)
        for e in ts.events:
            for s in ts.states:
                want = any(
                    r.signature[e] == -1 and s not in r for r in regions
                )
                got = solve_region(
                    ts, RegionConstraint(membership={s: 0}, signature={e: -1})
                )
                assert (got is not None) == want
                other = solve_region(
                    ts, RegionConstraint(membership={s: 1}, signature={e: 1})
                )
                assert (other is not None) == want


def test_solve_all_limit(master):
    assert len(solve_all_regions(master, limit=3)) == 3
    assert len(solve_all_regions(master, limit=None)) == 30


def test_solve_all_limit_zero_and_negative():
    ts = TransitionSystem.chain(["a", "b", "a"])
    every = solve_all_regions(ts)
    assert len(every) == 6
    for limit in range(7):
        assert solve_all_regions(ts, limit=limit) == every[:limit]
    with pytest.raises(ValueError, match="limit"):
        solve_all_regions(ts, limit=-1)


def test_solutions_deterministic(master):
    a = [r.mask for r in solve_all_regions(master)]
    b = [r.mask for r in solve_all_regions(master)]
    assert a == b


def test_aggregate_signature(master):
    region = Region.from_members(master, R_M)
    assert aggregate_signature(region, master, 0, 8) == -1
    # adjacent states over an obeying edge (z0 at position 1 -> 2)
    assert aggregate_signature(region, master, 1, 2) == 0
    full = Region.from_members(master, master.states)
    assert aggregate_signature(full, master, 2, 7) == 0
    with pytest.raises(IndexError):
        aggregate_signature(region, master, 3, 3)
    with pytest.raises(IndexError):
        aggregate_signature(region, master, 0, 9)


def test_aggregate_signature_is_signature_sum(master):
    region = Region.from_members(master, R_M)
    word = ["k", "z0", "o0", "k", "h", "z0", "v1", "k"]
    for i in range(8):
        for j in range(i + 1, 9):
            total = sum(region.sig(e) for e in word[i:j])
            assert aggregate_signature(region, master, i, j) == total


def test_aggregate_signature_refuses_a_region_of_another_system():
    """Such a region used to give a number, or KeyError on other names."""
    region = Region.from_members(TransitionSystem.chain(["a", "b", "c"]), ["s0"])
    for ts in (TransitionSystem.chain(["a", "a", "b"]),
               TransitionSystem.chain(["a", "b", "c"], prefix="t")):
        with pytest.raises(ValueError, match="region does not belong to the checked system"):
            aggregate_signature(region, ts, 0, 2)
    assert aggregate_signature(region, TransitionSystem.chain(["a", "b", "c"]), 0, 2) == -1


def test_format_region(master):
    region = Region.from_members(master, R_M)
    text = format_region(region)
    assert text == "region: {m0, m3, m7}\nsig: k=-1, o0=+1, v1=+1"
    empty = Region.from_members(master, [])
    assert format_region(empty) == "region: {}\nsig:"


def test_region_from_members_rejects_non_region(master):
    with pytest.raises(ValueError):
        Region.from_members(master, ["m0"])


@pytest.mark.parametrize("shape", ["ts", "union", "reversed"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_from_members_mask_is_the_sum_of_member_bits(shape, data):
    """The mask built from state names is the sum of the member bits, on a
    TS, a union and a chain declared out of order, for sparse and dense
    member sets alike.  Every event occurs once, so every state set is a
    region."""
    n = data.draw(st.integers(1, 160), label="edges")
    ts = TransitionSystem.chain([f"e{k}" for k in range(n)])
    sys = {
        "ts": ts,
        "union": make_union([ts, TransitionSystem.chain([f"f{k}" for k in range(n)], "t")]),
        "reversed": reversed_declaration(ts),
    }[shape]
    size = data.draw(st.integers(0, len(sys.states)), label="size")
    members = set(data.draw(st.permutations(sys.states), label="order")[:size])
    state_pos = {s: k for k, s in enumerate(sys.states)}
    region = Region.from_members(sys, members)
    assert region.mask == sum(1 << state_pos[s] for s in members)
    assert region.members == tuple(sorted(members, key=state_pos.__getitem__))


@pytest.mark.parametrize("mask", [-1, 1 << 4, 1 << 10])
def test_region_refuses_a_mask_outside_the_system(mask):
    """A negative mask read as members s0 and s1 yet held s2, and a bit
    beyond the four states made an empty region unequal to the empty
    region; the mask of all four states is a region."""
    ts = TransitionSystem.chain(["a", "b", "a"])
    with pytest.raises(ValueError, match="not a set of the system's states"):
        Region(ts, mask)
    assert Region(ts, (1 << 4) - 1).members == ts.states


def test_restrict_projects_onto_component(master):
    from ensynth.unions import make_union

    other = TransitionSystem.chain(["w"], prefix="x")
    union = make_union([master, other])
    region = Region.from_members(union, ["m0", "m3", "m7", "x0"])
    part = region.restrict(master)
    assert part.system is master
    assert set(part.members) == {"m0", "m3", "m7"}
    assert part.sig("k") == -1


def test_solve_region_refuses_a_plain_mapping():
    ts = TransitionSystem.chain(["a"])
    with pytest.raises(TypeError, match="expected a RegionConstraint or None"):
        solve_region(ts, {"s0": 1})


def test_constraint_repr():
    constraint = RegionConstraint({"s0": 1}, {"a": -1})
    assert repr(constraint) == "RegionConstraint(membership={'s0': 1}, signature={'a': -1})"
