import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ensynth
from ensynth import cli, properties
from ensynth.linear2 import linear2_ssp
from ensynth.properties import (
    SeparationQuery,
    TimeoutExceeded,
    WitnessMap,
    _Deadline,
    has_essp,
    has_ssp,
    inhibitable,
    is_essp_witness,
    is_feasible,
    is_ssp_witness,
    separable,
)
from ensynth.regions import Region, RegionConstraint, enumerate_regions, solve_region
from ensynth.synthesis import synthesize
from ensynth.ts import TransitionSystem, parse_ts, serialize_ts
from ensynth.unions import TsUnion, lift_region, make_union

from conftest import brute_essp, brute_feasible, brute_ssp
from corpus import random_linear_ts, small_ts_corpus


def test_separable_master(master):
    region = separable(master, "m0", "m1")
    assert region is not None and "m0" in region and "m1" not in region


def test_separable_absent_abab():
    # any region has R(s4) - R(s0) = 2(sig a + sig b), hence even, hence 0
    abab = TransitionSystem.chain(["a", "b", "a", "b"])
    assert separable(abab, "s0", "s4") is None
    regions = enumerate_regions(abab)
    assert all(("s0" in r) == ("s4" in r) for r in regions)


def test_separable_same_state_rejected(master):
    with pytest.raises(ValueError):
        separable(master, "m0", "m0")


def test_inhibitable_examples():
    ts = TransitionSystem.chain(["a", "b"])
    region = inhibitable(ts, "a", "s2")
    assert region is not None
    assert region.sig("a") == -1 and "s2" not in region
    with pytest.raises(ValueError):
        inhibitable(ts, "a", "s0")  # vacuous: s0 has an outgoing a-edge


def test_single_edge_feasible():
    verdict = is_feasible(TransitionSystem.chain(["a"]))
    assert verdict.holds
    ssp = verdict.witnesses[SeparationQuery.states("s0", "s1")]
    assert ("s0" in ssp) != ("s1" in ssp)
    essp = verdict.witnesses[SeparationQuery.event_state("a", "s1")]
    v = essp.sig("a")
    assert (v == -1 and "s1" not in essp) or (v == 1 and "s1" in essp)


def test_abab_ssp_counterexample():
    verdict = has_ssp(TransitionSystem.chain(["a", "b", "a", "b"]))
    assert not verdict.holds
    q = verdict.counterexample
    assert q.kind == "ssp"
    # the reported pair really is non-separable
    assert separable(TransitionSystem.chain(["a", "b", "a", "b"]), q.a, q.b) is None


def test_deciders_agree_with_brute_force():
    for ts in small_ts_corpus():
        if len(ts.states) > 14:
            continue
        assert has_ssp(ts).holds == brute_ssp(ts), ts
        assert has_essp(ts).holds == brute_essp(ts), ts
        assert is_feasible(ts).holds == brute_feasible(ts), ts


def test_witness_maps_answer_every_query():
    ts = TransitionSystem.chain(["a", "b", "c"])
    verdict = is_feasible(ts)
    assert verdict.holds
    queries = list(verdict.witnesses)
    assert len(verdict.witnesses) == len(queries)
    for q in queries:
        region = verdict.witnesses[q]
        if q.kind == "ssp":
            assert (q.a in region) != (q.b in region)
        else:
            v = region.sig(q.a)
            assert (v == -1 and q.b not in region) or (v == 1 and q.b in region)


def test_witness_map_reads_entering_regions_and_misses_with_key_error():
    ts = TransitionSystem.chain(["a", "b"])
    entering = Region.from_members(ts, ["s1", "s2"])  # a enters it
    witnesses = WitnessMap(ts, ("essp",), [entering])
    assert witnesses[SeparationQuery.event_state("a", "s1")] is entering
    verdict = is_feasible(TransitionSystem.chain(["a", "a"]))
    with pytest.raises(KeyError):
        verdict.witnesses[verdict.counterexample]


def test_witness_maps_list_only_the_queries_of_kinds_that_held():
    """A failing sweep's kind has no keys, so every listed query maps to a
    region, and a query of another kind, or no query, is no key."""
    ts = TransitionSystem.from_edges(
        "s0", [("s0", "a", "s3"), ("s3", "c", "s2"), ("s2", "a", "s1"), ("s2", "b", "s0")])
    abab = TransitionSystem.chain(list("abab"))
    for verdict in (has_ssp(abab), is_feasible(abab), has_essp(ts), is_feasible(ts)):
        assert not verdict.holds
        assert len(dict(verdict.witnesses)) == len(verdict.witnesses)
    feasible = is_feasible(ts)
    assert feasible.counterexample == SeparationQuery.event_state("b", "s1")
    assert len(feasible.witnesses) == 6
    assert {q.kind for q in feasible.witnesses} == {"ssp"}
    holding = has_essp(TransitionSystem.chain(["a", "b"]))
    assert holding.holds
    assert SeparationQuery.states("s0", "s1") not in holding.witnesses
    assert "x" not in holding.witnesses


def test_witness_maps_answer_only_the_ssp_pairs_they_list():
    """An SSP pair is a key only as the sweep lists it: two states of one
    component, in index order.  Its reverse, a pair across components and
    a pair with an unknown state are no keys, though a region may separate
    the first two."""
    chain = has_ssp(TransitionSystem.chain(["a", "b"]))
    assert SeparationQuery.states("s0", "s1") in chain.witnesses
    assert SeparationQuery.states("s1", "s0") not in chain.witnesses
    assert SeparationQuery.states("s0", "x") not in chain.witnesses
    union = TsUnion([TransitionSystem.chain(["a"], "p"), TransitionSystem.chain(["b"], "q")])
    verdict = is_feasible(union)
    assert verdict.holds
    assert SeparationQuery.states("p0", "q1") not in verdict.witnesses
    assert all(q in verdict.witnesses for q in verdict.witnesses)
    assert {q for q in verdict.witnesses if q.kind == "ssp"} == {
        SeparationQuery.states("p0", "p1"), SeparationQuery.states("q0", "q1")}


@pytest.mark.parametrize("decide", [has_ssp, has_essp, is_feasible])
def test_deciders_refuse_a_nan_timeout(decide):
    """No clock reading exceeds nan, so such a check would run unbounded."""
    with pytest.raises(ValueError, match="nan"):
        decide(TransitionSystem.chain(["a", "b"]), timeout=float("nan"))


def test_essp_exhaustive_mode():
    ts = TransitionSystem.chain(["a", "a", "a"])
    first = has_essp(ts)
    every = has_essp(ts, exhaustive=True)
    assert not first.holds and not every.holds
    assert len(first.failures) == 1
    assert set(every.failures) >= set(first.failures)
    for q in every.failures:
        assert inhibitable(ts, q.a, q.b) is None


def test_linear_essp_witness_is_ssp_witness():
    """For linear systems, any ESSP witness set also witnesses the SSP."""
    rng = random.Random(99)
    found = 0
    while found < 60:
        ts = random_linear_ts(rng, 11, rng.randint(1, 5))
        verdict = has_essp(ts)
        if not verdict.holds:
            continue
        found += 1
        assert is_ssp_witness(ts, verdict.witnesses.regions), ts


def test_witness_set_checks():
    ts = TransitionSystem.chain(["a", "b"])
    regions = enumerate_regions(ts)
    assert is_ssp_witness(ts, regions)
    assert is_essp_witness(ts, regions)
    assert not is_ssp_witness(ts, [])
    other = TransitionSystem.chain(["x"])
    with pytest.raises(ValueError):
        is_ssp_witness(ts, enumerate_regions(other))
    with pytest.raises(ValueError):
        is_essp_witness(ts, ["not a region"])


def test_witness_checks_refuse_a_mask_that_is_not_a_region():
    twice = TransitionSystem.chain(["a", "a"])
    not_a_region = Region(twice, 0b010)  # a would both enter and exit {s1}
    for check in (is_ssp_witness, is_essp_witness):
        with pytest.raises(ValueError, match="not a region"):
            check(twice, [not_a_region])


def test_an_equal_system_is_compared_once_per_call(master, monkeypatch):
    regions = list(is_feasible(master).witnesses.regions)
    assert len(regions) > 2
    checked, other_copy = parse_ts(serialize_ts(master)), parse_ts(serialize_ts(master))
    moved = [Region(other_copy, r.mask) for r in regions]
    calls = []
    for cls in (TransitionSystem, TsUnion):
        eq = cls.__eq__
        monkeypatch.setattr(
            cls, "__eq__", lambda a, b, cls=cls, eq=eq: calls.append(cls) or eq(a, b))
    checks = (
        is_ssp_witness, is_essp_witness, synthesize,
        lambda sys_obj, rs: has_essp(sys_obj, seed_regions=rs),
    )
    for check in checks:
        for witnesses, systems in ((regions, 1), (regions + moved, 2)):
            calls.clear()
            check(checked, witnesses)
            assert len(calls) <= systems
        with pytest.raises(ValueError):
            check(checked, enumerate_regions(TransitionSystem.chain(["x"])))
    union = make_union([TransitionSystem.chain(["e"], prefix="a")])
    equal = make_union([TransitionSystem.chain(["e"], prefix="a")])
    extra = TransitionSystem.chain(["u", "e", "w"], prefix="b")
    calls.clear()
    lifted = lift_region(union, Region.from_members(equal, ["a0"]), [extra])
    # Comparing the unions compares their components too.
    assert calls.count(TsUnion) <= 1 and set(lifted.members) == {"a0", "b0", "b1"}
    with pytest.raises(ValueError):
        lift_region(union, Region.from_members(make_union([extra]), ["b0"]), [extra])


def test_union_pairs_skip_components():
    a = TransitionSystem.chain(["x", "x"], prefix="a")
    b = TransitionSystem.chain(["y", "y"], prefix="b")
    union = make_union([a, b])
    with pytest.raises(ValueError):
        separable(union, "a0", "b0")
    verdict = has_ssp(union)
    # a0/a2 (and b0/b2) are the genuinely inseparable pairs
    assert not verdict.holds
    q = verdict.counterexample
    assert union.component_of[q.a] == union.component_of[q.b]


def test_union_essp_covers_all_components():
    a = TransitionSystem.chain(["x"], prefix="a")
    b = TransitionSystem.chain(["y"], prefix="b")
    union = make_union([a, b])
    verdict = has_essp(union)
    assert verdict.holds
    # x must be inhibited at b-states as well
    region = verdict.witnesses[SeparationQuery.event_state("x", "b0")]
    v = region.sig("x")
    assert (v == -1 and "b0" not in region) or (v == 1 and "b0" in region)


def test_hierarchy_reinterpretation_preserves_witnesses(master):
    """Witness regions do not depend on the class the TS is viewed in:
    the same membership stays a valid witness after relabeling checks."""
    verdict = is_feasible(master)
    assert verdict.holds
    for region in verdict.witnesses.regions:
        assert Region.from_members(master, region.members) == region


def test_timeout_raises():
    from ensynth.properties import TimeoutExceeded

    big = TransitionSystem.chain([f"e{i % 7}" for i in range(60)])
    with pytest.raises(TimeoutExceeded):
        has_ssp(big, timeout=0.0)


class _CountingDeadline:
    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1


def test_timeout_bounds_a_single_solve(master):
    constraint = RegionConstraint(membership={"m0": 1, "m4": 0})
    counting = _CountingDeadline()
    assert solve_region(master, constraint, deadline=counting) is not None
    assert counting.checks > 0  # the solve branches
    expired = _Deadline(None)
    expired.at = time.monotonic() - 1.0
    with pytest.raises(TimeoutExceeded):
        solve_region(master, constraint, deadline=expired)


def test_unused_event_cannot_be_inhibited():
    ts = parse_ts(".ts\ninitial s0\nevent ghost\nedge s0 a s1\n")
    assert solve_region(ts, RegionConstraint(signature={"ghost": -1})) is None
    verdict = has_essp(ts, timeout=10)
    assert not verdict.holds and not brute_essp(ts)
    assert verdict.counterexample == SeparationQuery.event_state("ghost", "s0")


NOT_A_REGION_SEED = """
from ensynth.properties import has_essp
from ensynth.regions import Region
from ensynth.ts import TransitionSystem

ts = TransitionSystem.chain(["a", "b", "a"])
for call in (lambda: has_essp(ts, seed_regions=[Region(ts, 0b0010)]),
             lambda: Region(ts, 0b0010).signature):
    try:
        call()
    except ValueError as exc:
        print("ValueError:", exc)
"""


def test_has_essp_refuses_a_seed_that_is_not_a_region():
    """a enters {s1} on its first edge and obeys it on its second."""
    ts = TransitionSystem.chain(["a", "b", "a"])
    with pytest.raises(ValueError, match="membership set is not a region"):
        has_essp(ts, seed_regions=[Region(ts, 0b0010)])
    with pytest.raises(ValueError, match="membership set is not a region"):
        Region(ts, 0b0010).signature


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_region_seed_is_refused_with_and_without_asserts(flags):
    src = str(Path(ensynth.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *flags, "-c", NOT_A_REGION_SEED],
        capture_output=True, text=True, timeout=60, cwd=src,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ValueError: membership set is not a region of the system\n" * 2


def _deciders():
    """Each decider with an input on which it holds and one on which it fails."""
    abab = TransitionSystem.chain(["a", "b", "a", "b"])
    abba = TransitionSystem.chain(["a", "b", "b", "a"])
    ab = TransitionSystem.chain(["a", "b"])
    return [
        (has_ssp, ab, abab),
        (has_essp, ab, abba),
        (lambda ts: has_essp(ts, exhaustive=True), ab, abba),
        (is_feasible, ab, abab),
        (is_feasible, ab, abba),
        (linear2_ssp, ab, abab),
    ]


@pytest.mark.parametrize("decide, good, bad", _deciders())
def test_holds_and_counterexample_derive_from_failures(decide, good, bad):
    for ts, expected in ((good, True), (bad, False)):
        verdict = decide(ts)
        assert verdict.holds is expected
        assert verdict.holds == (not verdict.failures)
        assert verdict.counterexample == (
            verdict.failures[0] if verdict.failures else None)


def test_a_seed_that_is_not_a_region_is_refused(master):
    with pytest.raises(ValueError, match="witness sets contain Region values"):
        has_essp(master, seed_regions=[object()])


def test_checks_call_the_deciders_through_module_globals(master, tmp_path, monkeypatch):
    """A rebound ``cli.has_ssp``, ``cli.has_essp``, ``cli.is_feasible`` and
    ``properties.solve_region`` is the one that runs: the benchmark's
    tracer counts calls by rebinding these names."""
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("has_ssp", "has_essp", "is_feasible"):
        counting(cli, name)
    counting(properties, "solve_region")
    path = tmp_path / "master.ts"
    path.write_text(serialize_ts(master))
    for command in ("check-ssp", "check-essp", "check-feasible"):
        assert cli.run([command, str(path)]) == 0
    assert {k: calls[k] for k in ("has_ssp", "has_essp", "is_feasible")} == {
        "has_ssp": 1, "has_essp": 1, "is_feasible": 1}
    assert calls["solve_region"] > 0


def _recorded_deadlines(monkeypatch) -> list:
    """Every ``_Deadline`` the deciders make from now on, in order."""
    made = []

    class Recording(properties._Deadline):
        def __init__(self, timeout):
            super().__init__(timeout)
            made.append(self)

    monkeypatch.setattr(properties, "_Deadline", Recording)
    return made


def test_checked_counts_the_queries_answered(monkeypatch):
    """``checked`` counts answered queries, by a solve or by reuse, for the
    SSP and the ESSP alike: a holding verdict and an exhaustive ESSP run
    end with every query checked.  On the holding chain ``c f h b a h`` the
    ESSP sweep's 29 queries take one solve; the count is 50, not 22."""
    made = _recorded_deadlines(monkeypatch)
    chain = TransitionSystem.chain(["c", "f", "h", "b", "a", "h"])
    assert is_feasible(chain).holds
    assert (made[-1].checked, made[-1].total) == (50, 50)
    rng = random.Random(11)
    holding = failing = 0
    for _ in range(150):
        ts = random_linear_ts(rng, 9, 3)
        for decide in (has_ssp, has_essp, is_feasible):
            verdict = decide(ts)
            if verdict.holds:
                holding += 1
                assert made[-1].checked == made[-1].total == len(verdict.witnesses)
        failing += len(has_essp(ts, exhaustive=True).failures) > 1
        assert made[-1].checked == made[-1].total
    assert holding > 50 and failing > 10


def test_exhaustive_feasibility_stops_at_the_first_ssp_failure():
    """``exhaustive`` is the ESSP sweep's: the SSP sweep stops at its first
    failing pair, though (s4, s6) fails too."""
    ts = TransitionSystem.chain(["a", "b", "a", "b", "c", "d", "c", "d"])
    assert not has_ssp(ts).holds and separable(ts, "s4", "s6") is None
    assert is_feasible(ts, exhaustive=True).failures == (SeparationQuery.states("s0", "s2"),)
