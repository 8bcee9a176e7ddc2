"""Acceptance suite: one check per criterion, one pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
stated tolerance and budget is pinned here.
"""

import random
import time
from contextlib import contextmanager

import pytest

from ensynth.linear2 import (
    find_exact_2fold_subsequence,
    linear2_ssp,
    second_occurrence_index,
    separator,
)
from ensynth.properties import (
    WitnessMap,
    has_essp,
    has_ssp,
    inhibitable,
    is_feasible,
    is_ssp_witness,
    separable,
)
from ensynth.reductions import (
    CubicMonotoneFormula,
    build_2grade2_essp,
    build_2grade2_ssp,
    build_key_region_linear3,
    build_linear3_essp,
    build_linear3_ssp,
    find_one_in_three_models,
    is_one_in_three_model,
)
from ensynth.regions import (
    RegionConstraint,
    check_region,
    enumerate_regions,
    solve_all_regions,
)
from ensynth.synthesis import (
    check_morphism,
    language_equal,
    reachability_graph,
    synthesize,
    ts_isomorphic,
)
from ensynth.ts import TransitionSystem
from ensynth.unions import join, make_union, rectified_name

from conftest import brute_ssp
from corpus import PHI4, PHI6, linear2_words, linear3_corpus, random_linear_ts, small_ts_corpus

phi6 = CubicMonotoneFormula(PHI6)
phi4 = CubicMonotoneFormula(PHI4)
phi1 = CubicMonotoneFormula([(0, 1, 2)], check=False)

KEY_CONSTRAINT = RegionConstraint(membership={"m6": 0}, signature={"k": -1})


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS: {label} ({elapsed:.2f}s)")


def test_criterion_01_key_region_uniqueness():
    with criterion(1, "unique key region of the 147-state basic union, < 1 s"):
        instance = build_linear3_essp(phi1)
        basic = make_union(instance.union.components[:13])
        assert len(basic.states) == 147
        start = time.perf_counter()
        regions = solve_all_regions(basic, KEY_CONSTRAINT)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert len(regions) == 1
        expected = {"m0", "m3", "m7"}
        for j in range(6):
            expected |= {f"f_{j}_{n}" for n in (1, 3, 5, 7)}
            expected |= {f"d_{j}_{n}" for n in (0, 3, 6, 7, 10, 13)}
        assert set(regions[0].members) == expected


def test_criterion_02_translator_trichotomy():
    with criterion(2, "exactly the three template regions per translator"):
        instance = build_linear3_essp(phi6)
        offset = 1 + 12 * phi6.m
        for i in range(phi6.m):
            translator = make_union(
                instance.union.components[offset + 3 * i: offset + 3 * i + 3]
            )
            copies = (2, 5, 8, 11, 14, 17)
            constraint = RegionConstraint(
                signature={f"k_{18 * i + n}": -1 for n in copies}
            )
            regions = solve_all_regions(translator, constraint)
            base = {
                f"t_{i}_0_0", f"t_{i}_0_4", f"t_{i}_1_0",
                f"t_{i}_1_3", f"t_{i}_2_0", f"t_{i}_2_3",
            }
            expected = {
                frozenset(base),
                frozenset(base | {f"t_{i}_0_2", f"t_{i}_0_3"}),
                frozenset(base | {f"t_{i}_0_3", f"t_{i}_1_2", f"t_{i}_2_2"}),
            }
            assert {frozenset(r.members) for r in regions} == expected, i


def test_criterion_03_linear3_reduction_soundness():
    with criterion(3, "key query present iff a one-in-three model exists, < 10 s each"):
        models = find_one_in_three_models(phi6)
        assert frozenset({0, 4}) in models

        start = time.perf_counter()
        positive = build_linear3_essp(phi6)
        region = inhibitable(positive.union, *positive.key_query)
        positive_time = time.perf_counter() - start
        assert region is not None
        decoded = {v for v in range(6) if region.signature.get(f"X{v}", 0) == 1}
        assert is_one_in_three_model(phi6, decoded)
        assert positive_time < 10.0

        start = time.perf_counter()
        negative = build_linear3_essp(phi4)
        assert inhibitable(negative.union, *negative.key_query) is None
        negative_time = time.perf_counter() - start
        assert negative_time < 10.0


def test_criterion_04_2grade2_reduction_soundness():
    with criterion(4, "2-grade 2-fold key query present/absent, < 30 s each"):
        start = time.perf_counter()
        positive = build_2grade2_essp(phi6)
        region = inhibitable(positive.union, *positive.key_query)
        assert region is not None
        assert time.perf_counter() - start < 30.0

        start = time.perf_counter()
        negative = build_2grade2_essp(phi4)
        assert inhibitable(negative.union, *negative.key_query) is None
        assert time.perf_counter() - start < 30.0


def test_criterion_05_full_feasibility_of_generated_instance():
    with criterion(5, "feasibility of the joined m=6 instance within 15 min; m=4 fails at (k, m6)"):
        joined = join(build_linear3_essp(phi6).union)
        start = time.perf_counter()
        verdict = is_feasible(joined, timeout=900)
        assert verdict.holds
        assert time.perf_counter() - start < 900

        negative = join(build_linear3_essp(phi4).union)
        essp = has_essp(negative, timeout=900)
        assert not essp.holds
        assert (essp.counterexample.a, essp.counterexample.b) == ("k", "m6")


def test_criterion_06_exact_2fold_criterion():
    with criterion(6, "exact-2-fold criterion over 1000 random linear 2-fold TSs, zero discrepancies"):
        words = linear2_words(count=1000, max_len=11, seed=101)
        assert len(words) >= 1000
        for word in words:
            ts = TransitionSystem.chain(word)
            verdict = linear2_ssp(ts)
            assert verdict.holds == brute_ssp(ts), word
            assert verdict.holds == (find_exact_2fold_subsequence(ts) is None)
            if verdict.holds:
                for (s1, s2), result in verdict.separators.items():
                    region = result.region
                    assert region is not None
                    assert check_region(ts, region.members) is not None
                    assert (s1 in region) != (s2 in region)
                    non_obeying = [
                        v for v in region.signature.values() if v != 0
                    ]
                    assert len(non_obeying) <= 2


def test_criterion_07_separator_scaling():
    with criterion(7, "separator sub-quadratic over 1e3/1e4/1e5 chains; 500-state SSP < 10 s"):
        timings = []
        for n in (1_000, 10_000, 100_000):
            word = [f"e{t}" for t in range(n // 2)] * 2
            ts = TransitionSystem.chain(word)
            index = second_occurrence_index(ts)
            i, j = n // 3, 2 * n // 3
            best = min(
                _timed(lambda: separator(ts, i, j, index)) for _ in range(3)
            )
            timings.append(best)
        for previous, current in zip(timings, timings[1:]):
            assert current / previous < 30.0, timings

        # a 500-state chain with the SSP: doubles interleaved with uniques
        word = []
        for t in range(125):
            word.extend([f"u{2 * t}", f"a{t}", f"u{2 * t + 1}", f"a{t}"])
        ts = TransitionSystem.chain(word)
        start = time.perf_counter()
        verdict = linear2_ssp(ts)
        elapsed = time.perf_counter() - start
        assert verdict.holds
        assert len(verdict.separators) == 500 * 501 // 2
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_08_joining_equivalence():
    with criterion(8, "joining equivalence over 200 random unions, zero discrepancies"):
        rng = random.Random(77)
        for _ in range(200):
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


def test_criterion_09_essp_witness_is_ssp_witness():
    with criterion(9, "ESSP witnesses also separate states, 200 random linear TSs"):
        rng = random.Random(13)
        found = 0
        while found < 200:
            ts = random_linear_ts(rng, 9, rng.randint(1, 5))
            verdict = has_essp(ts)
            if not verdict.holds:
                continue
            found += 1
            assert is_ssp_witness(ts, verdict.witnesses.regions), ts


def _key_region_structure(ts, union, key0, key1) -> None:
    region = separable(union, key0, key1)
    assert region is not None
    tag = ":".join(key0.split(":")[:2]) + ":"
    event, state = key0.split(":")[0], key0.split(":")[1]
    members = {s[len(tag):] for s in region.members if s.startswith(tag)}
    sig = {e[len(tag):]: v for e, v in region.signature.items() if e.startswith(tag)}
    # 1-3: mapper, duplicator, provider fragments
    assert members & {f"m{n}" for n in range(6)} == {"m0", "m2", "m4"}
    for j in range(5):
        assert {s for s in members if s.startswith(f"d_{j}_")} == {
            f"d_{j}_{n}" for n in (1, 3, 5, 7, 8, 10, 12)
        }
    assert members & {f"p{n}" for n in range(8)} == {"p0", "p2", "p5", "p7"}
    # 4-6: signatures of the event family, vices, helpers
    assert sig[event] == -1
    assert all(sig[f"{event}.{n}"] == -1 for n in range(10))
    assert all(sig[f"v{n}"] == 1 for n in range(12))
    assert sig["h1"] == 1 and sig["h2"] == -1
    # 7: the restriction to the input inhibits the event at the state
    inner = {s for s in members if s in ts.states}
    inner_sig = check_region(ts, inner)
    assert inner_sig is not None
    assert inner_sig[event] == -1 and state not in inner


def test_criterion_10_linear3_ssp_end_to_end():
    with criterion(10, "ESSP(A) iff SSP(joined SSP-instance) over the 53-instance corpus"):
        corpus = linear3_corpus()
        assert len(corpus) >= 50
        assert all(len(ts.states) <= 5 for ts in corpus)
        for ts in corpus:
            instance = build_linear3_ssp(ts)
            joined = join(instance.union, instance.join_plan)
            source_essp = has_essp(ts).holds
            assert source_essp == has_ssp(joined, timeout=600).holds, ts
            # one key pair per ESSP query, tagged by it, in the sweep's order
            tags = [(q.a, q.b) for q in WitnessMap(ts, ("essp",), [])]
            assert len(instance.key_pairs) == len(tags), ts
            for (key0, key1), tag in zip(instance.key_pairs, tags):
                prefix = rectified_name(tag, "")
                assert key0.startswith(prefix) and key1.startswith(prefix), (ts, tag)
                # a key pair is separable iff its tag's event is inhibitable
                # at its state, and the structural facts hold for every
                # separable one, also inside instances whose source fails
                # the ESSP elsewhere
                separated = separable(instance.union, key0, key1) is not None
                assert separated == (inhibitable(ts, *tag) is not None), (ts, tag)
                if separated:
                    _key_region_structure(ts, instance.union, key0, key1)
                else:
                    assert not source_essp


def test_criterion_11_2grade2_ssp_end_to_end():
    with criterion(11, "SSP(A) iff SSP(2-fold modification union) over the corpus"):
        for ts in linear3_corpus():
            instance = build_2grade2_ssp(ts)
            assert has_ssp(ts).holds == has_ssp(instance.union).holds, ts
            if len(instance.union.states) > 14:
                continue
            triples = [
                e for e in ts.events
                if sum(1 for _, ev, _ in ts.edges if ev == e) == 3
            ]
            if not triples:
                continue
            for region in enumerate_regions(instance.union):
                for e in triples:
                    assert len({region.sig(f"{e}.{n}") for n in range(3)}) == 1


def test_criterion_12_synthesis_round_trip():
    with criterion(12, "RG(SN(A)) iso A for feasible corpus TSs; morphism and language for ESSP witnesses"):
        for ts in small_ts_corpus() + linear3_corpus()[:20]:
            if len(ts.states) > 10:
                continue
            if is_feasible(ts).holds:
                regions = enumerate_regions(ts)
                rg = reachability_graph(synthesize(ts, regions))
                assert ts_isomorphic(ts, rg.ts), ts
            verdict = has_essp(ts)
            if verdict.holds:
                regions = verdict.witnesses.regions
                assert check_morphism(ts, regions), ts
                rg = reachability_graph(synthesize(ts, regions))
                assert language_equal(ts, rg.ts), ts


def test_criterion_13_oracle_equivalence():
    with criterion(13, "enumerate_regions equals solve_all_regions on the corpus"):
        for ts in small_ts_corpus() + linear3_corpus():
            if len(ts.states) > 14:
                continue
            brute = {r.mask for r in enumerate_regions(ts)}
            solved = {r.mask for r in solve_all_regions(ts)}
            assert brute == solved, ts
