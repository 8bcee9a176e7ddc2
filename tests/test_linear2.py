import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ensynth import linear2
from ensynth.linear2 import (
    find_exact_2fold_subsequence,
    linear2_ssp,
    second_occurrence_index,
    separator,
)
from ensynth.regions import aggregate_signature, check_region, enumerate_regions
from ensynth.ts import TransitionSystem

from conftest import brute_ssp
from corpus import linear2_words, reversed_declaration


def chain(word):
    return TransitionSystem.chain(word)


def test_second_occurrence_index():
    ts = chain(["a", "b", "a", "c"])
    index = second_occurrence_index(ts)
    assert index == [2, -1, 0, -1]
    for k, other in enumerate(index):
        if other != -1:
            assert index[other] == k


def test_index_rejects_wrong_class():
    with pytest.raises(ValueError):
        second_occurrence_index(chain(["a", "a", "a"]))
    diamond = TransitionSystem.from_edges(
        "q0", [("q0", "a", "q1"), ("q0", "b", "q2")]
    )
    with pytest.raises(ValueError):
        second_occurrence_index(diamond)


def test_exact_2fold_examples():
    assert find_exact_2fold_subsequence(chain(["a", "b", "a", "b"])) == (0, 4)
    assert find_exact_2fold_subsequence(chain(["a", "b", "c"])) is None
    # A^0_4 contains c once; no other candidate window closes
    assert find_exact_2fold_subsequence(chain(["a", "b", "a", "c", "b"])) is None
    assert find_exact_2fold_subsequence(chain(["a", "a"])) == (0, 2)


def test_separator_case1():
    result = separator(chain(["a", "b", "a"]), 1, 2)
    assert result.exit_events == frozenset(["b"])
    assert result.enter_events == frozenset()
    assert set(result.region.members) == {"s0", "s1"}


def test_separator_adjacent_unique():
    result = separator(chain(["a", "b", "c"]), 1, 2)
    assert result.exit_events == frozenset(["b"]) and not result.enter_events


def test_separator_failure_pair():
    result = separator(chain(["a", "b", "a", "b"]), 0, 4)
    assert not result.found and result.region is None


def test_separator_index_errors():
    ts = chain(["a", "b"])
    with pytest.raises(IndexError):
        separator(ts, 1, 1)
    with pytest.raises(IndexError):
        separator(ts, 0, 3)


def test_linear2_ssp_examples():
    holds = linear2_ssp(chain(["a", "b", "c"]))
    assert holds.holds and len(holds.separators) == 6

    fails = linear2_ssp(chain(["a", "b", "a", "b"]))
    assert not fails.holds
    assert (fails.counterexample.a, fails.counterexample.b) == ("s0", "s4")

    tiny = linear2_ssp(chain(["a", "a"]))
    assert not tiny.holds
    assert (tiny.counterexample.a, tiny.counterexample.b) == ("s0", "s2")


def test_exact_2fold_criterion_sample():
    """linear2_ssp agrees with brute force, witnesses validate, and every
    witness has at most two non-obeying events (smaller sample here; the
    acceptance suite runs 1000)."""
    for word in linear2_words(count=200, max_len=11, seed=23):
        ts = chain(word)
        verdict = linear2_ssp(ts)
        assert verdict.holds == brute_ssp(ts), word
        assert verdict.holds == (find_exact_2fold_subsequence(ts) is None)
        if verdict.holds:
            for (s1, s2), result in verdict.separators.items():
                region = result.region
                assert region is not None
                assert (s1 in region) != (s2 in region)
                assert check_region(ts, region.members) is not None
                non_obeying = [v for v in region.signature.values() if v != 0]
                assert len(non_obeying) <= 2


def test_parity_over_exact_2fold_subsequences():
    """Over any exact 2-fold segment the membership difference is even,
    i.e. zero, for every region."""
    from ensynth.regions import aggregate_signature

    for word in linear2_words(count=120, max_len=9, seed=41):
        ts = chain(word)
        segment = find_exact_2fold_subsequence(ts)
        if segment is None:
            continue
        i, j = segment
        for region in enumerate_regions(ts):
            assert aggregate_signature(region, ts, i, j) == 0


def test_nonseparable_pair_of_counterexample():
    for word in linear2_words(count=80, max_len=10, seed=5):
        ts = chain(word)
        verdict = linear2_ssp(ts)
        if verdict.holds:
            continue
        q = verdict.counterexample
        regions = enumerate_regions(ts)
        assert all((q.a in r) == (q.b in r) for r in regions), word


def exact_2fold_scan(word):
    """Reference: the O(n^2) window scan.  For i ascending it counts the
    events that occur once in word[i:t + 1] and stops when none does."""
    n = len(word)
    for i in range(n):
        singles = 0
        count = {}
        for t in range(i, n):
            c = count.get(word[t], 0) + 1
            count[word[t]] = c
            singles += 1 if c == 1 else -1
            if singles == 0:
                return (i, t + 1)
    return None


two_fold_words = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=16).map(
    lambda word: [ev for k, ev in enumerate(word) if word[:k].count(ev) < 2])


@settings(max_examples=300, deadline=None)
@given(two_fold_words)
def test_exact_2fold_parity_matches_the_window_scan(word):
    assert find_exact_2fold_subsequence(chain(word)) == exact_2fold_scan(word)


class SixBitKeys(random.Random):
    """Zobrist keys of 6 bits, so distinct parities often share a hash."""

    def getrandbits(self, k):
        return super().getrandbits(6)


@settings(max_examples=300, deadline=None)
@given(two_fold_words)
def test_exact_2fold_parity_survives_hash_collisions(word):
    """The count that confirms a hit rejects colliding pairs, and the pass
    is repeated with fresh keys until the answer is exact."""
    with mock.patch.object(linear2, "Random", SixBitKeys):
        assert find_exact_2fold_subsequence(chain(word)) == exact_2fold_scan(word)


def test_exact_2fold_scan_memory_is_linear():
    """20,000 edges whose prefix parities are all distinct but the last:
    wide exact parities took about 29 MB here."""
    ts = chain([f"e{k}" for k in range(10_000)] * 2)
    find_exact_2fold_subsequence(ts)  # builds the cached chain outside the trace
    tracemalloc.start()
    try:
        assert find_exact_2fold_subsequence(ts) == (0, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_exact_2fold_scan_reference_on_the_random_corpus():
    for word in linear2_words(count=400, max_len=14, seed=77):
        assert find_exact_2fold_subsequence(chain(word)) == exact_2fold_scan(word), word


@pytest.mark.parametrize("ts", [
    TransitionSystem(["a", "b", "c"], ["x", "y"], "a", [("b", "x", "c"), ("c", "y", "b")]),
    TransitionSystem(["a", "b", "c"], ["x"], "a", [("a", "x", "b")]),
])
def test_entry_points_reject_systems_that_are_not_one_chain(ts):
    for call in (linear2_ssp, find_exact_2fold_subsequence, second_occurrence_index,
                 lambda t: separator(t, 0, 1)):
        with pytest.raises(ValueError, match="expected a linear 2-fold"):
            call(ts)


def test_chain_order_not_declaration_order():
    """States declared backwards give the same members everywhere."""
    for word in (["a", "b", "c", "a", "d", "b"], ["u", "a", "v", "a", "w"]):
        forward = chain(word)
        backward = reversed_declaration(forward)
        ssp_f, ssp_b = linear2_ssp(forward), linear2_ssp(backward)
        assert ssp_f.holds and ssp_b.holds
        assert ssp_f.separators.keys() == ssp_b.separators.keys()
        for pair, res in ssp_f.separators.items():
            other = ssp_b.separators[pair]
            assert (other.exit_events, other.enter_events) == (res.exit_events, res.enter_events)
            assert set(other.region.members) == set(res.region.members)
        n = len(word)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                f, b = separator(forward, i, j), separator(backward, i, j)
                assert set(f.region.members) == set(b.region.members)
                for region in ssp_f.witnesses.regions:
                    mirrored = type(region).from_members(backward, region.members)
                    assert (aggregate_signature(mirrored, backward, i, j)
                            == aggregate_signature(region, forward, i, j))
