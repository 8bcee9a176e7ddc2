import random
import tracemalloc
from collections.abc import Mapping
from itertools import accumulate
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
from ensynth.ts import TransitionSystem, _linear_chain
from ensynth.unions import make_union

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


def test_separator_refuses_a_foreign_index():
    """Another chain's index used to give found=True with region=None."""
    ts = chain(["a", "b", "a", "c"])
    longer = second_occurrence_index(chain(["x", "y", "z", "x", "w", "y", "q"]))
    same_length = second_occurrence_index(chain(["a", "b", "c", "b"]))
    for index in (longer, same_length):
        with pytest.raises(ValueError, match="not the other-occurrence index"):
            separator(ts, 0, 2, index)
    assert separator(ts, 0, 2, second_occurrence_index(ts)) == separator(ts, 0, 2)


def test_second_occurrence_index_is_a_fresh_list():
    ts = chain(["a", "b", "a", "c"])
    second_occurrence_index(ts)[0] = 3
    assert second_occurrence_index(ts) == [2, -1, 0, -1]
    assert separator(ts, 0, 2).exit_events == frozenset(["b"])


def test_a_chain_is_walked_once_across_entry_points():
    """Each entry point used to walk the chain before it read the cached
    2-fold view."""
    ts = chain(["x", "a", "b", "a", "y", "b"])
    with mock.patch.object(linear2, "_linear_chain",
                           wraps=linear2._linear_chain) as walk:
        for _ in range(3):
            separator(ts, 0, 2)
            linear2_ssp(ts)
            find_exact_2fold_subsequence(ts)
            second_occurrence_index(ts)
    assert walk.call_count == 1


def test_complement_of_a_separator_builds_no_index():
    """Region.complement used to build the system's index to count states."""
    ts = chain(["x", "a", "b", "a", "y", "b"])
    region = separator(ts, 0, 2).region
    assert ts._index is None
    assert region.complement().mask == region.mask ^ 0b1111111
    assert ts._index is None


def test_separators_mapping_contract():
    ts = chain(["a", "u", "b", "a", "v", "b"])
    separators = linear2_ssp(ts).separators
    pairs = [(f"s{i}", f"s{j}") for i in range(7) for j in range(i + 1, 7)]
    assert isinstance(separators, Mapping)
    assert len(separators) == 21 and list(separators) == pairs
    assert all(pair in separators for pair in pairs)
    for key in (("s3", "s1"), ("s2", "s2"), ("s0", "zz"), ("zz", "s0"), "s0", ("s0", "s1", "s2")):
        assert key not in separators
        with pytest.raises(KeyError):
            separators[key]
    assert separators[("s0", "s2")] is separators[("s1", "s6")]  # the first u exits alone
    with pytest.raises(TypeError):
        separators[("s0", "s1")] = None

    failing = linear2_ssp(chain(["a", "b", "a", "b"])).separators
    assert isinstance(failing, Mapping) and len(failing) == 0 and list(failing) == []
    with pytest.raises(TypeError):
        failing[("s0", "s1")] = None


def test_linear2_ssp_memory_follows_the_witnesses():
    """Criterion 7's 500-state chain: the eager map of 125,250 pairs
    peaked at about 12 MB."""
    word = []
    for t in range(125):
        word.extend([f"u{2 * t}", f"a{t}", f"u{2 * t + 1}", f"a{t}"])
    ts = chain(word)
    find_exact_2fold_subsequence(ts)  # builds the cached chain outside the trace
    tracemalloc.start()
    try:
        verdict = linear2_ssp(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and len(verdict.separators) == 500 * 501 // 2
    assert peak < 2_000_000


# -- the eager route the lazy map replaced, kept as a reference ------------


def reference_separator(ts, i, j):
    """(exit, enter, mask) by the O(i) search: the partners are found by
    scanning the chain left of s_i and right of s_j, and the mask by
    walking the whole chain."""
    states, word = _linear_chain(ts)
    index = second_occurrence_index(ts)
    n = len(word)
    pos = {s: k for k, s in enumerate(ts.states)}

    def result(exit_ev, enter_ev):
        sig = {exit_ev: -1} if enter_ev is None else {exit_ev: -1, enter_ev: 1}
        deltas = [sig.get(ev, 0) for ev in word]
        mask = None
        for start in (0, 1):
            member = list(accumulate(deltas, initial=start))
            if min(member) >= 0 and max(member) <= 1:
                mask = sum(1 << pos[s] for s, m in zip(states, member) if m)
                break
        return frozenset([exit_ev]), frozenset([enter_ev] if enter_ev else []), mask

    for k in range(i, j):
        if index[k] == -1:
            return result(word[k], None)
    a = next((k for k in range(i) if i <= index[k] < j), -1)
    if a != -1:
        for k in range(a + 1, i):
            if index[k] == -1 or index[k] < a or index[k] >= j:
                return result(word[a], word[k])
    b = next((k for k in range(n - 1, j - 1, -1) if i <= index[k] < j), -1)
    if b != -1:
        for k in range(j, b):
            if index[k] == -1 or index[k] < i or index[k] > b:
                return result(word[b], word[k])
    return frozenset(), frozenset(), None


def reference_linear2_ssp(ts):
    """(holds, counterexample, [(pair, separator)] in order, witness masks
    in order of first use), every pair searched eagerly."""
    states, word = _linear_chain(ts)
    bad = exact_2fold_scan(word)
    if bad is not None:
        return False, (states[bad[0]], states[bad[1]]), [], []
    separators, masks = [], {}
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            res = reference_separator(ts, i, j)
            separators.append(((states[i], states[j]), res))
            if res[2] is not None:
                masks.setdefault(res[2])
    return True, None, separators, list(masks)


def as_triple(result):
    mask = None if result.region is None else result.region.mask
    return result.exit_events, result.enter_events, mask


def with_unique_events(draws):
    """Each None drawn becomes a unique event; a letter is kept while it
    occurs less than twice.  About two thirds of these words have the SSP."""
    word = []
    for k, ev in enumerate(draws):
        if ev is None:
            word.append(f"u{k}")
        elif word.count(ev) < 2:
            word.append(ev)
    return word


mixed_words = st.lists(st.one_of(st.sampled_from("abcdef"), st.none()),
                       min_size=1, max_size=18).map(with_unique_events)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_words, two_fold_words), st.booleans())
def test_lazy_route_matches_the_eager_reference(word, backwards):
    ts = chain(word)
    if backwards:
        ts = reversed_declaration(ts)
    holds, counterexample, separators, masks = reference_linear2_ssp(ts)
    verdict = linear2_ssp(ts)
    assert verdict.holds == holds
    if holds:
        assert [(pair, as_triple(res)) for pair, res in verdict.separators.items()] == separators
        assert [region.mask for region in verdict.witnesses.regions] == masks
    else:
        cx = verdict.counterexample
        assert (cx.a, cx.b) == counterexample and len(verdict.separators) == 0
    n = len(word)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            assert as_triple(separator(ts, i, j)) == reference_separator(ts, i, j)


def test_every_entry_point_refuses_a_union():
    """A union has no ``_twofold`` slot; the entry points refuse it as not
    linear before reading one."""
    union = make_union([TransitionSystem.chain(["x", "y"], prefix="a"),
                        TransitionSystem.chain(["y"], prefix="b")])
    for call in (lambda: linear2_ssp(union),
                 lambda: find_exact_2fold_subsequence(union),
                 lambda: second_occurrence_index(union),
                 lambda: separator(union, 0, 1)):
        with pytest.raises(ValueError, match="expected a linear 2-fold transition system"):
            call()


def interlocking(m):
    """x a1 a2 a1 a3 a2 … am am-1 x w am u w: every a-pair overlaps the
    next, so the compensating scans walk the whole run."""
    word = ["x", "a1", "a2", "a1"]
    for q in range(3, m + 1):
        word += [f"a{q}", f"a{q - 1}"]
    return word + ["x", "w", f"a{m}", "u", "w"]


def test_interlocking_runs_match_the_reference():
    """Both calls of the compensating scan, the one left of s_i (phase 2)
    and the one right of s_j (phase 3), give the reference's answer."""
    phases = set()
    for m in range(2, 7):
        word = interlocking(m)
        ts = chain(word)
        n = len(word)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                result = separator(ts, i, j)
                assert as_triple(result) == reference_separator(ts, i, j), (m, i, j)
                if result.enter_events:
                    (exit_ev,) = result.exit_events
                    phases.add(2 if word.index(exit_ev) < i else 3)
    assert phases == {2, 3}


def counted_linear2_ssp(ts):
    """linear2_ssp's verdict and the number of regions it built."""
    with mock.patch.object(linear2, "_region_from_changes",
                           wraps=linear2._region_from_changes) as built:
        verdict = linear2_ssp(ts)
    return verdict, built.call_count


def test_each_separator_is_built_once_per_chain():
    """Pairs (0, 3) and (1, 5) of x a1 a2 a1 x w a2 u w both find their
    separator in phase 3, with a2 exiting and w entering: they get one
    object.  Each interlocking chain builds one region per witness."""
    verdict, _ = counted_linear2_ssp(chain(interlocking(2)))
    first = verdict.separators[("s0", "s3")]
    assert first is verdict.separators[("s1", "s5")]
    assert (first.exit_events, first.enter_events) == ({"a2"}, {"w"})
    for m in range(2, 8):
        verdict, built = counted_linear2_ssp(chain(interlocking(m)))
        assert verdict.holds and built == len(verdict.witnesses.regions), m


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_words, two_fold_words), st.booleans())
def test_linear2_ssp_builds_one_region_per_witness(word, backwards):
    ts = chain(word)
    if backwards:
        ts = reversed_declaration(ts)
    verdict, built = counted_linear2_ssp(ts)
    assert built == len(verdict.witnesses.regions)


def next_unique_masks(ts):
    """Witness masks in order of first use, by the loop linear2_ssp ran
    before its rows took their bounds from the unique-edge table: a
    next-unique list, and a dict of phase-1 results by unique edge."""
    index = second_occurrence_index(ts)
    n = len(index)
    next_unique = [n] * (n + 1)
    for k in range(n - 1, -1, -1):
        next_unique[k] = k if index[k] == -1 else next_unique[k + 1]
    by_unique, masks = {}, {}
    for i in range(n + 1):
        k = next_unique[i]
        found = [separator(ts, i, j) for j in range(i + 1, k + 1)]
        if k < n:
            if k not in by_unique:
                by_unique[k] = separator(ts, k, k + 1)
            found.append(by_unique[k])
        for res in found:
            if res.region is not None:
                masks.setdefault(res.region.mask)
    return list(masks)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_words, two_fold_words), st.booleans())
def test_witness_order_matches_the_next_unique_loop(word, backwards):
    ts = chain(word)
    if backwards:
        ts = reversed_declaration(ts)
    verdict = linear2_ssp(ts)
    masks = [region.mask for region in verdict.witnesses.regions]
    assert masks == (next_unique_masks(ts) if verdict.holds else [])
