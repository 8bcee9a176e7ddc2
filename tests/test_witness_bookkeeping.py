"""Differential tests of the per-witness bookkeeping against the byte path.

A region carries its sorted member positions and the signs of the events it
cuts, computed from those members; the SSP partition splits the blocks a
region cuts from its members too.  The reference below is the earlier
implementation, which read every region through a 0/1 byte per state
(``_bits``) and walked its smaller side.  Random deterministic systems and two-component unions
of at most 12 states are checked over every region of
``solve_all_regions`` (with the regions over half the states among them),
over the same masks as bare ``Region(sys, mask)`` values and over their
complements, which carry no positions and read them from the mask.
"""

import random
from collections import Counter
from itertools import compress
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ensynth import CubicMonotoneFormula, build_linear3_essp, join, regions
from ensynth.cli import _region_payload
from ensynth.properties import _Partition, _Pending
from ensynth.regions import (
    Region, RegionConstraint, _indexed, format_region, solve_all_regions, solve_region,
)
from ensynth.ts import TransitionSystem

from corpus import PHI6
from test_solver_differential import systems

EXAMPLES = settings(max_examples=80, deadline=None)

# -- the reference: membership as one byte per state ---------------------

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _bits(mask: int, n: int) -> bytes:
    return bin(mask)[:1:-1].ljust(n, "0").encode().translate(_BIT_BYTES)[:n]


def _smaller_side(bits: bytes):
    if 2 * bits.count(1) > len(bits):
        bits = bits.translate(_FLIP)
    return compress(range(len(bits)), bits)


def reference_cut_signs(idx, bits: bytes):
    esrc = tuple(s for s, _, _ in idx.edges)
    eev = tuple(e for _, e, _ in idx.edges)
    edst = tuple(t for _, _, t in idx.edges)
    signs = {}
    for s in _smaller_side(bits):
        for eid in idx.state_edges[s]:
            d = bits[edst[eid]] - bits[esrc[eid]]
            if d:
                signs[eev[eid]] = d
    for e, d in signs.items():
        for eid in idx.event_edges[e]:
            if bits[edst[eid]] - bits[esrc[eid]] != d:
                return None
    return signs


def reference_signature(idx, mask: int):
    signs = reference_cut_signs(idx, _bits(mask, len(idx.states)))
    if signs is None:
        return None
    sig = dict.fromkeys(idx.events, 0)
    for e, d in signs.items():
        sig[idx.events[e]] = d
    return sig


def reference_absorb(partition, mask: int, bits: bytes):
    blocks, block_of = partition.blocks, partition.block_of
    for b in set(map(block_of.__getitem__, _smaller_side(bits))):
        block = blocks[b]
        inside = block & mask
        if inside == 0 or inside == block:
            continue
        outside = block ^ inside
        part = inside if inside.bit_count() <= outside.bit_count() else outside
        blocks[b] = block ^ part
        for i in compress(range(len(bits)), _bits(part, len(bits))):
            block_of[i] = len(blocks)
        blocks.append(part)


def reference_payload(region: Region) -> dict:
    sig = region.signature
    return {
        "members": list(region.members),
        "signature": dict(compress(sig.items(), sig.values())),
    }


def reference_format(region: Region, sig: dict) -> str:
    parts = [f"{ev}=-1" if sig[ev] == -1 else f"{ev}=+1"
             for ev in region.system.events if sig[ev]]
    sig_line = "sig: " + ", ".join(parts) if parts else "sig:"
    return f"region: {{{', '.join(region.members)}}}\n{sig_line}"


# -- the differential -----------------------------------------------------


def _checked_regions(sys_obj):
    """Solver regions (with positions), bare-mask copies and complements."""
    solved = solve_all_regions(sys_obj)
    for region in solved:
        yield region
        yield Region(sys_obj, region.mask)
        yield region.complement()
        yield Region(sys_obj, region.mask).complement()


def _same_partition(new, old, n):
    assert sorted(new.blocks) == sorted(old.blocks)
    for i in range(n):
        assert (new.blocks[new.block_of[i]] >> i) & 1
        assert new.blocks[new.block_of[i]] == old.blocks[old.block_of[i]]


@EXAMPLES
@given(systems())
def test_region_bookkeeping_matches_the_byte_path(sys_obj):
    idx = _indexed(sys_obj)
    n = len(idx.states)
    solved = solve_all_regions(sys_obj)
    assert any(2 * r.mask.bit_count() > n for r in solved)  # the full set at least
    for region in _checked_regions(sys_obj):
        bits = _bits(region.mask, n)
        assert region._member_positions() == tuple(compress(range(n), bits))
        assert region.members == tuple(compress(idx.states, bits))
        assert region._cut_signs() == reference_cut_signs(idx, bits)
        sig = reference_signature(idx, region.mask)
        assert region.signature == sig
        assert _region_payload(region) == reference_payload(region)
        assert format_region(region) == reference_format(region, sig)


@EXAMPLES
@given(systems(), st.randoms(use_true_random=False))
def test_partition_split_matches_the_byte_path(sys_obj, rnd):
    idx = _indexed(sys_obj)
    n = len(idx.states)
    regions = list(_checked_regions(sys_obj))
    rnd.shuffle(regions)
    new, old = _Partition(idx), _Partition(idx)
    for region in regions:
        new.absorb(region)
        reference_absorb(old, region.mask, _bits(region.mask, n))
        _same_partition(new, old, n)


@EXAMPLES
@given(systems())
def test_partition_starts_with_one_block_per_component(sys_obj):
    """Each initial block is the sum of the bits of its component's states.
    A single TS has the one component 0."""
    idx = _indexed(sys_obj)
    component_of = getattr(sys_obj, "component_of", {})
    count = len(getattr(sys_obj, "components", [sys_obj]))
    assert _Partition(idx).blocks == [
        sum(1 << i for i, s in enumerate(idx.states) if component_of.get(s, 0) == c)
        for c in range(count)]


@EXAMPLES
@given(systems(), st.integers(0, 2**12 - 1))
def test_masks_that_are_no_region_are_refused(sys_obj, raw):
    idx = _indexed(sys_obj)
    mask = raw & ((1 << len(idx.states)) - 1)
    sig = reference_signature(idx, mask)
    for region in (Region(sys_obj, mask), Region(sys_obj, mask).complement()):
        if sig is None:
            with pytest.raises(ValueError, match="not a region"):
                region.signature
        else:
            assert region._cut_signs() == reference_cut_signs(
                idx, _bits(region.mask, len(idx.states)))


def test_a_complement_cuts_the_same_events_with_opposite_signs():
    """A two-state region of a long chain and its complement, which holds
    every other state, cut the same two events."""
    ts = TransitionSystem.chain([f"e{k}" for k in range(2000)])
    region = Region(ts, 0b110 << 1000, (1001, 1002))
    assert region._cut_signs() == {1000: 1, 1002: -1}
    assert region.members == ("s1001", "s1002")
    big = region.complement()
    assert big._cut_signs() == {1000: -1, 1002: 1}


def _recording_trails(trails):
    """``_Solver._solution``, appending each solve's trail length."""
    solution = regions._Solver._solution

    def recorded(self):
        trails.append(len(self.trail))
        return solution(self)

    return mock.patch.object(regions._Solver, "_solution", recorded)


def test_short_trail_with_many_members_shifts_them_in():
    """An ESSP query of the joined linear3 instance of PHI6 whose trail
    holds at most |S|/5 entries, while its 34 members are more than |S|/32
    of the 1,023 states: the members still come from the trail and are
    shifted into the mask, with no read of the domain array."""
    ts = join(build_linear3_essp(CubicMonotoneFormula(PHI6)).union)
    n = len(ts.states)
    trails = []
    with _recording_trails(trails), \
            mock.patch.object(regions, "compress", wraps=compress) as domain_read:
        region = solve_region(ts, RegionConstraint(membership={"d_0_6": 0},
                                                   signature={"k": -1}))
    assert n == 1023 and 5 * trails[0] <= n
    assert 32 * len(region._member_positions()) >= n
    assert not domain_read.called
    bits = _bits(region.mask, n)
    assert region._member_positions() == tuple(compress(range(n), bits))
    assert region._cut_signs() == reference_cut_signs(_indexed(ts), bits)


def test_solver_positions_on_longer_chains():
    """Chains long enough that a solve can end on a trail of at most |S|/5
    entries, and the solver takes both outcomes of its solution read: a
    short trail gives the members, shifted into the mask, and every other
    solve reads the domain array once for both."""
    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(40):
        length = rng.randint(100, 300)
        ts = TransitionSystem.chain([f"e{rng.randrange(length // 2)}" for _ in range(length)])
        idx = _indexed(ts)
        n = len(idx.states)
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        event = ts.edges[rng.randrange(length)][1]
        for constraint in (RegionConstraint(membership={f"s{i}": 1, f"s{j}": 0}),
                           RegionConstraint(membership={f"s{j}": 0}, signature={event: -1})):
            # Only the domain read compresses the index positions.
            trails = []
            with _recording_trails(trails), \
                    mock.patch.object(regions, "compress", wraps=compress) as domain_read:
                region = solve_region(ts, constraint)
            if region is None:
                continue
            assert domain_read.called == (5 * trails[0] > n)
            bits = _bits(region.mask, n)
            assert region._member_positions() == tuple(compress(range(n), bits))
            assert region._cut_signs() == reference_cut_signs(idx, bits)
            outcomes["domain" if domain_read.called else "shift"] += 1
    assert outcomes["shift"] >= 5 and outcomes["domain"] >= 5, outcomes


def reference_pending(idx):
    full = (1 << len(idx.states)) - 1
    return [full & ~sum(1 << s for s in {idx.edges[eid][0] for eid in eids})
            for eids in idx.event_edges]


@EXAMPLES
@given(systems())
def test_pending_starts_with_the_states_that_do_not_enable_the_event(sys_obj):
    idx = _indexed(sys_obj)
    assert _Pending(idx).pending == reference_pending(idx)


def test_pending_counts_a_repeated_source_once():
    """Two edges of one event from one state leave that state enabled once."""
    sys_obj = TransitionSystem.from_edges(
        "s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s0")])
    idx = _indexed(sys_obj)
    assert _Pending(idx).pending == reference_pending(idx)


def test_complement_members_are_the_index_positions():
    """Positions read from a mask are the index's own ints, so the members
    of a big complement share them instead of holding one int each."""
    ts = TransitionSystem.chain([f"e{k}" for k in range(400)])
    big = Region.from_members(ts, ["s301", "s302"]).complement()
    positions = _indexed(ts).positions
    members = big._member_positions()
    assert len(members) == 399
    assert all(p is positions[p] for p in members)
