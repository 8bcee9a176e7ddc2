"""Correctness checks that do not call the code under test.

Each function returns ``None`` when the checked output is right and a
one-line reason when it is not.  Regions are checked from first
principles: a state set R with signature sig is a region when every edge
s -e-> t satisfies R(t) - R(s) = sig(e).  Separation is checked on the
membership vectors of the whole witness set.
"""

from __future__ import annotations

from typing import Iterable, Optional


def mask_members(states: tuple[str, ...], mask: int) -> list[str]:
    """States whose bit is set in a region mask (bit i is ``states[i]``)."""
    bits = bin(mask)[:1:-1]
    return [states[i] for i, b in enumerate(bits) if b == "1"]


def region_problem(ts, members: Iterable[str], signature: dict[str, int]) -> Optional[str]:
    """Is ``members`` a region of ``ts`` whose non-zero signature entries are
    exactly ``signature``?"""
    inside = set(members)
    if not inside <= set(ts.states):
        return "region names unknown states"
    for ev, v in signature.items():
        if v not in (-1, 1):
            return f"signature value {v!r} for {ev!r}"
    for src, ev, dst in ts.edges:
        if (dst in inside) - (src in inside) != signature.get(ev, 0):
            return f"edge {src} -{ev}-> {dst} breaks the region equation"
    return None


def witness_set_problem(
    ts, witnesses: list[tuple[list[str], dict[str, int]]], essp: bool
) -> Optional[str]:
    """Every witness is a region, the set separates every state pair, and,
    with ``essp``, it inhibits every event at every state not enabling it."""
    pos = {s: i for i, s in enumerate(ts.states)}
    full = (1 << len(pos)) - 1
    vectors = [0] * len(pos)
    covered = {e: 0 for e in ts.events}
    for k, (members, signature) in enumerate(witnesses):
        problem = region_problem(ts, members, signature)
        if problem:
            return f"witness {k}: {problem}"
        mask = 0
        for s in members:
            mask |= 1 << pos[s]
            vectors[pos[s]] |= 1 << k
        for ev, v in signature.items():
            covered[ev] |= (full & ~mask) if v == -1 else mask
    if len(set(vectors)) != len(vectors):
        return "the witness set leaves a state pair unseparated"
    if essp:
        enabled: dict[str, set[str]] = {s: set() for s in ts.states}
        for src, ev, _ in ts.edges:
            enabled[src].add(ev)
        for ev in ts.events:
            for s in ts.states:
                if ev not in enabled[s] and not (covered[ev] >> pos[s]) & 1:
                    return f"event {ev} is not inhibited at state {s}"
    return None


def chain_region_problem(
    word: list[str], members_bits: str, i: int, j: int, max_non_obeying: int
) -> Optional[str]:
    """A chain region given by its membership bits along the chain
    (``members_bits[p]`` for state p) separates states i and j, obeys the
    region equation, and has at most ``max_non_obeying`` non-obeying events."""
    if len(members_bits) != len(word) + 1:
        return "membership does not cover the chain"
    if members_bits[i] == members_bits[j]:
        return f"does not separate states {i} and {j}"
    sig: dict[str, int] = {}
    for p, ev in enumerate(word):
        d = int(members_bits[p + 1]) - int(members_bits[p])
        if sig.setdefault(ev, d) != d:
            return f"event {ev} has two signature values"
    if sum(1 for v in sig.values() if v) > max_non_obeying:
        return "more than two non-obeying events"
    return None


def reachability_problem(
    ts, regions_members: list[list[str]], markings: dict, graph
) -> Optional[str]:
    """The reachability graph ``graph``, whose state names map to marked
    places in ``markings``, is the image of ``ts`` under the map from a state
    to the places p<k> of the regions that contain it, and that map is a
    bijection onto the reachable markings that keeps the initial state and
    every arc."""
    marking_of: dict[str, set[str]] = {s: set() for s in ts.states}
    for k, members in enumerate(regions_members):
        for s in members:
            marking_of[s].add(f"p{k}")
    image = {s: frozenset(m) for s, m in marking_of.items()}
    if len(set(image.values())) != len(image):
        return "two states map to one marking"
    name_of = {frozenset(m): name for name, m in markings.items()}
    if set(name_of) != set(image.values()):
        return "reachable markings differ from the states' markings"
    if name_of[image[ts.initial]] != graph.initial:
        return "the initial state does not map to the initial marking"
    expected = {(name_of[image[s]], ev, name_of[image[t]]) for s, ev, t in ts.edges}
    if set(graph.edges) != expected or len(graph.edges) != len(ts.edges):
        return "reachability graph arcs differ from the mapped TS arcs"
    return None
