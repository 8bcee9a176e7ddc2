"""Region-restricted net synthesis, marking semantics, reachability graphs.

A witness set of regions becomes an elementary net system: one boolean
place per region, one transition per event, flow arcs from the signature
(exit events consume the place, enter events produce it), and the initial
marking collects the regions containing the initial state.  Firing swaps
input places for output places; the reachability graph explores markings
breadth-first.  Degenerate witness sets yield graphs with loops or
multi-edges, so the graph is returned raw together with its validation
report instead of being rejected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .regions import Region, _witness_regions
from .ts import (
    Edge,
    ParseError,
    TransitionSystem,
    ValidationReport,
    _check_identifier,
    _check_writable,
    _header_lines,
    validate,
)

__all__ = [
    "ElementaryNetSystem",
    "synthesize",
    "fire",
    "ReachabilityGraph",
    "reachability_graph",
    "check_morphism",
    "ts_isomorphic",
    "language_equal",
    "parse_ens",
    "serialize_ens",
]


_AMBIGUOUS = "both ends name a place and a transition"


@dataclass(frozen=True)
class ElementaryNetSystem:
    """Places, transitions, flow arcs, initial marking.

    A flow pair (a, b) is read as place -> transition or as transition ->
    place, whichever fits the declarations; a pair that fits both or
    neither is refused, and so are a place or transition declared more
    than once and an initially marked place that is not declared.  The
    input and output places of every transition are computed once, on
    first use, and kept in ``_index``.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    flows: frozenset[tuple[str, str]]
    initial_marking: frozenset[str]
    _index: Optional[tuple[dict, dict]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def inputs(self, transition: str) -> frozenset[str]:
        return _net_index(self)[0].get(transition, frozenset())

    def outputs(self, transition: str) -> frozenset[str]:
        return _net_index(self)[1].get(transition, frozenset())


def _net_index(net: ElementaryNetSystem) -> tuple[dict, dict]:
    """(input places, output places) of every transition, by name."""
    index = net._index
    if index is None:
        places, transitions = set(net.places), set(net.transitions)
        for kind, names, distinct in (("place", net.places, places),
                                      ("transition", net.transitions, transitions)):
            if len(distinct) != len(names):
                name = next(n for n, count in Counter(names).items() if count > 1)
                raise ValueError(f"{kind} {name!r} is declared more than once")
        pre: dict[str, set[str]] = {t: set() for t in net.transitions}
        post: dict[str, set[str]] = {t: set() for t in net.transitions}
        ambiguous, dangling = [], []
        for a, b in net.flows:
            consumes = a in places and b in transitions
            produces = a in transitions and b in places
            if consumes and produces:
                ambiguous.append((a, b))
            elif consumes:
                pre[b].add(a)
            elif produces:
                post[a].add(b)
            else:
                dangling.append((a, b))
        if ambiguous:
            a, b = min(ambiguous)
            raise ValueError(f"ambiguous flow {a} -> {b}: {_AMBIGUOUS}")
        if dangling:
            a, b = min(dangling)
            raise ValueError(f"flow {a} -> {b} does not connect a declared place and transition")
        if not net.initial_marking <= places:
            p = min(net.initial_marking - places)
            raise ValueError(f"initially marked place {p!r} is not declared")
        index = (
            {t: frozenset(ps) for t, ps in pre.items()},
            {t: frozenset(ps) for t, ps in post.items()},
        )
        object.__setattr__(net, "_index", index)
    return index


def synthesize(ts: TransitionSystem, regions: Sequence[Region]) -> ElementaryNetSystem:
    """Net whose places are the given witness regions of ``ts``.

    Place ``p<i>`` corresponds to the i-th region; (p, e) is a flow arc iff
    e exits the region, (e, p) iff e enters it; p is initially marked iff
    the region contains the initial state.
    """
    regions = list(_witness_regions(ts, regions))
    places = tuple(f"p{i}" for i in range(len(regions)))
    flows: set[tuple[str, str]] = set()
    marked: set[str] = set()
    for name, region in zip(places, regions):
        for e, v in region._cut_events():  # the non-obeying events
            flows.add((name, e) if v == -1 else (e, name))
        if ts.initial in region:
            marked.add(name)
    return ElementaryNetSystem(places, tuple(ts.events), frozenset(flows), frozenset(marked))


def fire(
    net: ElementaryNetSystem, marking: frozenset[str], event: str
) -> Optional[frozenset[str]]:
    """Successor marking, or None when the event is not enabled.

    Enabled iff all input places are marked and no output place is; the
    result removes the inputs and adds the outputs.  An event with no flow
    arcs fires as the identity.
    """
    pre, post = _net_index(net)
    if event not in pre:
        raise ValueError(f"unknown transition {event!r}")
    inputs, outputs = pre[event], post[event]
    if not inputs <= marking or outputs & marking:
        return None
    return (marking - inputs) | outputs


@dataclass(frozen=True)
class ReachabilityGraph:
    """Raw reachability graph plus its validation report and marking table."""

    ts: TransitionSystem
    report: ValidationReport
    markings: dict[str, frozenset[str]]


def reachability_graph(net: ElementaryNetSystem) -> ReachabilityGraph:
    """BFS over reachable markings; states are named M0, M1, ... in BFS order.

    A transition can fire only where its first input place (in place
    order) is marked, so each marking tries the transitions indexed under
    its marked places and those without input places, in transition order.
    The result can violate loop-freeness or simplicity (e.g. flowless
    events loop on every marking), which the attached report records.
    """
    pre, post = _net_index(net)
    place_pos = {p: i for i, p in enumerate(net.places)}
    arcs = [(e, pre[e], post[e]) for e in net.transitions]
    guarded: dict[str, list[int]] = {}  # place -> transitions indexed under it
    unguarded: list[int] = []  # transitions without input places
    for k, (_, inputs, _) in enumerate(arcs):
        if inputs:
            guarded.setdefault(min(inputs, key=place_pos.__getitem__), []).append(k)
        else:
            unguarded.append(k)
    names: dict[frozenset[str], str] = {net.initial_marking: "M0"}
    order = [net.initial_marking]
    edges: list[Edge] = []
    head = 0
    while head < len(order):
        marking = order[head]
        head += 1
        candidates = unguarded.copy()
        for p in guarded.keys() & marking:
            candidates += guarded[p]
        candidates.sort()
        for k in candidates:
            e, inputs, outputs = arcs[k]
            if not inputs <= marking or not outputs.isdisjoint(marking):
                continue
            nxt = (marking - inputs) | outputs
            name = names.get(nxt)
            if name is None:
                name = f"M{len(names)}"
                names[nxt] = name
                order.append(nxt)
            edges.append((names[marking], e, name))
    ts = TransitionSystem(
        [names[m] for m in order], net.transitions, "M0", edges
    )
    return ReachabilityGraph(ts, validate(ts), {names[m]: m for m in order})


def check_morphism(ts: TransitionSystem, regions: Iterable[Region]) -> bool:
    """Is s -> {regions containing s} a surjective morphism onto the
    reachability graph of the synthesized net?

    It is always a morphism: ``synthesize`` accepts only regions, and an
    edge s -e-> s' fires from the places of s to exactly the places of s'
    (an exit place holds s and not s', an entry place s' and not s, any
    other place both or neither).  So it is onto iff every reachable
    marking is some state's.  An ESSP witness set gives such a morphism;
    the converse fails, so a True answer does not make the set a witness.
    """
    regions = list(regions)
    net = synthesize(ts, regions)
    places_of: list[list[str]] = [[] for _ in ts.states]
    for place, region in zip(net.places, regions):
        for p in region._member_positions():
            places_of[p].append(place)
    return set(map(frozenset, places_of)) == set(reachability_graph(net).markings.values())


def _out_maps(ts: TransitionSystem, what: str) -> dict[str, dict[str, str]]:
    """State -> (event -> target) in one pass, refusing nondeterminism."""
    out: dict[str, dict[str, str]] = {s: {} for s in ts.states}
    for src, ev, dst in ts.edges:
        succ = out[src]
        if ev in succ:
            raise ValueError(f"{what} requires deterministic transition systems")
        succ[ev] = dst
    return out


def ts_isomorphic(a: TransitionSystem, b: TransitionSystem) -> bool:
    """Label- and initial-state-preserving isomorphism of deterministic TSs.

    Deterministic reachable systems admit at most one such isomorphism, so
    a canonical BFS relabeling decides it.
    """
    def canon(ts: TransitionSystem):
        out = _out_maps(ts, "ts_isomorphic")
        index = {ts.initial: 0}
        order = [ts.initial]
        edges = []
        for s in order:  # the loop reaches the states it appends
            for ev, t in sorted(out[s].items()):
                if t not in index:
                    index[t] = len(index)
                    order.append(t)
                edges.append((index[s], ev, index[t]))
        return (len(ts.states), len(index), sorted(set(ts.events)), edges)

    return canon(a) == canon(b)


def language_equal(a: TransitionSystem, b: TransitionSystem) -> bool:
    """Equality of the prefix-closed label languages of two deterministic TSs.

    Synchronized product traversal: the languages differ iff some reachable
    state pair enables an event on exactly one side.
    """
    out_a, out_b = _out_maps(a, "language_equal"), _out_maps(b, "language_equal")
    seen = {(a.initial, b.initial)}
    frontier = [(a.initial, b.initial)]
    while frontier:
        sa, sb = frontier.pop()
        succ_a, succ_b = out_a[sa], out_b[sb]
        if succ_a.keys() != succ_b.keys():
            return False
        for ev, ta in succ_a.items():
            pair = (ta, succ_b[ev])
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return True


# -- .ens file format -----------------------------------------------------


def parse_ens(text: str) -> ElementaryNetSystem:
    places: dict[str, None] = {}
    transitions: dict[str, None] = {}
    flows: dict[tuple[str, str], int] = {}  # pair -> line number
    marked: list[str] = []
    for number, line in _header_lines(text, ".ens"):
        fields = line.split()
        if fields[0] == "place" and len(fields) == 2:
            places.setdefault(_check_identifier(fields[1], number), None)
        elif fields[0] == "transition" and len(fields) == 2:
            transitions.setdefault(_check_identifier(fields[1], number), None)
        elif fields[0] == "flow" and len(fields) == 4 and fields[2] == "->":
            src, dst = fields[1], fields[3]
            if (src in places and dst in transitions) or (
                src in transitions and dst in places
            ):
                flows.setdefault((src, dst), number)
            else:
                raise ParseError(
                    "flow must connect a declared place and transition", number
                )
        elif fields[0] == "initial":
            for p in fields[1:]:
                if p not in places:
                    raise ParseError(f"initial references unknown place {p!r}", number)
                marked.append(p)
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", number)
    both = places.keys() & transitions.keys()
    for (src, dst), number in flows.items():
        if src in both and dst in both:
            raise ParseError(f"ambiguous flow {src} -> {dst}: {_AMBIGUOUS}", number)
    return ElementaryNetSystem(
        tuple(places), tuple(transitions), frozenset(flows), frozenset(marked)
    )


def serialize_ens(net: ElementaryNetSystem) -> str:
    """Declarations, then the place -> transition arcs by place, then the
    transition -> place arcs by transition, each in declaration order.
    A name that is not an identifier is refused."""
    pre, post = _net_index(net)
    _check_writable((*net.places, *net.transitions))
    place_pos = {p: i for i, p in enumerate(net.places)}
    out = [".ens"]
    out.extend(f"place {p}" for p in net.places)
    out.extend(f"transition {t}" for t in net.transitions)
    consumed = sorted(
        (place_pos[p], k) for k, t in enumerate(net.transitions) for p in pre[t]
    )
    out.extend(f"flow {net.places[i]} -> {net.transitions[k]}" for i, k in consumed)
    for t in net.transitions:
        produced = sorted(post[t], key=place_pos.__getitem__)
        out.extend(f"flow {t} -> {p}" for p in produced)
    marked = [p for p in net.places if p in net.initial_marking]
    if marked:
        out.append("initial " + " ".join(marked))
    return "\n".join(out) + "\n"
