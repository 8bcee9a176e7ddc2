"""Unions of disjoint transition systems, joining, region lifting, rectification.

A union treats an ordered collection of state-disjoint TSs as one system:
regions, SSP and ESSP are defined over the aggregate state set with one
shared signature, which is exactly what the region solver computes on the
disconnected graph.  ``join`` chains the components into a single TS with
fresh connector states and events; by the joining equivalence this
preserves SSP and feasibility in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .regions import Region, _witness_regions
from .ts import (
    Edge, ParseError, TransitionSystem, _header_lines, _linear_chain, _read_ts, _System,
    _write_ts, parse_ts,
)

__all__ = [
    "TsUnion",
    "JoinPlan",
    "make_union",
    "join",
    "default_join_plan",
    "lift_region",
    "rectify",
    "rectified_name",
    "original_name",
    "parse_union",
    "serialize_union",
]


class TsUnion(_System):
    """Ordered collection of state-disjoint TSs viewed as one system."""

    # ``_index`` (see ensynth.ts._System) numbers each state by its component.
    __slots__ = ("components", "states", "events", "edges", "component_of")

    def __init__(self, components: Sequence[TransitionSystem]):
        components = tuple(components)
        if not components:
            raise ValueError("a union needs at least one component")
        states: list[str] = []
        events: dict[str, None] = {}
        edges: list[Edge] = []
        component_of: dict[str, int] = {}
        for i, comp in enumerate(components):
            for s in comp.states:
                if s in component_of:
                    raise ValueError(
                        f"state {s!r} appears in components "
                        f"{component_of[s]} and {i}"
                    )
                component_of[s] = i
                states.append(s)
            for e in comp.events:
                events.setdefault(e, None)
            edges.extend(comp.edges)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "component_of", component_of)
        object.__setattr__(self, "_index", None)

    def __reduce__(self):
        # Copies and pickles rebuild from the components; the index starts empty.
        return TsUnion, (self.components,)

    def _component_ids(self) -> tuple[int, ...]:
        return tuple(map(self.component_of.__getitem__, self.states))

    def __eq__(self, other):
        if not isinstance(other, TsUnion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"TsUnion({len(self.components)} components, {len(self.states)} states)"


def make_union(items: Iterable[TransitionSystem | TsUnion]) -> TsUnion:
    """Union of TSs and unions; nested unions are flattened in order."""
    flat: list[TransitionSystem] = []
    for item in items:
        if isinstance(item, TsUnion):
            flat.extend(item.components)
        else:
            flat.append(item)
    return TsUnion(flat)


@dataclass(frozen=True)
class JoinPlan:
    """Terminal states chosen per component (the last one is never used).

    Connector names are derived from the position: state ``z.<i>``, events
    ``y1.<i>`` and ``y2.<i>`` link terminal i-1 to the initial state of
    component i.
    """

    terminals: tuple

    def terminal(self, i: int) -> str:
        t = self.terminals[i]
        if t is None:
            raise ValueError(f"join plan names no terminal for component {i}")
        return t

    def _check_fits(self, union: TsUnion) -> None:
        if len(self.terminals) != len(union.components):
            raise ValueError("join plan does not match the number of components")


def default_join_plan(union: TsUnion) -> JoinPlan:
    """Terminals default to the actual terminal state of linear components;
    non-linear components must be given explicitly."""
    terminals = []
    for comp in union.components:
        chain = _linear_chain(comp)
        terminals.append(chain[0][-1] if chain else None)
    return JoinPlan(tuple(terminals))


def join(union: TsUnion, plan: JoinPlan | None = None) -> TransitionSystem:
    """Chain the components of a union into one TS via fresh connectors."""
    if plan is None:
        plan = default_join_plan(union)
    plan._check_fits(union)
    comps = union.components
    for i in range(len(comps) - 1):
        t = plan.terminal(i)
        if t not in comps[i].states:
            raise ValueError(f"terminal {t!r} is not a state of component {i}")
    if len(comps) == 1:
        return comps[0]

    taken = set(union.states) | set(union.events)
    states: list[str] = list(comps[0].states)
    events: dict[str, None] = dict.fromkeys(comps[0].events)
    edges: list[Edge] = list(comps[0].edges)
    for i in range(1, len(comps)):
        z, y1, y2 = f"z.{i}", f"y1.{i}", f"y2.{i}"
        for name in (z, y1, y2):
            if name in taken:
                raise ValueError(f"connector name {name!r} clashes with the union")
        edges.append((plan.terminal(i - 1), y1, z))
        edges.append((z, y2, comps[i].initial))
        states.append(z)
        states.extend(comps[i].states)
        events[y1] = None
        events[y2] = None
        for e in comps[i].events:
            events.setdefault(e, None)
        edges.extend(comps[i].edges)
    return TransitionSystem(states, events, comps[0].initial, edges)


def lift_region(
    union: TsUnion,
    region: Region,
    extras: Sequence[TransitionSystem],
) -> Region:
    """Extend a region of ``union`` over additional linear components.

    Allowed whenever each extra component has at most one edge whose event
    carries a non-zero signature in the region; the new membership is the
    prefix up to that edge's source (signature -1) or its complement
    (signature +1), and empty when no such edge exists.  The extended
    region keeps the original signature on all old events.
    """
    (region,) = _witness_regions(union, [region])
    sig = region.signature
    members = list(region.members)
    for comp in extras:
        linear = _linear_chain(comp)
        if linear is None:
            raise ValueError("region lifting requires linear extra components")
        chain, word = linear
        constrained = [
            k for k, ev in enumerate(word) if sig.get(ev, 0) != 0
        ]
        if len(constrained) > 1:
            raise ValueError(
                f"component {comp!r} has {len(constrained)} edges with "
                "non-zero constrained signature; lifting needs at most one"
            )
        if not constrained:
            continue  # membership stays empty on this component
        k = constrained[0]
        prefix = chain[: k + 1]
        if sig[word[k]] == 1:
            members.extend(chain[k + 1:])
        else:
            members.extend(prefix)
    extended = make_union([*union.components, *extras])
    return Region.from_members(extended, members)


def rectified_name(tag: tuple[str, str], name: str) -> str:
    """``<event>:<state>:<name>``; the tag's parts double "-" and write ":"
    as "-.", an injective escape that keeps other names as they are."""
    event, state = (part.replace("-", "--").replace(":", "-.") for part in tag)
    return f"{event}:{state}:{name}"


def original_name(name: str) -> str:
    return name.split(":", 2)[2]


def rectify(union: TsUnion, tag: tuple[str, str]) -> TsUnion:
    """Rename all states and events to (event, state, x) triples.

    Regions transport bijectively, and rectified unions with distinct tags
    are state- and event-disjoint (their escaped prefixes differ), so
    independently built gadget unions can be aggregated without clashes.
    """
    return TsUnion(
        tuple(c.rename(lambda x: rectified_name(tag, x)) for c in union.components)
    )


# -- .union file format -------------------------------------------------


def parse_union(text: str, loader=None) -> tuple[TsUnion, "JoinPlan | None", list[str]]:
    """Parse the ``.union`` format.

    ``component <name>`` opens an inline block of ``.ts`` body lines closed
    by ``end``; ``component <name> <path>`` loads a ``.ts`` file through
    ``loader(path)`` and reports an error in it on its ``component`` line.
    ``terminal <component> <state>`` lines assemble a join plan (None when
    no terminal lines appear).  Returns the union, the plan, and the
    component names.  The text is read once, as one stream that also feeds
    the inline bodies, so errors name the file's lines.
    """
    lines = _header_lines(text, ".union")
    names: list[str] = []
    components: list[TransitionSystem] = []
    terminals: dict[str, tuple[str, int]] = {}  # component -> (state, line)
    for number, line in lines:
        fields = line.split()
        if fields[0] == "component":
            if len(fields) not in (2, 3):
                raise ParseError("component takes a name and optional path", number)
            name = fields[1]
            if len(fields) == 2:
                components.append(_read_ts(_component_body(lines, name, number), number))
            elif loader is None:
                raise ParseError("no loader for component file references", number)
            else:
                try:
                    components.append(parse_ts(loader(fields[2])))
                except ValueError as exc:
                    raise ParseError(f"{fields[2]}: {exc}", number) from exc
            if name in names:
                raise ParseError(f"duplicate component name {name!r}", number)
            names.append(name)
        elif fields[0] == "terminal":
            if len(fields) != 3:
                raise ParseError("terminal takes component and state", number)
            if fields[1] in terminals:
                raise ParseError(f"duplicate terminal for component {fields[1]!r}", number)
            terminals[fields[1]] = (fields[2], number)
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", number)
    union = TsUnion(components)
    plan = None
    if terminals:
        unknown = [name for name in terminals if name not in names]
        if unknown:
            raise ParseError(f"terminal for unknown component {sorted(unknown)}",
                             terminals[unknown[0]][1])
        plan = JoinPlan(tuple(terminals[n][0] if n in terminals else None for n in names))
    return union, plan, names


def _component_body(lines, name: str, number: int):
    """The body of the inline component opened on line ``number``, up to its ``end``."""
    for item in lines:
        if item[1] == "end":
            return
        yield item
    raise ParseError(f"unterminated component {name!r}", number)


def _default_names(count: int) -> list[str]:
    return [f"C{i}" for i in range(count)]


def _terminal_lines(plan: JoinPlan, names: Sequence[str] | None = None) -> list[str]:
    """The ``terminal`` lines of ``serialize_union`` and ``reduce``'s ``.plan`` file."""
    if names is None:
        names = _default_names(len(plan.terminals))
    return [f"terminal {name} {t}" for name, t in zip(names, plan.terminals) if t is not None]


def serialize_union(
    union: TsUnion,
    plan: JoinPlan | None = None,
    names: Sequence[str] | None = None,
) -> str:
    """Canonical inline ``.union`` text.

    A plan is written as its ``terminal`` lines, so a plan that names no
    terminal, which the text could not tell from no plan, is refused, and
    so is one whose length does not match the components.  Names must be
    one per component, distinct, and free of whitespace and ``#``.
    """
    if plan is not None:
        plan._check_fits(union)
        if all(t is None for t in plan.terminals):
            raise ValueError("unserializable join plan: it names no terminal")

    if names is None:
        names = _default_names(len(union.components))
    elif len(names) != len(union.components):
        raise ValueError("component names do not match the number of components")
    seen: set[str] = set()
    for name in names:
        if name.split() != [name] or "#" in name:
            raise ValueError(f"unserializable component name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate component name {name!r}")
        seen.add(name)
    out = [".union"]
    for name, comp in zip(names, union.components):
        out.append(f"component {name}")
        out.extend(_write_ts(comp))
        out.append("end")
    if plan is not None:
        out.extend(_terminal_lines(plan, names))
    return "\n".join(out) + "\n"
