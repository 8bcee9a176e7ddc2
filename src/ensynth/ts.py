"""Transition systems: representation, validation, classification, text format.

A transition system is a finite edge-labeled directed graph with a
distinguished initial state.  Admissible systems are deterministic, simple,
loop-free, reachable from the initial state, and free of unused events;
``validate`` reports every violated condition instead of repairing anything,
because downstream constructions (reachability graphs in particular) produce
graphs that legitimately break simplicity or loop-freeness and still need to
be represented.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Edge",
    "TransitionSystem",
    "TsClass",
    "Violation",
    "ValidationReport",
    "ParseError",
    "validate",
    "classify",
    "linear_word",
    "parse_ts",
    "serialize_ts",
]

IDENTIFIER = re.compile(r"[A-Za-z0-9_.:+-]+\Z")

Edge = tuple[str, str, str]  # (source, event, target)


class _Index:
    """Integer-indexed view of a system, built once and owned by the system.

    ``repeated`` flags the events that occur more than once and ``active``
    their edges: a single-occurrence event absorbs any membership
    difference, so its edge constrains nothing.  ``positions`` holds each
    state position as one shared int, which ``state_pos``, the edge arrays
    and the member tuples of regions reuse.  ``component`` holds the
    component id of each state position, and ``successors`` each state's
    map event -> target, where the last edge wins.
    """

    __slots__ = (
        "states", "events", "state_pos", "event_pos", "esrc", "eev", "edst",
        "event_edges", "state_edges", "active", "repeated", "positions",
        "component", "successors",
    )

    def __init__(self, sys):
        self.states = tuple(sys.states)
        self.events = tuple(sys.events)
        self.positions = tuple(range(len(self.states)))
        state_pos = self.state_pos = dict(zip(self.states, self.positions))
        event_pos = self.event_pos = {e: i for i, e in enumerate(self.events)}
        self.component = sys._component_ids()
        esrc, eev, edst = [], [], []
        event_edges = self.event_edges = [[] for _ in self.events]
        state_edges = self.state_edges = [[] for _ in self.states]
        successors = self.successors = [{} for _ in self.states]
        for src, ev, dst in sys.edges:
            eid = len(esrc)
            s, e, t = state_pos[src], event_pos[ev], state_pos[dst]
            esrc.append(s)
            eev.append(e)
            edst.append(t)
            event_edges[e].append(eid)
            state_edges[s].append(eid)
            state_edges[t].append(eid)
            successors[s][ev] = dst
        self.esrc, self.eev, self.edst = tuple(esrc), tuple(eev), tuple(edst)
        self.repeated = bytearray(len(es) > 1 for es in event_edges)
        self.active = bytearray(self.repeated[e] for e in eev)


def _indexed(sys) -> _Index:
    idx = sys._index
    if idx is None:
        idx = _Index(sys)
        object.__setattr__(sys, "_index", idx)
    return idx


class _System:
    """The protocol a transition system and a union of them share.

    A system has ``states``, ``events`` and ``edges`` and owns one integer
    index, built on first use and kept in its ``_index`` slot; the region
    solver, the deciders, ``successors`` and ``has_edge`` all read it.  A
    system is one component unless its class numbers the components.
    """

    __slots__ = ("_index",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _component_ids(self) -> tuple[int, ...]:
        return (0,) * len(self.states)

    def successors(self, state: str) -> dict[str, str]:
        """Map event -> target for the edges leaving ``state``.

        On nondeterministic graphs the last edge wins; admissible systems
        are deterministic, so this is only a concern for raw graphs.
        """
        idx = self._index or _indexed(self)
        return idx.successors[idx.state_pos[state]]

    def has_edge(self, state: str, event: str) -> bool:
        return event in self.successors(state)


class TransitionSystem(_System):
    """Immutable edge-labeled graph with an initial state.

    State and event identifiers are opaque strings; iteration order is
    declaration order everywhere, so that witnesses and serializations are
    reproducible.  Construction enforces referential integrity only; the
    five admissibility conditions are checked by :func:`validate`.
    """

    # ``_index`` (see :class:`_System`), ``_chain`` (see :func:`_linear_chain`)
    # and ``_twofold`` (the other-occurrence index of ensynth.linear2) are
    # built on first use, never by the constructor.
    __slots__ = ("states", "events", "initial", "edges", "_chain", "_twofold", "_hash")

    def __init__(
        self,
        states: Iterable[str],
        events: Iterable[str],
        initial: str,
        edges: Iterable[Edge],
    ):
        states = tuple(states)
        events = tuple(events)
        edges = tuple(tuple(e) for e in edges)
        state_set = set(states)
        event_set = set(events)
        if len(state_set) != len(states):
            raise ValueError("duplicate state declaration")
        if len(event_set) != len(events):
            raise ValueError("duplicate event declaration")
        if not states:
            raise ValueError("a transition system needs at least one state")
        if initial not in state_set:
            raise ValueError(f"initial state {initial!r} is not a declared state")
        seen = set()
        for src, ev, dst in edges:
            if src not in state_set:
                raise ValueError(f"edge references undeclared state {src!r}")
            if dst not in state_set:
                raise ValueError(f"edge references undeclared state {dst!r}")
            if ev not in event_set:
                raise ValueError(f"edge references undeclared event {ev!r}")
            if (src, ev, dst) in seen:
                raise ValueError(f"duplicate edge {(src, ev, dst)!r}")
            seen.add((src, ev, dst))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_twofold", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_index", None)

    def __reduce__(self):
        # Copies and pickles rebuild from the definition; caches start empty.
        return TransitionSystem, (self.states, self.events, self.initial, self.edges)

    @classmethod
    def from_edges(cls, initial: str, edges: Iterable[Edge],
                   extra_events: Iterable[str] = ()) -> "TransitionSystem":
        """Build a TS declaring states/events in order of first appearance."""
        edges = [tuple(e) for e in edges]
        states: dict[str, None] = {initial: None}
        events: dict[str, None] = {}
        for src, ev, dst in edges:
            states.setdefault(src, None)
            events.setdefault(ev, None)
            states.setdefault(dst, None)
        for ev in extra_events:
            events.setdefault(ev, None)
        return cls(states, events, initial, edges)

    @classmethod
    def chain(cls, word: Sequence[str], prefix: str = "s") -> "TransitionSystem":
        """Linear TS prefix0 -word[0]-> prefix1 -...-> prefixN."""
        edges = [(f"{prefix}{i}", ev, f"{prefix}{i + 1}") for i, ev in enumerate(word)]
        return cls.from_edges(f"{prefix}0", edges)

    def rename(self, fn) -> "TransitionSystem":
        """Apply ``fn`` to every state and event identifier."""
        return TransitionSystem(
            [fn(s) for s in self.states],
            [fn(e) for e in self.events],
            fn(self.initial),
            [(fn(a), fn(e), fn(b)) for a, e, b in self.edges],
        )

    def __eq__(self, other):
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (
            self.states == other.states
            and self.events == other.events
            and self.initial == other.initial
            and set(self.edges) == set(other.edges)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.states, self.events, self.initial, frozenset(self.edges)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return (
            f"TransitionSystem({len(self.states)} states, "
            f"{len(self.events)} events, {len(self.edges)} edges)"
        )


@dataclass(frozen=True)
class TsClass:
    """Tight structural class of a TS: k-fold, g-grade, linearity."""

    manifoldness: int
    degree: int
    linear: bool


@dataclass(frozen=True)
class Violation:
    kind: str  # deterministic | simple | loop-free | reachable | reduced
    offenders: tuple

    def __str__(self):
        items = ", ".join(map(str, self.offenders))
        return f"{self.kind}: {items}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(map(str, self.violations))


def validate(ts: TransitionSystem) -> ValidationReport:
    """Check determinism, simplicity, loop-freeness, reachability, reducedness.

    All violations are reported, not just the first.  Dangling references
    cannot occur here (the constructor rejects them); an empty event set is
    treated as a structural error because no admissible system has one.
    """
    if not ts.events:
        raise ValueError("transition system declares no events")
    violations: list[Violation] = []

    by_source_event: dict[tuple[str, str], list[Edge]] = {}
    by_ends: dict[tuple[str, str], list[Edge]] = {}
    loops = []
    for edge in ts.edges:
        src, ev, dst = edge
        by_source_event.setdefault((src, ev), []).append(edge)
        by_ends.setdefault((src, dst), []).append(edge)
        if src == dst:
            loops.append(edge)
    dups = [es for es in by_source_event.values() if len(es) > 1]
    if dups:
        violations.append(
            Violation("deterministic", tuple(e for es in dups for e in es))
        )
    multi = [es for es in by_ends.values() if len(es) > 1]
    if multi:
        violations.append(Violation("simple", tuple(e for es in multi for e in es)))
    if loops:
        violations.append(Violation("loop-free", tuple(loops)))

    idx = _indexed(ts)
    reached = {idx.state_pos[ts.initial]}
    frontier = list(reached)
    while frontier:
        s = frontier.pop()
        for eid in idx.state_edges[s]:  # every edge, not one per event
            t = idx.edst[eid]
            if idx.esrc[eid] == s and t not in reached:
                reached.add(t)
                frontier.append(t)
    unreached = tuple(s for s, i in idx.state_pos.items() if i not in reached)
    if unreached:
        violations.append(Violation("reachable", unreached))

    used = {ev for _, ev, _ in ts.edges}
    unused = tuple(e for e in ts.events if e not in used)
    if unused:
        violations.append(Violation("reduced", unused))

    return ValidationReport(tuple(violations))


def classify(ts: _System) -> TsClass:
    """Tight event manifoldness k, state degree g, and linearity flag."""
    k = max(Counter(ev for _, ev, _ in ts.edges).values(), default=0)
    outdeg = Counter(src for src, _, _ in ts.edges)
    indeg = Counter(dst for _, _, dst in ts.edges)
    g = max([*outdeg.values(), *indeg.values()], default=0)
    return TsClass(manifoldness=k, degree=g, linear=_linear_chain(ts) is not None)


def _linear_chain(ts: _System) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """(states in chain order, event word) of a linear TS, or None.

    A TS is linear when one chain s0 -e1-> ... -et-> st from the initial
    state runs through every state; a union has no initial state, so it is
    never linear.  This is the package's only walk of a chain; it reads the
    edge list, not the index, and its result is cached in the ``_chain``
    slot (``()`` when the TS is not linear).  The chain's states are
    ``ts.states`` itself when declared in chain order.
    """
    if not isinstance(ts, TransitionSystem):
        return None
    chain = ts._chain
    if chain is None:
        chain = ()
        n = len(ts.states)
        # n - 1 edges walked from the initial state through n distinct
        # states are exactly one chain.
        if len(ts.edges) == n - 1:
            step = {edge[0]: edge for edge in ts.edges}
            state = ts.initial
            states, word = [state], []
            while state in step and len(states) < n:
                _, event, state = step[state]
                word.append(event)
                states.append(state)
            if len(set(states)) == n:
                states = tuple(states)
                # States declared in chain order are not stored twice.
                chain = (ts.states if states == ts.states else states, tuple(word))
        object.__setattr__(ts, "_chain", chain)
    return chain or None


def linear_word(ts: _System) -> list[str]:
    """Event sequence e1..et of a linear TS, in chain order."""
    chain = _linear_chain(ts)
    if chain is None:
        raise ValueError("linear_word requires a linear transition system")
    return list(chain[1])


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_identifier(token: str, line: int) -> str:
    if not IDENTIFIER.match(token):
        raise ParseError(f"invalid identifier {token!r}", line)
    return token


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def parse_ts(text: str) -> TransitionSystem:
    """Parse the line-based ``.ts`` format.

    Grammar: a ``.ts`` header, exactly one ``initial <state>`` line, zero or
    more ``edge <source> <event> <target>`` lines, optional ``event <name>``
    forced declarations, ``#`` comments.  The initial state is declared
    first, wherever its line stands; other states and events are declared
    by first use.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty input, expected a .ts header")
    header_no, header = lines[0]
    if header != ".ts":
        raise ParseError(f"expected '.ts' header, found {header!r}", header_no)

    initial: str | None = None
    states: dict[str, None] = {}
    events: dict[str, None] = {}
    edges: list[Edge] = []
    for number, line in lines[1:]:
        fields = line.split()
        if fields[0] == "initial":
            if len(fields) != 2:
                raise ParseError("initial takes exactly one state", number)
            if initial is not None:
                raise ParseError("duplicate initial declaration", number)
            initial = _check_identifier(fields[1], number)
        elif fields[0] == "event":
            if len(fields) != 2:
                raise ParseError("event takes exactly one name", number)
            events.setdefault(_check_identifier(fields[1], number), None)
        elif fields[0] == "edge":
            if len(fields) != 4:
                raise ParseError("edge takes source, event, target", number)
            src, ev, dst = (_check_identifier(f, number) for f in fields[1:])
            states.setdefault(src, None)
            events.setdefault(ev, None)
            states.setdefault(dst, None)
            edges.append((src, ev, dst))
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", number)
    if initial is None:
        raise ParseError("missing initial declaration")
    return TransitionSystem({initial: None, **states}, events, initial, edges)


def serialize_ts(ts: TransitionSystem) -> str:
    """Canonical text for a TS; parse(serialize(ts)) == ts.

    Events are declared by first use, so an ``event`` line is written only
    where an event would otherwise be declared out of order: just before
    the edge that first uses a later event, or at the end.  States can only
    be declared by first use, so any other state order is rejected.
    """
    first_use = tuple(dict.fromkeys([ts.initial, *(s for e in ts.edges for s in e[::2])]))
    if first_use != ts.states:
        bad = next(s for s, u in zip(ts.states, first_use + (None,)) if s != u)
        raise ValueError(f"unserializable state order: {bad!r} is isolated or out of first-use order")
    out = [".ts", f"initial {ts.initial}"]
    undeclared = iter(ts.events)
    declared: set[str] = set()
    for src, ev, dst in ts.edges:
        if ev not in declared:
            for early in undeclared:
                declared.add(early)
                if early == ev:
                    break
                out.append(f"event {early}")
        out.append(f"edge {src} {ev} {dst}")
    out.extend(f"event {ev}" for ev in undeclared)
    return "\n".join(out) + "\n"
