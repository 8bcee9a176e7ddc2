"""Transition systems: representation, validation, classification, text format.

A transition system is a finite edge-labeled directed graph with a
distinguished initial state.  Admissible systems are deterministic, simple,
loop-free, reachable from the initial state, and free of unused events;
``validate`` reports every violated condition instead of repairing anything,
because downstream constructions (reachability graphs in particular) produce
graphs that legitimately break simplicity or loop-freeness and still need to
be represented.

Building a system costs about its own size.  The constructor checks whole
columns with set passes, ``TransitionSystem.chain`` and ``parse_ts`` store
each name once and share it between the states tuple and the edges, and
every format with a header is read as one stream of lines.  A ``.ts`` body
has one reader and one writer, which ``.union`` components share.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
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


def _edge_tuple(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """``edges`` as a tuple of 3-tuples, each tuple edge kept as it is.

    An edge that is a string, or that does not have exactly three items,
    raises ``ValueError`` naming it; other three-item edges become tuples.
    """
    edges = tuple(edges)
    if set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {3}:
        return edges
    checked = []
    for edge in edges:
        items = () if isinstance(edge, str) else tuple(edge)
        if len(items) != 3:
            raise ValueError(f"malformed edge {edge!r}")
        checked.append(items)
    return tuple(checked)


def _first_use_states(initial: str, edges: Iterable[Edge]) -> dict[str, None]:
    """The initial state, then every edge's source and target in first-use order."""
    states = {initial: None}
    for src, _, dst in edges:
        states[src] = states[dst] = None  # assigned left to right
    return states


def _first_bad_edge(state_set: set, event_set: set, edges: tuple[Edge, ...]) -> str | None:
    """The error for the first edge, in order, that references an undeclared
    state or event or repeats an earlier edge; ``None`` if no edge does."""
    seen = set()
    for edge in edges:
        src, ev, dst = edge
        if src not in state_set:
            return f"edge references undeclared state {src!r}"
        if dst not in state_set:
            return f"edge references undeclared state {dst!r}"
        if ev not in event_set:
            return f"edge references undeclared event {ev!r}"
        if edge in seen:
            return f"duplicate edge {edge!r}"
        seen.add(edge)


class _Index:
    """Integer-indexed view of a system, built once and owned by the system.

    ``edges`` holds each edge once, as a (source, event, target) triple of
    positions, and ``once`` flags the edges whose event occurs only once.
    ``state_edges`` lists each state's edges once, a self-loop included.
    ``positions`` holds each state position as one shared int, which
    ``state_pos``, the edge triples and the member tuples of regions reuse.
    ``component`` holds the component id of each state position.
    """

    __slots__ = (
        "states", "events", "state_pos", "event_pos", "edges", "event_edges",
        "state_edges", "once", "positions", "component",
    )

    def __init__(self, sys):
        self.states = tuple(sys.states)
        self.events = tuple(sys.events)
        self.positions = tuple(range(len(self.states)))
        state_pos = self.state_pos = dict(zip(self.states, self.positions))
        event_pos = self.event_pos = {e: i for i, e in enumerate(self.events)}
        self.component = sys._component_ids()
        edges = []
        event_edges = self.event_edges = [[] for _ in self.events]
        state_edges = self.state_edges = [[] for _ in self.states]
        for src, ev, dst in sys.edges:
            eid = len(edges)
            s, e, t = state_pos[src], event_pos[ev], state_pos[dst]
            edges.append((s, e, t))
            event_edges[e].append(eid)
            state_edges[s].append(eid)
            if t != s:
                state_edges[t].append(eid)
        self.edges = tuple(edges)
        self.once = bytes(len(event_edges[e]) == 1 for _, e, _ in edges)


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
        """A new map event -> target for the edges leaving ``state``.

        On nondeterministic graphs the last edge wins; admissible systems
        are deterministic, so this is only a concern for raw graphs.
        """
        idx = _indexed(self)
        s = idx.state_pos[state]
        edges = idx.edges
        return {idx.events[e]: idx.states[t]
                for a, e, t in map(edges.__getitem__, idx.state_edges[s]) if a == s}

    def has_edge(self, state: str, event: str) -> bool:
        return event in self.successors(state)


class TransitionSystem(_System):
    """Immutable edge-labeled graph with an initial state.

    State and event identifiers are opaque strings; iteration order is
    declaration order everywhere, so that witnesses and serializations are
    reproducible.  Construction enforces well-formed edges (three items, not
    a string), referential integrity and distinct declarations and edges
    only; the five admissibility conditions are checked by :func:`validate`.
    """

    # ``_index`` (see :class:`_System`), ``_chain`` (see :func:`_linear_chain`)
    # and ``_twofold`` (the other-occurrence index of ensynth.linear2) are
    # built on first use, never by the constructor.
    __slots__ = ("states", "events", "initial", "edges", "_chain", "_twofold")

    def __init__(
        self,
        states: Iterable[str],
        events: Iterable[str],
        initial: str,
        edges: Iterable[Edge],
    ):
        states = tuple(states)
        events = tuple(events)
        edges = _edge_tuple(edges)
        # The edge set is dropped before the state and event sets are
        # built, so that the three never coexist.
        distinct = len(set(edges)) == len(edges)
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
        # Whole-column passes; the per-edge walk runs only to name the
        # first offending edge once one of them has failed.
        if not (
            distinct
            and state_set.issuperset(map(itemgetter(0), edges))
            and state_set.issuperset(map(itemgetter(2), edges))
            and event_set.issuperset(map(itemgetter(1), edges))
        ):
            raise ValueError(_first_bad_edge(state_set, event_set, edges))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_twofold", None)
        object.__setattr__(self, "_index", None)

    def __reduce__(self):
        # Copies and pickles rebuild from the definition; caches start empty.
        return TransitionSystem, (self.states, self.events, self.initial, self.edges)

    @classmethod
    def from_edges(cls, initial: str, edges: Iterable[Edge],
                   extra_events: Iterable[str] = ()) -> "TransitionSystem":
        """Build a TS declaring states/events in order of first appearance."""
        edges = _edge_tuple(edges)
        events = dict.fromkeys(itertools.chain(map(itemgetter(1), edges), extra_events))
        return cls(_first_use_states(initial, edges), events, initial, edges)

    @classmethod
    def chain(cls, word: Sequence[str], prefix: str = "s") -> "TransitionSystem":
        """Linear TS prefix0 -word[0]-> prefix1 -...-> prefixN.

        Each state name is made once and shared by the states tuple and
        the edges that enter and leave it.
        """
        states = tuple(f"{prefix}{i}" for i in range(len(word) + 1))
        edges = zip(states, word, itertools.islice(states, 1, None))
        return cls(states, dict.fromkeys(word), states[0], edges)

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
            and (self.edges == other.edges or set(self.edges) == set(other.edges))
        )

    def __hash__(self):
        return hash((self.states, self.events, self.initial, frozenset(self.edges)))

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
    kind: str  # events | deterministic | simple | loop-free | reachable | reduced
    offenders: tuple  # empty for events: none is declared

    def __str__(self):
        items = ", ".join(map(str, self.offenders)) or "none declared"
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
    """Check events, determinism, simplicity, loop-freeness, reachability, reducedness.

    All violations are reported, not just the first.  Dangling references
    cannot occur here (the constructor rejects them).  No admissible system
    has an empty event set: it is the violation ``events: none declared``.
    """
    violations = [] if ts.events else [Violation("events", ())]

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
            a, _, t = idx.edges[eid]
            if a == s and t not in reached:
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
    slot (``()`` when the TS is not linear).  A chain declared in order,
    edge k running from ``ts.states[k]`` to ``ts.states[k + 1]``, is
    recognised by comparing the edge columns with the states, with no
    per-edge map, and its states are ``ts.states`` itself.
    """
    if not isinstance(ts, TransitionSystem):
        return None
    chain = ts._chain
    if chain is None:
        chain = ()
        states, edges = ts.states, ts.edges
        n = len(states)
        if len(edges) == n - 1:
            if (states[0] == ts.initial
                    and tuple(map(itemgetter(0), edges)) == states[:-1]
                    and tuple(map(itemgetter(2), edges)) == states[1:]):
                chain = (states, tuple(map(itemgetter(1), edges)))
            else:
                # n - 1 edges walked from the initial state through n
                # distinct states are exactly one chain.
                step = {edge[0]: edge for edge in edges}
                state = ts.initial
                walked, word = [state], []
                while state in step and len(walked) < n:
                    _, event, state = step[state]
                    word.append(event)
                    walked.append(state)
                if len(set(walked)) == n:
                    walked = tuple(walked)
                    # States declared in chain order are not stored twice.
                    chain = (states if walked == states else walked, tuple(word))
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


def _check_writable(names: Sequence[str]) -> None:
    """Refuse the first of ``names`` that is not an identifier, which no
    reader would take back."""
    for name in names:
        if not IDENTIFIER.match(name):
            raise ValueError(f"unserializable name {name!r}: not an identifier")


def _content_lines(text: str):
    """(line number, content) of each line of ``text.splitlines()`` that
    holds more than a comment."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _header_lines(text: str, header: str):
    """The stream of content lines of ``text`` after its first, which must
    be ``header``: the one header rule of every format that has one."""
    lines = _content_lines(text)
    number, found = next(lines, (None, None))
    if found is None:
        raise ParseError(f"empty input, expected a {header} header")
    if found != header:
        raise ParseError(f"expected '{header}' header, found {found!r}", number)
    return lines


def parse_ts(text: str) -> TransitionSystem:
    """Parse the line-based ``.ts`` format.

    Grammar: a ``.ts`` header, exactly one ``initial <state>`` line, zero or
    more ``edge <source> <event> <target>`` lines, optional ``event <name>``
    forced declarations, ``#`` comments.  The initial state is declared
    first, wherever its line stands; other states and events are declared
    by first use.
    """
    return _read_ts(_header_lines(text, ".ts"))


def _read_ts(lines, start: int | None = None) -> TransitionSystem:
    """The system of a stream of (line number, content) ``.ts`` body lines;
    a missing ``initial`` is reported on line ``start``.

    Each identifier is checked once, at its first use, and stored once, so
    an edge's target and the next edge's source are one string; the table
    that shares them lives only while the lines are read.
    """
    names: dict[str, str] = {}

    def name(token: str, number: int) -> str:
        known = names.get(token)
        if known is None:
            known = names[token] = _check_identifier(token, number)
        return known

    initial: str | None = None
    events: dict[str, None] = {}
    edges: list[Edge] = []
    for number, line in lines:
        fields = line.split()
        if fields[0] == "initial":
            if len(fields) != 2:
                raise ParseError("initial takes exactly one state", number)
            if initial is not None:
                raise ParseError("duplicate initial declaration", number)
            initial = name(fields[1], number)
        elif fields[0] == "event":
            if len(fields) != 2:
                raise ParseError("event takes exactly one name", number)
            events.setdefault(name(fields[1], number), None)
        elif fields[0] == "edge":
            if len(fields) != 4:
                raise ParseError("edge takes source, event, target", number)
            edge = (name(fields[1], number), name(fields[2], number), name(fields[3], number))
            events.setdefault(edge[1], None)
            edges.append(edge)
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", number)
    if initial is None:
        raise ParseError("missing initial declaration", start)
    del names  # the name table goes before the system is built
    return TransitionSystem(_first_use_states(initial, edges), events, initial, edges)


def serialize_ts(ts: TransitionSystem) -> str:
    """Canonical text for a TS; parse(serialize(ts)) == ts."""
    return "\n".join([".ts", *_write_ts(ts)]) + "\n"


def _write_ts(ts: TransitionSystem) -> list[str]:
    """The ``.ts`` body lines of a TS, without the header.

    Events are declared by first use, so an ``event`` line is written only
    where an event would otherwise be declared out of order: just before
    the edge that first uses a later event, or at the end.  States can only
    be declared by first use, so any other state order is rejected, and so
    is a name that is not an identifier.
    """
    _check_writable(ts.states + ts.events)
    first_use = tuple(_first_use_states(ts.initial, ts.edges))
    if first_use != ts.states:
        bad = next(s for s, u in zip(ts.states, first_use + (None,)) if s != u)
        raise ValueError(f"unserializable state order: {bad!r} is isolated or out of first-use order")
    out = [f"initial {ts.initial}"]
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
    return out
