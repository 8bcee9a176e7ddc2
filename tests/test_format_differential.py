"""Differential checks of the ``.union`` and ``.ens`` readers and writers
against the ones they replaced, which are kept below as references.

The references listed a file's lines before reading them, and the union
reader joined each inline component's lines into a new ``.ts`` text and
parsed that a second time, so it numbered a component's lines from the
component's start.  The readers now read one stream through the one header
rule, so only these differences are allowed: an error inside a component
names the file's line, every ``.union`` error names a line, the header
errors use the ``.ts`` wording, and a malformed body line of an
unterminated component is reported before the missing ``end``.
"""

from __future__ import annotations

import ast
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from ensynth.cli import run
from ensynth.synthesis import (
    _AMBIGUOUS, ElementaryNetSystem, _net_index, parse_ens, serialize_ens,
)
from ensynth.ts import (
    ParseError, TransitionSystem, _check_identifier, _content_lines, parse_ts, serialize_ts,
)
from ensynth.unions import JoinPlan, TsUnion, parse_union, serialize_union

from corpus import PHI6, random_deterministic_ts, reversed_declaration

EXAMPLES = settings(max_examples=200, deadline=None)


# -- the listing readers and the splitting writers, kept as references ----


def reference_parse_union(text, loader=None):
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != ".union":
        raise ParseError("expected '.union' header", lines[0][0] if lines else None)
    names, components, terminals = [], [], {}
    i = 1
    while i < len(lines):
        number, line = lines[i]
        fields = line.split()
        if fields[0] == "component":
            if len(fields) == 2:
                name = fields[1]
                body = [".ts"]
                i += 1
                while i < len(lines) and lines[i][1] != "end":
                    body.append(lines[i][1])
                    i += 1
                if i == len(lines):
                    raise ParseError(f"unterminated component {name!r}", number)
                components.append(parse_ts("\n".join(body)))
            elif len(fields) == 3:
                name = fields[1]
                if loader is None:
                    raise ParseError("no loader for component file references", number)
                components.append(parse_ts(loader(fields[2])))
            else:
                raise ParseError("component takes a name and optional path", number)
            if name in names:
                raise ParseError(f"duplicate component name {name!r}", number)
            names.append(name)
        elif fields[0] == "terminal":
            if len(fields) != 3:
                raise ParseError("terminal takes component and state", number)
            if fields[1] in terminals:
                raise ParseError(f"duplicate terminal for component {fields[1]!r}", number)
            terminals[fields[1]] = fields[2]
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", number)
        i += 1
    union = TsUnion(components)
    plan = None
    if terminals:
        unknown = set(terminals) - set(names)
        if unknown:
            raise ParseError(f"terminal for unknown component {sorted(unknown)}")
        plan = JoinPlan(tuple(terminals.get(n) for n in names))
    return union, plan, names


def reference_serialize_union(union, plan=None, names=None):
    if plan is not None:
        if len(plan.terminals) != len(union.components):
            raise ValueError("join plan does not match the number of components")
        if all(t is None for t in plan.terminals):
            raise ValueError("unserializable join plan: it names no terminal")
    if names is None:
        names = [f"C{i}" for i in range(len(union.components))]
    out = [".union"]
    for name, comp in zip(names, union.components):
        out.append(f"component {name}")
        out.extend(serialize_ts(comp).splitlines()[1:])
        out.append("end")
    if plan is not None:
        for name, terminal in zip(names, plan.terminals):
            if terminal is not None:
                out.append(f"terminal {name} {terminal}")
    return "\n".join(out) + "\n"


def reference_plan_file(plan):
    """The ``.plan`` file that ``ensynth reduce`` built itself."""
    lines = [f"terminal C{i} {t}" for i, t in enumerate(plan.terminals) if t is not None]
    return "\n".join(lines) + "\n"


def reference_parse_ens(text):
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != ".ens":
        raise ParseError("expected '.ens' header", lines[0][0] if lines else None)
    places, transitions, flows, marked = {}, {}, {}, []
    for number, line in lines[1:]:
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
                raise ParseError("flow must connect a declared place and transition", number)
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
        tuple(places), tuple(transitions), frozenset(flows), frozenset(marked))


def reference_serialize_ens(net):
    pre, post = _net_index(net)
    place_pos = {p: i for i, p in enumerate(net.places)}
    out = [".ens"]
    out.extend(f"place {p}" for p in net.places)
    out.extend(f"transition {t}" for t in net.transitions)
    consumed = sorted(
        (place_pos[p], k) for k, t in enumerate(net.transitions) for p in pre[t])
    out.extend(f"flow {net.places[i]} -> {net.transitions[k]}" for i, k in consumed)
    for t in net.transitions:
        out.extend(f"flow {t} -> {p}" for p in sorted(post[t], key=place_pos.__getitem__))
    marked = [p for p in net.places if p in net.initial_marking]
    if marked:
        out.append("initial " + " ".join(marked))
    return "\n".join(out) + "\n"


# -- outcomes ---------------------------------------------------------------


def outcome(fn, *args):
    """The result, or the error's type, message without its ``line N:``
    prefix, and line."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), re.sub(r"^line \d+: ", "", str(exc)), getattr(exc, "line", None)


def failed(result) -> bool:
    return isinstance(result, tuple) and len(result) == 3 and result[0] in (ValueError, ParseError)


def in_new_wording(result, text: str, fmt: str):
    """A reference outcome with the header errors in the ``.ts`` wording."""
    if failed(result) and result[1] == f"expected '{fmt}' header":
        first = next(_content_lines(text), None)
        if first is None:
            return ParseError, f"empty input, expected a {fmt} header", None
        return ParseError, f"expected '{fmt}' header, found {first[1]!r}", first[0]
    return result


QUOTED = r"""('[^']*'|"[^"]*")"""
# message pattern -> what the reported line must hold: its directive, or
# ``None`` when the quoted token must be one of its fields
DIRECTIVES = [
    (r"initial takes|duplicate initial|initial references", "initial"),
    (r"event takes", "event"),
    (r"edge takes", "edge"),
    (r"flow must connect|ambiguous flow", "flow"),
    (r"unterminated component|duplicate component name|component takes|no loader"
     r"|missing initial", "component"),
    (r"terminal takes|duplicate terminal|terminal for unknown", "terminal"),
    (rf"unknown directive {QUOTED}", None),
    (rf"invalid identifier {QUOTED}", None),
]


def assert_line_holds_the_directive(text: str, message: str, line: int) -> None:
    content = text.splitlines()[line - 1].split("#", 1)[0].split()
    header = re.fullmatch(rf"expected '\.\w+' header, found {QUOTED}", message)
    if header:
        assert " ".join(content) == ast.literal_eval(header[1])
        return
    for pattern, directive in DIRECTIVES:
        match = re.match(pattern, message)
        if match and directive is None:
            assert ast.literal_eval(match[1]) in content
            return
        if match:
            assert content[0] == directive
            return
    raise AssertionError(f"no rule for {message!r}")


# -- generated unions and nets ----------------------------------------------


@st.composite
def unions(draw, serializable=True):
    """One to three components (some declare unused events, and unless
    ``serializable`` some declare their states in reverse), names or
    none, and a plan or none; the plan may name no terminal or miss one
    component unless ``serializable``."""
    components = []
    for c in range(draw(st.integers(1, 3))):
        grown = random_deterministic_ts(
            random.Random(draw(st.integers(0, 10**6))),
            draw(st.integers(1, 5)), draw(st.integers(1, 3)))
        unused = draw(st.lists(st.sampled_from(["e0", "e3", "u"]), max_size=2))
        comp = TransitionSystem.from_edges(
            f"c{c}.{grown.initial}",
            [(f"c{c}.{a}", e, f"c{c}.{b}") for a, e, b in grown.edges], unused)
        if not serializable and draw(st.booleans()):
            comp = reversed_declaration(comp)
        components.append(comp)
    names = draw(st.none() | st.lists(
        st.sampled_from(["A", "B", "C", "x.1", "q:3"]),
        min_size=len(components), max_size=len(components), unique=True))
    terminals = [draw(st.none() | st.sampled_from(comp.states)) for comp in components]
    plan = None
    if not serializable and draw(st.booleans()):
        plan = JoinPlan(tuple(terminals[:draw(st.integers(0, len(terminals)))]))
    elif any(terminals) or not serializable:
        plan = JoinPlan(tuple(terminals))
    return TsUnion(components), plan, names


@st.composite
def nets(draw):
    """A net of at most 5 places and 4 transitions whose names may clash,
    so that some flows read both ways."""
    names = ["p0", "p1", "a", "b", "x.1"]
    places = draw(st.lists(st.sampled_from(names), max_size=5, unique=True))
    transitions = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    pairs = sorted({(p, t) for p in places for t in transitions}
                   | {(t, p) for t in transitions for p in places})
    flows = draw(st.sets(st.sampled_from(pairs), max_size=10)) if pairs else set()
    marked = draw(st.sets(st.sampled_from(places))) if places else set()
    return ElementaryNetSystem(tuple(places), tuple(transitions), frozenset(flows),
                               frozenset(marked))


@EXAMPLES
@given(unions(serializable=False))
def test_serialize_union_matches_the_reference(case):
    assert outcome(serialize_union, *case) == outcome(reference_serialize_union, *case)


@EXAMPLES
@given(unions(), st.booleans(), st.booleans())
def test_parse_union_matches_the_reference(case, decorate, by_reference):
    """Serialized unions, also with comments and blank lines, and with the
    first component read from a file."""
    union, plan, names = case
    text = serialize_union(union, plan, names)
    files = {}
    if by_reference:
        head, _, rest = text.partition("\nend\n")
        name = head.split("\n")[1].split()[1]
        files["first.ts"] = serialize_ts(union.components[0])
        text = f".union\ncomponent {name} first.ts\n{rest}"
    if decorate:
        text = "# a union\n\n" + text.replace("\n", "  # note\n\n")
    if names is None:
        names = [f"C{i}" for i in range(len(union.components))]
    loader = files.__getitem__
    assert parse_union(text, loader) == reference_parse_union(text, loader) == (union, plan, names)


@EXAMPLES
@given(nets())
def test_ens_reader_and_writer_match_the_references(net):
    written = outcome(serialize_ens, net)
    assert written == outcome(reference_serialize_ens, net)
    if not failed(written):
        assert parse_ens(written) == reference_parse_ens(written) == net


# -- mutated texts ----------------------------------------------------------

UNION_LINES = [
    "edge b y", "edge a x b c", "initial", "initial a b", "event", "event x y",
    "component", "component A B C", "component A", "component B", "end", "terminal A",
    "terminal Q s0", "terminal A s0 x", "terminal A c0.q0", "bogus 1", "edge a! x b",
    "initial 'q", ".ts", ".union", "", "# only a comment", "edge c0.q0 e1 c0.q9",
]
ENS_LINES = [
    "place p0", "place a", "transition a", "transition p0", "flow p0 -> a",
    "flow a -> p0", "flow a -> q", "flow p0 a", "initial p0", "initial q",
    "place b!", "transition", "bogus", ".ens", ".ts", "", "# only a comment",
]


@st.composite
def mutated(draw, text: str, pool: list[str]) -> str:
    """``text`` with one to three lines deleted, repeated, swapped with the
    next, replaced or inserted from ``pool``."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, max(len(lines) - 1, 0)))
        kind = draw(st.sampled_from(["delete", "repeat", "swap", "replace", "insert"]))
        if kind == "insert" or not lines:
            lines.insert(k, draw(st.sampled_from(pool)))
        elif kind == "delete":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "swap" and k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif kind == "replace":
            lines[k] = draw(st.sampled_from(pool))
    return "\n".join(lines) + "\n"


@st.composite
def mutated_unions(draw):
    return draw(mutated(serialize_union(*draw(unions())), UNION_LINES))


@st.composite
def mutated_nets(draw):
    net = draw(nets())
    try:
        text = serialize_ens(net)
    except ValueError:
        text = ".ens\nplace p0\ntransition a\nflow p0 -> a\ninitial p0\n"
    return draw(mutated(text, ENS_LINES))


# errors the reference numbered from a component's start
BODY_ERRORS = ("initial takes", "duplicate initial", "event takes", "edge takes",
               "unknown directive", "invalid identifier")
BAD_EDGE_UNION = ".union\n# two components\ncomponent A\ninitial a\nedge a x b\nedge b y\nend\n"


@EXAMPLES
@given(mutated_unions())
@example(BAD_EDGE_UNION)
@example(".union\ncomponent A\ninitial a\nedge a x\n")
@example(".union\ncomponent A\nedge a x b\nend\n")
@example(".union\nterminal B b\ncomponent A\ninitial a\nedge a x b\nend\nterminal Z q\n")
@example("")
@example("hello\n")
def test_mutated_union_texts_fail_as_the_reference_did(text):
    got = outcome(parse_union, text)
    want = in_new_wording(outcome(reference_parse_union, text), text, ".union")
    if not failed(want):
        assert got == want
        return
    assert failed(got) and got[0] is want[0]
    if got[0] is ParseError and got[1] != "empty input, expected a .union header":
        assert got[2] is not None, "every .union parse error names a line"
        assert_line_holds_the_directive(text, got[1], got[2])
    if want[1].startswith("unterminated component") and got[1] != want[1]:
        # A malformed body line now comes before the missing ``end``: it is
        # the error the reference gives once the component is closed.
        closed = outcome(reference_parse_union, text + "\nend\n")
        assert got[:2] == closed[:2] and got[2] > want[2]
        return
    assert got[:2] == want[:2]
    if want[2] is not None and not want[1].startswith(BODY_ERRORS):
        assert got[2] == want[2]


@EXAMPLES
@given(mutated_nets())
@example("")
@example("place p0\n")
@example(".ens\nplace p\ntransition p\nplace q\ntransition q\nflow p -> q\n")
def test_mutated_ens_texts_fail_as_the_reference_did(text):
    got = outcome(parse_ens, text)
    assert got == in_new_wording(outcome(reference_parse_ens, text), text, ".ens")
    if failed(got) and got[2] is not None:
        assert_line_holds_the_directive(text, got[1], got[2])


# -- pinned line numbers and the CLI ----------------------------------------


def test_a_bad_edge_in_a_component_names_the_file_line(tmp_path, capsys):
    path = tmp_path / "bad.union"
    path.write_text(BAD_EDGE_UNION)
    assert run(["check-ssp", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 6: edge takes source, event, target\n"


@pytest.mark.parametrize("text, message", [
    (".union\ncomponent A\ninitial a\nedge a x\n",
     "line 4: edge takes source, event, target"),
    (".union\ncomponent A\ninitial a\nedge a x b\n", "line 2: unterminated component 'A'"),
    (".union\ncomponent A\nedge a x b\nend\n", "line 2: missing initial declaration"),
    (".union\ncomponent A\ninitial a\nedge a x b\nend\nterminal Z q\nterminal B b\n",
     "line 6: terminal for unknown component ['B', 'Z']"),
    ("", "empty input, expected a .union header"),
    ("# c\n.ts\n", "line 2: expected '.union' header, found '.ts'"),
])
def test_union_errors_name_the_file_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_union(text)
    assert str(info.value) == message


def test_reduce_writes_the_plan_as_the_union_terminal_lines(tmp_path):
    (tmp_path / "phi6.cnf3").write_text("".join(f"clause {a} {b} {c}\n" for a, b, c in PHI6))
    out = tmp_path / "out"
    assert run(["reduce", "--construction", "linear3-essp",
                "--in", str(tmp_path / "phi6.cnf3"), "--out", str(out)]) == 0
    union_text = (out / "linear3-essp.union").read_text()
    union, plan, _ = parse_union(union_text)
    assert union_text == reference_serialize_union(union, plan)
    plan_text = (out / "linear3-essp.plan").read_text()
    assert plan_text == reference_plan_file(plan)
    assert plan_text.splitlines() == [
        line for line in union_text.splitlines() if line.startswith("terminal ")]
