"""Command-line frontend: deciders, synthesis, reductions, DOT export.

Exit codes: 0 when the checked property holds (or the command produced its
output), 1 when the property fails (counterexample on stdout in the region
witness format), 2 on input errors, 3 on timeout.  All output is
deterministic for fixed inputs and flags; ``--format json`` mirrors every
result as one structured object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import linear2, reductions, synthesis
from .properties import (
    TimeoutExceeded,
    has_essp,
    has_ssp,
    is_feasible,
)
from .regions import Region, enumerate_regions, format_region
from .ts import (
    TransitionSystem,
    _content_lines,
    classify,
    parse_ts,
    serialize_ts,
    validate,
)
from .unions import TsUnion, _terminal_lines, join, parse_union, serialize_union

__all__ = ["main", "run", "export_dot"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if not path:
        print(text, end="")
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _header(text: str) -> str:
    """The first content line of ``text``, which names its format."""
    return next((line for _, line in _content_lines(text)), "")


def _load_system(path: str):
    """A .ts file yields a TransitionSystem, a .union file a TsUnion."""
    text = _read(path)
    if _header(text) == ".union":
        base = Path(path).parent
        return parse_union(text, lambda ref: _read(str(base / ref)))[0]
    return parse_ts(text)


def _load_ts(args) -> TransitionSystem:
    """The single TS a command needs; a .union file is an input error."""
    ts = _load_system(args.file)
    if isinstance(ts, TsUnion):
        raise ValueError(f"{args.command} expects a single .ts file")
    return ts


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _region_payload(region: Region) -> dict:
    return {
        "members": list(region.members),
        "signature": dict(region._cut_events()),  # the non-zero entries
    }


def _emit_verdict(args, verdict, payload: dict, lines: list[str]) -> int:
    """Emit a verdict's output, with its counterexamples if it fails; return its exit code."""
    if not verdict.holds:
        payload["counterexamples"] = [
            {"kind": q.kind, "a": q.a, "b": q.b} for q in verdict.failures]
        lines.extend(f"counterexample: {q}" for q in verdict.failures)
    _emit(args, payload, lines)
    return 0 if verdict.holds else 1


def _cmd_validate(args) -> int:
    ts = _load_ts(args)
    report = validate(ts)
    _emit(
        args,
        {
            "valid": report.ok,
            "violations": [
                {"kind": v.kind, "offenders": v.offenders}
                for v in report.violations
            ],
        },
        ["valid"] if report.ok else [str(v) for v in report.violations],
    )
    return 0 if report.ok else 1


def _cmd_classify(args) -> int:
    ts = _load_ts(args)
    cls = classify(ts)
    _emit(
        args,
        {"manifoldness": cls.manifoldness, "degree": cls.degree, "linear": cls.linear},
        [f"manifoldness {cls.manifoldness}", f"degree {cls.degree}",
         f"linear {'yes' if cls.linear else 'no'}"],
    )
    return 0


# command -> (label, decider).  The lambdas look the deciders up when
# called, so a rebound ``cli.has_ssp`` is the one that runs.
_CHECKS = {
    "check-ssp": ("SSP", lambda sys_obj, args: has_ssp(sys_obj, timeout=args.timeout)),
    "check-essp": ("ESSP", lambda sys_obj, args: has_essp(
        sys_obj, timeout=args.timeout, exhaustive=args.exhaustive_counterexamples)),
    "check-feasible": ("feasibility", lambda sys_obj, args: is_feasible(
        sys_obj, timeout=args.timeout, exhaustive=args.exhaustive_counterexamples)),
}


def _cmd_check(args) -> int:
    kind, decide = _CHECKS[args.command]
    sys_obj = _load_system(args.file)
    verdict = decide(sys_obj, args)
    lines = [f"{kind}: {'holds' if verdict.holds else 'fails'}"]
    payload = {"property": kind, "holds": verdict.holds}
    if verdict.holds:
        regions = verdict.witnesses.regions
        lines.append(f"witnesses: {len(regions)} regions")
        if args.format == "json":
            payload["witnesses"] = [_region_payload(r) for r in regions]
        elif args.verbose_witnesses:
            lines.extend(format_region(r) for r in regions)
    return _emit_verdict(args, verdict, payload, lines)


def _cmd_separator(args) -> int:
    ts = _load_ts(args)
    try:
        result = linear2.separator(ts, args.i, args.j)
    except IndexError as exc:
        raise ValueError(str(exc)) from None
    if result.region is None:
        _emit(args, {"separable": False}, ["UNSEPARABLE"])
        return 1
    _emit(
        args,
        {"separable": True, "region": _region_payload(result.region)},
        [format_region(result.region)],
    )
    return 0


def _cmd_linear2_ssp(args) -> int:
    ts = _load_ts(args)
    verdict = linear2.linear2_ssp(ts)
    payload = {"property": "linear2-SSP", "holds": verdict.holds}
    lines = []
    if verdict.holds:
        payload["pairs"] = len(verdict.separators)
        lines.append(f"SSP: holds ({len(verdict.separators)} pairs witnessed)")
    return _emit_verdict(args, verdict, payload, lines)


def _cmd_synthesize(args) -> int:
    ts = _load_ts(args)
    if args.witness == "all-regions":
        regions = enumerate_regions(ts, cap=args.enumeration_cap)
    else:
        verdict = is_feasible(ts, timeout=args.timeout)
        if not verdict.holds:
            print(f"not feasible: {verdict.counterexample}", file=sys.stderr)
            return 1
        regions = verdict.witnesses.regions
    net = synthesis.synthesize(ts, regions)
    _write(args.out, synthesis.serialize_ens(net))
    return 0


def _cmd_reach_graph(args) -> int:
    net = synthesis.parse_ens(_read(args.file))
    result = synthesis.reachability_graph(net)
    _write(args.out, serialize_ts(result.ts))
    if not result.report.ok:
        print(f"note: graph is not admissible: {result.report}", file=sys.stderr)
    return 0


def _cmd_models(args) -> int:
    formula = reductions.parse_cnf3(_read(args.file))
    models = reductions.find_one_in_three_models(formula)
    names = [
        "{" + ", ".join(f"X{v}" for v in sorted(model)) + "}" for model in models
    ]
    _emit(
        args,
        {"models": [sorted(model) for model in models]},
        names if names else ["no one-in-three model"],
    )
    return 0 if models else 1


_CONSTRUCTIONS = {
    "linear3-essp": (reductions.build_linear3_essp, "formula"),
    "linear3-ssp": (reductions.build_linear3_ssp, "ts"),
    "2grade2-essp": (reductions.build_2grade2_essp, "formula"),
    "2grade2-ssp": (reductions.build_2grade2_ssp, "ts"),
}


def _cmd_reduce(args) -> int:
    builder, source_kind = _CONSTRUCTIONS[args.construction]
    if source_kind == "formula":
        source = reductions.parse_cnf3(_read(args.infile), check=not args.unchecked)
    else:
        source = parse_ts(_read(args.infile))
    instance = builder(source)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {outdir}: {exc.strerror}") from exc
    stem = args.construction
    _write(outdir / f"{stem}.union", serialize_union(instance.union, instance.join_plan))
    manifest = [f"inhibit {' '.join(instance.key_query)}"] if instance.key_query else []
    manifest += [f"separate {a} {b}" for a, b in instance.key_pairs]
    for suffix, lines in (("plan", _terminal_lines(instance.join_plan)), ("query", manifest)):
        _write(outdir / f"{stem}.{suffix}", "".join(f"{line}\n" for line in lines))
    joined = join(instance.union, instance.join_plan)
    _write(outdir / f"{stem}.ts", serialize_ts(joined))
    print(f"wrote {stem}.union, {stem}.plan, {stem}.query, {stem}.ts to {outdir}")
    return 0


def _quoted(name: str) -> str:
    """A DOT string literal; names that pass the identifier rule need no
    escape, others get ``\\`` and ``"`` escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj, shade: set[str] = frozenset()) -> str:
    """DOT text for a TS (member states shaded gray) or an ENS
    (places as circles, transitions as boxes, marked places filled)."""
    lines = ["digraph G {"]
    if isinstance(obj, TransitionSystem):
        lines.append("  rankdir=LR;")
        for s in obj.states:
            attrs = [f"label={_quoted(s)}"]
            if s in shade:
                attrs.append('style=filled')
                attrs.append('fillcolor="gray85"')
            if s == obj.initial:
                attrs.append("penwidth=2")
            lines.append(f'  {_quoted(s)} [{", ".join(attrs)}];')
        for src, ev, dst in obj.edges:
            lines.append(f"  {_quoted(src)} -> {_quoted(dst)} [label={_quoted(ev)}];")
    elif isinstance(obj, synthesis.ElementaryNetSystem):
        for p in obj.places:
            style = "filled" if p in obj.initial_marking else "solid"
            fill = ', fillcolor="gray70"' if p in obj.initial_marking else ""
            lines.append(f"  {_quoted(p)} [shape=circle, style={style}{fill}];")
        for t in obj.transitions:
            lines.append(f"  {_quoted(t)} [shape=box];")
        for a, b in sorted(obj.flows):
            lines.append(f"  {_quoted(a)} -> {_quoted(b)};")
    else:
        raise ValueError("export_dot accepts a TransitionSystem or an ElementaryNetSystem")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args) -> int:
    text = _read(args.file)
    obj = synthesis.parse_ens(text) if _header(text) == ".ens" else parse_ts(text)
    shade = set(args.shade.split(",")) if args.shade else set()
    _write(args.out, export_dot(obj, shade))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensynth",
        description="Elementary net synthesis toolkit: separation deciders, "
        "linear 2-fold SSP, net synthesis, and satisfiability reductions.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-check budget in seconds (default 600)")
    parser.add_argument("--enumeration-cap", type=int, default=22,
                        help="state cap for brute-force region enumeration")
    parser.add_argument("--exhaustive-counterexamples", action="store_true",
                        help="report every failing query, not just the first")
    parser.add_argument("--verbose-witnesses", action="store_true",
                        help="print every witness region in the text output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the five admissibility conditions")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("classify", help="tight manifoldness/degree/linearity")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    for name in _CHECKS:
        p = sub.add_parser(name, help=f"decide {name.split('-', 1)[1].upper()}")
        p.add_argument("file", help=".ts or .union input")
        p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("separator", help="separating region for two chain states")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(fn=_cmd_separator)

    p = sub.add_parser("linear2-ssp", help="polynomial SSP for linear 2-fold input")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_linear2_ssp)

    p = sub.add_parser("synthesize", help="emit the region-restricted net")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--witness", choices=("all-regions", "feasible"),
                   default="all-regions")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("reach-graph", help="reachability graph of a .ens net")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_reach_graph)

    p = sub.add_parser("models", help="one-in-three models of a .cnf3 formula")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_models)

    p = sub.add_parser("reduce", help="generate a reduction instance")
    p.add_argument("--construction", required=True, choices=sorted(_CONSTRUCTIONS))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--unchecked", action="store_true",
                   help="skip cubic-monotone validity (scaffolding formulas)")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("export-dot", help="DOT export of a .ts or .ens file")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--shade", help="comma-separated states to highlight")
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.timeout > 0:  # also refuses nan
        parser.error("--timeout must be positive")
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutExceeded as exc:
        print(f"timeout: {exc.checked} of {exc.total} queries checked", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
