"""Spans recorded from outside the library, and the per-layer metrics.

A traced run rebinds the library's entry points at the call sites the
program uses: the names the CLI module imported (``parse_ts``,
``is_feasible``, ``has_ssp``), the solver entry the deciders imported
(``properties.solve_region``), and the library functions the benchmark
itself calls, which it reaches through a namespace of functions.  The
untraced run uses the plain functions and rebinds nothing.

A span is ``[op, parent, name, start, end, section, info]``; spans of one
operation share ``op``.  ``section`` is ``("setup", k)`` or ``("pass", k)``.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from types import SimpleNamespace

# (module attribute path, span name) for the library functions the
# benchmark calls directly.
API_FUNCTIONS = (
    ("cli.run", "cli.run"),
    ("reductions.build_linear3_essp", "reductions.build"),
    ("reductions.build_2grade2_essp", "reductions.build"),
    ("unions.join", "unions.join"),
    ("synthesis.synthesize", "synthesis.synthesize"),
    ("synthesis.reachability_graph", "synthesis.reach"),
    ("synthesis.ts_isomorphic", "synthesis.iso"),
    ("synthesis.language_equal", "synthesis.lang"),
    ("synthesis.serialize_ens", "synthesis.ens_io"),
    ("synthesis.parse_ens", "synthesis.ens_io"),
    ("synthesis.check_morphism", "synthesis.morphism"),
    ("linear2.linear2_ssp", "linear2.ssp"),
    ("linear2.find_exact_2fold_subsequence", "linear2.decide"),
    ("linear2.separator", "linear2.separator"),
)

# (module, attribute, span name): names bound inside the library that the
# CLI path calls through.
CALL_SITES = (
    ("cli", "parse_ts", "ts.parse"),
    ("cli", "is_feasible", "properties.decide"),
    ("cli", "has_ssp", "properties.decide"),
    ("properties", "solve_region", "regions.solve"),
)

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "regions.solve_s": "s",
    "regions.solve_calls": "count",
    "regions.solve_us_p50": "us",
    "regions.solve_us_max": "us",
    "regions.unsat_solves": "count",
    "properties.decide_s": "s",
    "properties.self_s": "s",
    "properties.queries": "count",
    "properties.ssp_solves": "count",
    "properties.essp_solves": "count",
    "properties.reuse_ratio": "ratio",
    "ts.parse_s": "s",
    "cli.self_s": "s",
    "synthesis.synthesize_s": "s",
    "synthesis.reach_s": "s",
    "synthesis.iso_s": "s",
    "synthesis.lang_s": "s",
    "synthesis.morphism_s": "s",
    "synthesis.ens_io_s": "s",
    "synthesis.places": "count",
    "synthesis.arcs": "count",
    "synthesis.markings": "count",
    "linear2.ssp_s": "s",
    "linear2.decide_s": "s",
    "linear2.separator_ms": "ms",
    "linear2.pairs": "count",
    "reductions.build_s": "s",
    "unions.join_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(ensynth, path: str):
    module, attr = path.split(".")
    return getattr(getattr(ensynth, module), attr)


def plain_api(ensynth) -> SimpleNamespace:
    """The library functions the benchmark calls, untraced."""
    return SimpleNamespace(**{
        path.split(".")[1]: _resolve(ensynth, path) for path, _ in API_FUNCTIONS
    })


def _solve_info(args, kwargs, result) -> dict:
    constraint = args[1] if len(args) > 1 else kwargs.get("constraint")
    membership = constraint.membership if constraint is not None else {}
    signature = constraint.signature if constraint is not None else {}
    if len(membership) == 2 and not signature:
        kind = "ssp"
    elif len(membership) == 1 and len(signature) == 1:
        kind = "essp"
    else:
        kind = "other"
    return {"kind": kind, "unsat": result is None}


def _keep_call(args, kwargs, result) -> dict:
    return {"system": args[0], "result": result}


def _feasibility_info(args, kwargs, result) -> dict:
    return {"system": args[0], "result": result, "essp": True}


# Extra facts kept per span, by the wrapped function's name; they are read
# after the run, so a traced call does no bookkeeping beyond its clock reads.
_INFO = {"solve_region": _solve_info, "is_feasible": _feasibility_info,
         "has_ssp": _keep_call, "synthesize": _keep_call,
         "reachability_graph": _keep_call, "linear2_ssp": _keep_call}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.section = ("setup", 0)
        self.op = 0
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self.op += 1

    def wrap(self, name: str, fn):
        info = _INFO.get(fn.__name__)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, stack[-1] if stack else None, name, 0.0, 0.0,
                    self.section, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def api(self, ensynth) -> SimpleNamespace:
        return SimpleNamespace(**{
            path.split(".")[1]: self.wrap(name, _resolve(ensynth, path))
            for path, name in API_FUNCTIONS
        })

    def install(self, ensynth):
        """Rebind the library's call sites; returns a function undoing it."""
        saved = []
        for module_name, attr, name in CALL_SITES:
            module = getattr(ensynth, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

        def restore():
            for module, attr, original in saved:
                setattr(module, attr, original)

        return restore

    def dump(self, path) -> None:
        rows = [
            {"id": k, "op": s[0], "parent": s[1], "name": s[2], "start": s[3],
             "end": s[4], "section": list(s[5]),
             "info": {key: v for key, v in (s[6] or {}).items()
                      if isinstance(v, (bool, int, str))}}
            for k, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _query_count(sys_obj, verdict, essp: bool) -> int:
    """Queries the decider scanned, in its order (state pairs, then
    (event, state) pairs with the event not enabled), up to and including
    the counterexample when the verdict fails."""
    states = sys_obj.states
    n = len(states)
    cx = verdict.counterexample
    if cx is not None and cx.kind == "ssp":
        pos = {s: i for i, s in enumerate(states)}
        i, j = pos[cx.a], pos[cx.b]
        return sum(n - 1 - k for k in range(i)) + (j - i)
    count = n * (n - 1) // 2
    if not essp:
        return count
    enabled: dict[str, set[str]] = {s: set() for s in states}
    for src, ev, _ in sys_obj.edges:
        enabled[src].add(ev)
    for ev in sys_obj.events:
        for s in states:
            if ev not in enabled[s]:
                count += 1
                if cx is not None and (cx.a, cx.b) == (ev, s):
                    return count
    return count


def layer_metrics(
    tracer: Tracer, scale: dict[tuple, float], untraced_wall_s: float, traced_wall_s: float
) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass totals,
    the setup layers as medians over set-up repetitions, solve-time
    percentiles over every traced solve, and the median pass wall time of
    the untraced half with the tracing overhead over it.  Span times are
    multiplied by ``scale[section]``, the host-speed correction of the pass
    or set-up they ran in.  A layer that did not run reads 0."""
    spans = tracer.spans
    children: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            children[s[1]] = children.get(s[1], 0.0) + s[4] - s[3]

    def self_time(k: int) -> float:
        s = spans[k]
        return (s[4] - s[3] - children.get(k, 0.0)) * scale[s[5]]

    sections: dict[tuple, dict[str, float]] = {}
    solve_us: list[float] = []
    separator_ms: list[float] = []
    for k, s in enumerate(spans):
        _, parent, name, start, end, section, info = s
        acc = sections.setdefault(section, {})
        duration = (end - start) * scale[section]

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        add(name + "_s", duration)
        if name == "cli.run":
            add("cli.self_s", self_time(k))
        elif name == "linear2.separator":
            separator_ms.append(duration * 1e3)
        if info is None:  # the call raised, or the function keeps no facts
            continue
        if name == "regions.solve":
            solve_us.append(duration * 1e6)
            add("regions.solve_calls", 1)
            add("regions.unsat_solves", int(info["unsat"]))
            if info["kind"] in ("ssp", "essp"):
                add(f"properties.{info['kind']}_solves", 1)
        elif name == "properties.decide":
            add("properties.self_s", self_time(k))
            add("properties.queries", _query_count(
                info["system"], info["result"], info.get("essp", False)))
        elif name == "synthesis.synthesize":
            net = info["result"]
            add("synthesis.places", len(net.places))
            add("synthesis.arcs", len(net.flows))
        elif name == "synthesis.reach":
            add("synthesis.markings", len(info["result"].markings))
        elif name == "linear2.ssp" and info["result"].holds:
            add("linear2.pairs", len(info["result"].separators))

    passes = [v for key, v in sections.items() if key[0] == "pass"]
    setups = [v for key, v in sections.items() if key[0] == "setup"]

    def median(rows, key):
        return statistics.median(row.get(key, 0.0) for row in rows) if rows else 0.0

    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.startswith(("reductions.", "unions.")):
            out[name] = median(setups, name)
        else:
            out[name] = median(passes, name)
    out["regions.solve_us_p50"] = statistics.median(solve_us) if solve_us else 0.0
    out["regions.solve_us_max"] = max(solve_us, default=0.0)
    out["linear2.separator_ms"] = statistics.median(separator_ms) if separator_ms else 0.0
    queries = out["properties.queries"]
    out["properties.reuse_ratio"] = (
        1.0 - out["regions.solve_calls"] / queries if queries else 0.0
    )
    out["trace.wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out

