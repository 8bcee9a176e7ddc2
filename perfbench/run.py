"""Run one workload of the ensynth benchmark and print its metrics.

    python3 perfbench/run.py --workload lin3-decide --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run from anywhere; the program is imported from ``src/`` next to this
directory, and the benchmark fails when it is not there.  Each run is one
process and one closed loop with a single caller: passes run back to back
until ``--seconds`` have passed (at least one pass).  Set-up runs at least
three times, and until it has taken a second in total, and reports its
median.  Times are corrected for the host's changing speed (``hostspeed``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced, reports the per-layer metrics and the
tracing overhead, and writes its spans to ``perfbench/out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, known before the program is imported.
NAMES = ("lin3-decide", "g2-decide", "synth-verify", "lin2-route")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "witness_regions": "count"}


def load_program():
    """Import ``ensynth`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "ensynth"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the program's sources are missing ({package})")
    sys.path.insert(0, str(package.parent))
    import ensynth
    import ensynth.cli

    if Path(ensynth.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported ensynth from {ensynth.__file__}")
    return ensynth


def measure(workload, api, seconds: float, probe, tracer=None):
    """Closed loop of passes; returns ([(pass wall time, first probe sample,
    end of its samples)], attempted, failed).

    Only the operations are timed; the garbage collector runs and the
    correctness checks run between passes.
    """
    ops = workload.ops(api)
    walls: list[tuple[float, int, int]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.section = ("pass", len(walls))
        results, errors = {}, {}
        first = probe.mark()
        t0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            try:
                results[op.name] = op.run(results)
            except (Exception, SystemExit) as exc:  # counted as a failed operation
                errors[op.name] = f"raised {exc!r}"
        walls.append((time.perf_counter() - t0, first, probe.mark()))
        for op in ops:
            attempted += 1
            problem = errors.get(op.name)
            if problem is None:
                try:
                    problem = op.check(results[op.name], results)
                except Exception as exc:  # a malformed output fails its check
                    problem = f"check raised {exc!r}"
            if problem:
                failed += 1
                print(f"FAILED {workload.name}/{op.name}: {problem}", file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            return walls, attempted, failed


def run_workload(args, ensynth) -> dict:
    # Imported only now: both import ensynth, which load_program put on the path.
    from tracing import LAYER_METRICS, Tracer, layer_metrics, plain_api
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.smoke)
    tracer = Tracer() if args.trace else None
    plain = plain_api(ensynth)
    OUT.mkdir(exist_ok=True)
    setup_times: list[tuple[float, int, int]] = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir, HostProbe() as probe:
        setup_api = tracer.api(ensynth) if tracer else plain
        while len(setup_times) < 3 or (sum(t for t, _, _ in setup_times) < 1.0
                                       and len(setup_times) < 20):
            if tracer is not None:
                tracer.section = ("setup", len(setup_times))
            gc.collect()
            first = probe.mark()
            t0 = time.perf_counter()
            workload.setup(args.seed, setup_api, Path(workdir))
            setup_times.append((time.perf_counter() - t0, first, probe.mark()))

        if tracer is None:
            walls, attempted, failed = measure(workload, plain, args.seconds, probe)
        else:
            plain_walls, a0, f0 = measure(workload, plain, args.seconds / 2, probe)
            restore = tracer.install(ensynth)
            try:
                walls, a1, f1 = measure(
                    workload, tracer.api(ensynth), args.seconds / 2, probe, tracer)
            finally:
                restore()
            attempted, failed = a0 + a1, f0 + f1

    raw = [w for w, _, _ in walls]
    wall = statistics.median(probe.correct(walls))
    print(f"{args.workload} seed {args.seed}: {len(walls)} {'traced ' if tracer else ''}passes, "
          f"{attempted} operations, {failed} failed (failed_share {failed / attempted:.4f}); "
          f"pass wall median {wall:.4f} s corrected, {statistics.median(raw):.4f} s raw "
          f"(max {max(raw):.4f} s); raw passes: {' '.join(f'{w:.3f}' for w in raw)}")
    if tracer is None:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(probe.correct(setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "witness_regions": workload.witness_regions,
        }
        units = END_TO_END
    else:
        scale = {("pass", k): f for k, f in enumerate(probe.factors(walls))}
        scale.update({("setup", k): f for k, f in enumerate(probe.factors(setup_times))})
        values = layer_metrics(
            tracer, scale, statistics.median(probe.correct(plain_walls)), wall)
        units = LAYER_METRICS
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_file)
        print(f"{len(plain_walls)} untraced passes, median {values['trace.wall_s']:.4f} s; "
              f"spans in {spans_file.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"  {name:<26} {values[name]:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": round(values[name]) if unit == "count" else values[name],
                   "unit": unit}
            for name, unit in units.items()
        },
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced and then traced."""
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            status = max(status, subprocess.run(argv).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs: m=6 decide, m=1 synthesis, short chains")
    args = parser.parse_args()
    ensynth = load_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, ensynth)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
