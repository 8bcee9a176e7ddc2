"""List every statement of ``src/ensynth`` that no benchmark workload runs.

Runs the set-up and one checked pass of each workload of ``perfbench``
(seed 1, full size) in this process under ``sys.settrace``, and prints
each statement that no line event of the set-ups and passes reached, as
``path:line: text``, then the count.  A statement counts as reached as in
``trace_statements.py``, whose statement list and tracer this script
reuses.  The checks run untraced.

Usage, from anywhere::

    python tools/trace_workloads.py

The library is imported from ``src/`` and the workloads from
``perfbench/``, which this script only reads.  It writes nothing into the
repository: bytecode caching is off, and the workloads' input files go to a
temporary directory.  Exit status: 1 if any operation raised or failed its
check, else 0.  Tracing makes the run several times slower than the
benchmark's.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

# This script's directory is on the path, since it runs as a script.
from trace_statements import PACKAGE, ROOT, line_tracer, statements  # noqa: E402

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

SEED = 1


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {f: set() for f in files}
    calls = line_tracer(hits)
    failed = 0
    sys.settrace(calls)
    try:  # the imports run the modules' top-level statements
        import ensynth
        import ensynth.cli  # noqa: F401  (plain_api reaches cli.run)
        from tracing import plain_api
        from workloads import WORKLOADS
    finally:
        sys.settrace(None)
    if Path(ensynth.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"trace_workloads: imported ensynth from {ensynth.__file__}")
    api = plain_api(ensynth)
    with tempfile.TemporaryDirectory(prefix="trace-workloads-") as workdir:
        for name, make in WORKLOADS.items():
            workload = make(False)
            results, errors = {}, {}
            sys.settrace(calls)
            try:
                workload.setup(SEED, api, Path(workdir))
                ops = workload.ops(api)
                for op in ops:
                    try:
                        results[op.name] = op.run(results)
                    except (Exception, SystemExit) as exc:  # a failed operation
                        errors[op.name] = f"raised {exc!r}"
            finally:
                sys.settrace(None)
            for op in ops:
                problem = errors.get(op.name) or op.check(results[op.name], results)
                if problem:
                    failed += 1
                    print(f"FAILED {name}/{op.name}: {problem}", file=sys.stderr)

    unreached, total = [], 0
    for name, path in files.items():
        for line, own, text in statements(path):
            total += 1
            if not own & hits[name]:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    for entry in unreached:
        print(entry)
    print(f"{total} statements, {len(unreached)} reached by no workload "
          f"({len(WORKLOADS)} workloads, seed {SEED}); {failed} operations failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
