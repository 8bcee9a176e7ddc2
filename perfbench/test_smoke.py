"""Smoke-sized runs of the benchmark, so that the harness cannot rot.

Each run uses the smallest inputs (m=6 decide, m=1 synthesis, short
chains) and one pass.  Only correctness and the shape of the result are
asserted; wall-clock numbers are never checked here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [(w["name"], 1) for w in SPEC["workloads"]] + [("lin2-route", 0)],
)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / "perfbench" / "run.py", "lin2-route", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
