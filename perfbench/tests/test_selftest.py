"""Self-test of the benchmark.

Runs every workload at a tiny size (a quarter of one pass) in both
modes and checks that the oracles pass and that the printed metrics are
exactly the ones ``BENCHMARK.json`` declares.  Run from the repository
root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "0.25"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_prints_declared_metrics(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}


def test_no_benchmark_file_uses_modules_slated_for_deletion():
    banned = re.compile(r"repro\.batch|harness\.perfbench|"
                        r"harness import .*perfbench")
    for path in (ROOT / "perfbench").rglob("*.py"):
        if path.resolve() == pathlib.Path(__file__).resolve():
            continue
        assert not banned.search(path.read_text(encoding="utf-8")), path


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, it exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
