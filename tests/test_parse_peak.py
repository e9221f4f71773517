"""No module a simulation sweep loads has a large parse peak.

The benchmark processes run with ``PYTHONDONTWRITEBYTECODE=1``, so no
bytecode cache is read or written and every process compiles each
module it imports from source.  The compiler's peak allocation goes
through pymalloc, which keeps the arenas it freed, so the largest
``compile()`` peak of any imported module stays in the process's RSS
for its whole life: a module that grows grows every workload's
``peak_rss_mb``.  This test runs a scale-0.1 ``sim-sweep`` pass (the
benchmark's ``perfbench/workloads.py`` trials) in a fresh interpreter,
then ``compile()``s each ``src/repro`` module that pass loaded under
``tracemalloc`` and fails if the largest peak reaches
:data:`PEAK_BOUND_KB`.  ``pipeline/core.py`` peaked at 3,777 KB before
the issue stage's general path moved to ``pipeline/issue.py``.

Peaks depend on the compiler, so the bound holds on CPython 3.11 only.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PEAK_BOUND_KB = 3000

PASS = """
import json, sys
from perfbench.workloads import sim_sweep_pass
from repro.harness.executor import SerialExecutor
SerialExecutor().execute(sim_sweep_pass(1, 0.1), cache=None)
print(json.dumps(sorted(module.__file__ for name, module
                        in list(sys.modules.items())
                        if name.split(".")[0] == "repro")))
"""


def loaded_repro_files():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", PASS], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    return [pathlib.Path(path) for path in json.loads(out.splitlines()[-1])]


def parse_peak_kb(path):
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="parse peaks are recorded on CPython 3.11")
def test_sim_sweep_modules_parse_under_bound():
    files = loaded_repro_files()
    assert ROOT / "src/repro/pipeline/core.py" in files
    peaks = {str(path.relative_to(ROOT)): round(parse_peak_kb(path))
             for path in files}
    largest = max(peaks, key=peaks.get)
    assert peaks[largest] < PEAK_BOUND_KB, \
        f"{largest} peaks at {peaks[largest]} KB to compile " \
        f"(bound {PEAK_BOUND_KB} KB)"
