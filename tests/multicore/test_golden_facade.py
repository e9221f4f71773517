"""Golden-stats differential coverage for the hierarchy refactor.

PR 2's fixture (``tests/golden/golden_stats.json``) was recorded before
the hierarchy split into ``SharedHierarchy`` + per-core
``MemoryHierarchy`` views.
Two layers of coverage prove the refactor is byte-identical for
single-core runs:

* the *implicit* facade — every existing golden test already runs
  through the refactored ``MemoryHierarchy`` (which now IS a core view
  over its own single-view shared level), so
  ``tests/pipeline/test_golden_stats.py`` re-validates all 18
  workload × controller records and every quick-tier preset
  unmodified;
* the *explicit* facade — these tests build the shared level by hand
  (``SharedHierarchy().add_core()``), hand its view to
  ``Core(hierarchy=...)``, and assert the exact same fixture records,
  proving the multi-core construction path itself introduces no drift.
"""

import pytest

from repro.harness.registry import get_workload, make_controller
from repro.memory.hierarchy import SharedHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core

from tests.golden import recorder

GOLDEN = recorder.load_golden()
CORE_KEYS = sorted(GOLDEN["cores"])


def facade_core_record(workload_name, controller_name):
    """The recorder's core_record, but through an explicit core view."""
    workload = get_workload(workload_name)
    config = CoreConfig.paper()
    view = SharedHierarchy(config.hierarchy).add_core()
    program, image, sp = workload.materialize()
    core = Core(program, memory_image=image, config=config,
                runahead=make_controller(controller_name), initial_sp=sp,
                warm_icache=True, hierarchy=view)
    core.run(max_cycles=5_000_000)
    assert core.halted, f"{workload_name} did not halt"
    return recorder.distill_core(core)


def test_explicit_facade_matches_golden_smoke():
    """Fast witness (full grid below is marked slow)."""
    key = "mcf/original"
    fresh = recorder.normalize(facade_core_record(*key.split("/")))
    assert fresh == GOLDEN["cores"][key]


@pytest.mark.slow
@pytest.mark.parametrize("key", CORE_KEYS)
def test_explicit_facade_matches_golden(key):
    workload, controller = key.split("/")
    fresh = recorder.normalize(facade_core_record(workload, controller))
    want = GOLDEN["cores"][key]
    assert fresh.keys() == want.keys()
    for field in want:
        assert fresh[field] == want[field], \
            f"{key}: {field} diverged through the explicit " \
            f"SharedHierarchy/MemoryHierarchy facade"
