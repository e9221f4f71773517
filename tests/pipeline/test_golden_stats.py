"""Golden-stats differential tests for the hot-path refactor.

``tests/golden/golden_stats.json`` was recorded from the pre-refactor
simulator (decode-time-metadata / int-dispatch / wakeup-scheduling
overhaul, PR 2).  These tests assert the optimized core reproduces it
*byte for byte*:

* every quick-tier Fig. 7 kernel × every runahead controller (including
  both defenses) must yield identical ``CoreStats``, per-level cache
  hit/miss/fill counts, transient-window maxima, branch-unit counters,
  and architectural end state;
* every quick-tier harness preset trial (the 10 paper figures and the
  6 covert-channel presets) must yield an identical result payload
  through ``run_trial``;
* every one-byte ``extract`` trial in the fixture (each receiver, with
  and without calibration, one core and cross-core) must too.

If a future change *intends* to alter behaviour, regenerate the fixture
with ``python -m tests.golden.recorder`` and say so in the commit; a
mismatch here otherwise means the fast path broke timing equivalence.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import run_trial

from tests.golden import recorder

GOLDEN = recorder.load_golden()

CORE_KEYS = sorted(GOLDEN["cores"])
PRESET_NAMES = sorted(GOLDEN["presets"])
EXTRACT_TRIALS = {recorder.trial_key(trial): trial
                  for trial in recorder.extract_trials()}


def test_fixture_covers_expected_grid():
    """The fixture spans the full workload × controller grid and every
    quick-tier preset (guards against silently-thinned coverage)."""
    expected_cores = {f"{workload}/{controller}"
                      for workload in recorder.CORE_WORKLOADS
                      for controller in recorder.CORE_CONTROLLERS}
    assert set(GOLDEN["cores"]) == expected_cores
    assert set(GOLDEN["presets"]) == set(recorder.PRESET_NAMES)
    assert set(GOLDEN["extracts"]) == set(EXTRACT_TRIALS)


@pytest.mark.slow
@pytest.mark.parametrize("key", CORE_KEYS)
def test_core_stats_match_golden(key):
    workload, controller = key.split("/")
    fresh = recorder.normalize(recorder.core_record(workload, controller))
    want = GOLDEN["cores"][key]
    assert fresh.keys() == want.keys()
    for field in want:
        assert fresh[field] == want[field], \
            f"{key}: {field} diverged from the pre-refactor recording"


def _assert_preset_matches(name):
    fresh = recorder.normalize(recorder.preset_records(name))
    want = GOLDEN["presets"][name]
    assert fresh.keys() == want.keys(), \
        f"preset {name}: trial grid changed"
    for trial_key in want:
        assert fresh[trial_key] == want[trial_key], \
            f"preset {name}: {trial_key} diverged from the " \
            f"pre-refactor recording"


@pytest.mark.slow
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_trials_match_golden(name):
    _assert_preset_matches(name)


def test_cross_core_preset_matches_golden_smoke():
    """Fast witness of the channel path (the full preset grid is slow):
    cross-core extraction through a calibrating and a reload receiver
    on the baseline and the defended machines."""
    _assert_preset_matches("fig10_cross_core")


@pytest.mark.parametrize("key", sorted(EXTRACT_TRIALS))
def test_extract_trials_match_golden(key):
    fresh = recorder.normalize(run_trial(EXTRACT_TRIALS[key]))
    assert fresh == GOLDEN["extracts"][key], \
        f"{key} diverged from the pre-refactor recording"
