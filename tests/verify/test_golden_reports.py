"""Golden ``LeakReport`` differential tests for the static checker.

``tests/verify/golden_reports.json`` pins the checker's full verdict —
report set, window attribution, taint chains, exploration counters —
for every registered attack target under the default defense sweep;
``tests/verify/golden_gen_reports.json`` pins the same for the
generated gadgets of :data:`recorder.GEN_TARGETS`.  A mismatch means
the checker's semantics changed; regenerate with
``python -m tests.verify.recorder`` only when that change is intended.
"""

from __future__ import annotations

import pytest

from tests.verify import recorder
from repro.verify.targets import target_names

GOLDEN = recorder.load_golden()
GEN_GOLDEN = recorder.load_golden(recorder.GEN_GOLDEN_PATH)

CELL_KEYS = sorted(GOLDEN)
GEN_CELL_KEYS = sorted(GEN_GOLDEN)


def _grid(targets):
    return {f"{target}/{defense}"
            for target in targets
            for defense in recorder.DEFENSES_RECORDED}


def test_fixture_covers_expected_grid():
    """Every registered target × recorded defense has a golden cell."""
    assert set(GOLDEN) == _grid(target_names())


def test_gen_fixture_covers_expected_grid():
    assert set(GEN_GOLDEN) == _grid(recorder.GEN_TARGETS)
    assert len(GEN_GOLDEN) == 48


def _assert_matches(key, want):
    target, defense = key.rsplit("/", 1)
    fresh = recorder.normalize(
        recorder.verify_report_record(target, defense))
    assert fresh.keys() == want.keys()
    for field in want:
        assert fresh[field] == want[field], \
            f"{key}: {field} diverged from the recorded checker verdict"


@pytest.mark.parametrize("key", CELL_KEYS)
def test_reports_match_golden(key):
    _assert_matches(key, GOLDEN[key])


@pytest.mark.parametrize("key", GEN_CELL_KEYS)
def test_gen_reports_match_golden(key):
    _assert_matches(key, GEN_GOLDEN[key])
