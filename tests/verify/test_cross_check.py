"""The differential gate itself: checker vs simulator, in-suite subset.

The full gate is the ``verify_cross_check`` preset (every registered
target and 200 generated programs across four defenses); these tests
hold the same contract over a representative subset so tier-1 catches a
broken gate without the full sweep's wall time.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import run_trial
from repro.harness.spec import Trial
from repro.verify.crosscheck import (DEFAULT_DEFENSES, cross_check_case,
                                     empirical_secret_leak,
                                     make_defense_controller)
from repro.verify.report import LeakReport, merge_reports
from repro.verify.targets import build_target

#: One gadget per shape: probe-loop attack, its benign twin, and the
#: probe-free runahead-only gadget pair.
SUBSET = ("pht", "pht-safe", "stale-store", "stale-store-safe")


@pytest.mark.slow
@pytest.mark.parametrize("target", SUBSET)
def test_contract_holds_across_the_default_defenses(target):
    result = cross_check_case(build_target(target),
                              defenses=DEFAULT_DEFENSES)
    assert result.ok, "\n".join(result.disagreements)
    assert len(result.cells) == len(DEFAULT_DEFENSES)


@pytest.mark.slow
def test_stale_store_leaks_empirically_despite_branch_restrictions():
    """The SPECRUN claim the gadget pins: branch restrictions do not
    stop a straight-line runahead leak, the SL cache does."""
    case = build_target("stale-store")
    leaked, oracle, detail = empirical_secret_leak(case, "branch-skip")
    assert leaked and oracle == "footprint"
    assert str(case.secret_value) in detail
    blocked, _, _ = empirical_secret_leak(case, "secure")
    assert not blocked


def test_unknown_defense_is_rejected():
    with pytest.raises(KeyError, match="unknown defense"):
        make_defense_controller("asbestos")


def test_footprint_oracle_sees_nothing_for_the_benign_twin():
    case = build_target("stale-store-safe")
    leaked, oracle, detail = empirical_secret_leak(case, "original")
    assert not leaked and oracle == "footprint"


class TestShardFanOut:
    """Per-branch shard fan-out: the union of shard results must equal
    the unsharded run byte for byte (what the executors rely on)."""

    def _reports(self, params):
        record = run_trial(Trial("verify", dict(params)))
        return [LeakReport.from_dict(d) for d in record["reports"]]

    @pytest.mark.parametrize("target", ("pht", "stale-store"))
    def test_shard_union_equals_full_run(self, target):
        base = {"target": target, "defense": "original"}
        full = self._reports(base)
        shards = [self._reports({**base, "shard": [k, 3]})
                  for k in range(3)]
        merged = merge_reports(*shards)
        assert [r.to_dict() for r in merged] == \
            [r.to_dict() for r in full]

    def test_shard_excludes_cross_check(self):
        from repro.harness.runner import TrialError
        with pytest.raises(TrialError, match="shard"):
            run_trial(Trial("verify", {"target": "stale-store",
                                       "shard": [0, 2],
                                       "cross_check": True}))

    def test_restricted_windows_exclude_cross_check(self):
        """A restricted verdict would be printed while the contract
        judged a different, full-window run."""
        from repro.harness.runner import TrialError
        with pytest.raises(TrialError, match="windows"):
            run_trial(Trial("verify", {"target": "pht",
                                       "windows": ["runahead"],
                                       "cross_check": True}))


#: The record fields the checker run alone decides.
CHECKER_FIELDS = ("target", "defense", "windows", "clean", "n_reports",
                  "reports", "arch_steps", "window_steps", "spec_forks",
                  "runahead_forks", "suppressed")


class TestOneCheckerRun:
    """A cross-checked verify trial runs the checker once and reports
    the verdict the contract judged."""

    def test_cross_checked_trial_checks_once(self, monkeypatch):
        import repro.verify
        from repro.verify import crosscheck, engine
        calls = []
        real = engine.check_program

        def counting(*args, **kwargs):
            calls.append(kwargs.get("defense"))
            return real(*args, **kwargs)

        for module in (engine, crosscheck, repro.verify):
            monkeypatch.setattr(module, "check_program", counting)
        record = run_trial(Trial("verify", {"target": "stale-store",
                                            "defense": "secure",
                                            "cross_check": True}))
        assert record["ok"]
        assert calls == ["secure"]

    @pytest.mark.parametrize("defense", ("original", "branch-skip"))
    @pytest.mark.parametrize("target", ("pht", "stale-store"))
    def test_cross_checked_record_matches_plain_record(self, target,
                                                       defense):
        from repro.harness.runner import verify_record
        params = {"target": target, "defense": defense}
        plain = run_trial(Trial("verify", dict(params)))
        crossed = run_trial(Trial("verify", {**params, "cross_check": True}))
        case = build_target(target)
        cell = cross_check_case(case, (defense,)).cells[0]
        judged = verify_record(case, cell.verdict)
        for key in CHECKER_FIELDS:
            assert crossed[key] == plain[key] == judged[key], key
        assert crossed["cross_check"] == cell.to_dict()
