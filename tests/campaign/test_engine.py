"""Campaign engine: byte-identity, retries, failure taxonomy, resume."""

import pytest

from repro.campaign import (Campaign, CampaignError, CampaignExecutor,
                            campaign_status)
from repro.harness.executor import run_sweep
from repro.harness.spec import Sweep

from tests.campaign import _faults


def window_sweep(name="win", n=6, **extra) -> Sweep:
    """Cheap real sweep: window trials are ~ms each at config "small"."""
    sweep = Sweep(name)
    for i in range(n):
        sweep.add("window", runahead="none", sled=8 + 8 * i,
                  config_base="small", **extra)
    return sweep


def fault_sweep(name, fault, n=6, fault_at=(2,)) -> Sweep:
    """Window sweep with ``fault`` markers on selected trials.

    The marker is data only — real runners ignore it (it just changes
    the spec hash) — but the `_faults` runners key on it.
    """
    sweep = Sweep(name)
    for i in range(n):
        params = {"runahead": "none", "sled": 8 + 8 * i,
                  "config_base": "small"}
        if i in fault_at:
            params["fault"] = fault
        sweep.add("window", **params)
    return sweep


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    flags = tmp_path / "fault-flags"
    flags.mkdir()
    monkeypatch.setenv(_faults.FAULT_DIR_ENV, str(flags))
    return flags


def journal_events(campaign, kind):
    return [e for e in campaign.cdir.events() if e.get("event") == kind]


class TestByteIdentity:
    def test_pool_campaign_matches_serial_run_sweep(self, tmp_path):
        sweep = window_sweep()
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        campaign = Campaign.create(tmp_path / "camp", sweep)
        (result,) = campaign.run(workers=3)
        assert result.to_json() == reference
        assert campaign.cdir.read_result(sweep.name) == reference

    def test_serial_campaign_matches_pool(self, tmp_path):
        sweep = window_sweep()
        serial = Campaign.create(tmp_path / "s", sweep).run(workers=1)
        pooled = Campaign.create(tmp_path / "p", sweep).run(workers=3)
        assert serial[0].to_json() == pooled[0].to_json()


class TestResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        sweep = window_sweep()
        campaign = Campaign.create(tmp_path / "camp", sweep)
        first = campaign.run(workers=2)[0]
        again = Campaign.open(tmp_path / "camp").run(workers=2)[0]
        assert again.to_json() == first.to_json()
        assert all(again.cached)
        assert not any(first.cached)

    def test_partial_cache_computes_only_the_gap(self, tmp_path):
        sweep = window_sweep(n=6)
        campaign = Campaign.create(tmp_path / "camp", sweep)
        store = campaign.backend()
        # Pre-seed half the campaign's cache, as an interrupted run would.
        half = run_sweep(Sweep("seed", sweep.trials[:3]), workers=1,
                         cache=store)
        assert len(half.records) == 3
        result = campaign.run(workers=2)[0]
        assert result.cached == [True] * 3 + [False] * 3
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        assert result.to_json() == reference

    def test_executor_adapter_resumes(self, tmp_path):
        sweep = window_sweep()
        executor = CampaignExecutor(tmp_path / "camp", workers=2)
        first = executor.execute(sweep)
        second = executor.execute(sweep)
        assert second.to_json() == first.to_json()
        assert all(second.cached)

    def test_create_or_open_rejects_different_sweeps(self, tmp_path):
        Campaign.create(tmp_path / "camp", window_sweep())
        with pytest.raises(CampaignError, match="different campaign"):
            Campaign.create_or_open(tmp_path / "camp",
                                    window_sweep(n=9))

    def test_create_refuses_to_clobber(self, tmp_path):
        Campaign.create(tmp_path / "camp", window_sweep())
        with pytest.raises(CampaignError, match="already holds"):
            Campaign.create(tmp_path / "camp", window_sweep())

    def test_open_detects_edited_manifest(self, tmp_path):
        campaign = Campaign.create(tmp_path / "camp", window_sweep())
        manifest = campaign.cdir.read_manifest()
        manifest["sweeps"][0]["trials"][0]["params"]["sled"] = 4096
        campaign.cdir.write_manifest(manifest)
        with pytest.raises(CampaignError, match="signature mismatch"):
            Campaign.open(tmp_path / "camp")


class TestFaultTolerance:
    def test_killed_worker_is_retried(self, tmp_path, fault_dir):
        sweep = fault_sweep("kill", "kill")
        campaign = Campaign.create(tmp_path / "camp", sweep)
        result = campaign.run(workers=3, runner=_faults.kill_once)[0]
        assert len(result.records) == len(sweep)
        retries = journal_events(campaign, "retry")
        assert retries and "died" in retries[0]["reason"]

    def test_hung_trial_times_out_and_retries(self, tmp_path, fault_dir):
        sweep = fault_sweep("hang", "hang")
        campaign = Campaign.create(tmp_path / "camp", sweep, timeout=1.0)
        result = campaign.run(workers=3, runner=_faults.hang_once)[0]
        assert len(result.records) == len(sweep)
        retries = journal_events(campaign, "retry")
        assert retries and "timeout" in retries[0]["reason"]

    def test_transient_exception_is_retried(self, tmp_path, fault_dir):
        sweep = fault_sweep("raise", "raise")
        campaign = Campaign.create(tmp_path / "camp", sweep, backoff=0.01)
        result = campaign.run(workers=3, runner=_faults.raise_once)[0]
        assert len(result.records) == len(sweep)
        retries = journal_events(campaign, "retry")
        assert retries and "injected transient" in retries[0]["reason"]

    def test_retry_budget_exhaustion_fails_the_campaign(
            self, tmp_path, fault_dir):
        sweep = fault_sweep("exhaust", "always")
        campaign = Campaign.create(tmp_path / "camp", sweep,
                                   max_retries=1, backoff=0.01)
        with pytest.raises(CampaignError, match="failed 2 times"):
            campaign.run(workers=3, runner=_faults.always_raise)
        assert journal_events(campaign, "error")
        assert campaign_status(tmp_path / "camp")["state"] == "failed"

    def test_deterministic_trial_error_aborts_without_retry(
            self, tmp_path):
        from repro.harness.runner import TrialError
        sweep = window_sweep(n=4)
        sweep.add("run", workload="no-such-workload")
        campaign = Campaign.create(tmp_path / "camp", sweep)
        with pytest.raises(TrialError):
            campaign.run(workers=3)
        assert not journal_events(campaign, "retry")
        assert journal_events(campaign, "error")
        assert campaign_status(tmp_path / "camp")["state"] == "failed"

    def test_failed_campaign_resumes_after_fix(self, tmp_path, fault_dir):
        """The headline fault-tolerance story: crash, fix, resume,
        byte-identical completion."""
        sweep = fault_sweep("exhaust", "always", fault_at=(4,))
        campaign = Campaign.create(tmp_path / "camp", sweep,
                                   max_retries=0, backoff=0.01)
        with pytest.raises(CampaignError):
            campaign.run(workers=2, runner=_faults.always_raise)
        # Work done before the failure is cached; the resume (with a
        # healthy runner) completes exactly the remainder.
        result = Campaign.open(tmp_path / "camp").run(workers=2)[0]
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        assert result.to_json() == reference

    def test_serial_fallback_retries_transients(self, tmp_path, fault_dir):
        sweep = fault_sweep("raise", "raise")
        campaign = Campaign.create(tmp_path / "camp", sweep, backoff=0.01)
        result = campaign.run(workers=1, runner=_faults.raise_once)[0]
        assert len(result.records) == len(sweep)
        assert journal_events(campaign, "retry")

    def test_spawn_failure_degrades_to_in_process(self, tmp_path,
                                                  monkeypatch):
        from repro.campaign import engine

        def no_fork(self):
            raise OSError("fork unavailable")
        monkeypatch.setattr(engine._LocalWorkers, "_spawn", no_fork)
        sweep = window_sweep()
        campaign = Campaign.create(tmp_path / "camp", sweep)
        (result,) = campaign.run(workers=3)
        assert result.to_json() \
            == run_sweep(sweep, workers=1, cache=None).to_json()
        (event,) = journal_events(campaign, "degraded")
        assert "fork unavailable" in event["reason"]

    def test_serial_fallback_propagates_trial_errors(self, tmp_path):
        from repro.harness.runner import TrialError
        sweep = Sweep("bad")
        sweep.add("run", workload="no-such-workload")
        sweep.add("window", runahead="none", sled=8, config_base="small")
        campaign = Campaign.create(tmp_path / "camp", sweep)
        with pytest.raises(TrialError):
            campaign.run(workers=1)


class TestRetryBackoff:
    """The scheduler's retry delays are capped and jittered — a giant
    backoff base can no longer stall a campaign for hours, and trials
    that fail together stop retrying in lockstep."""

    def _state(self, tmp_path, backoff):
        from repro.campaign.coordinator import CoordinatorState
        campaign = Campaign.create(tmp_path / "camp", window_sweep(n=8),
                                   max_retries=10, backoff=backoff)
        return CoordinatorState(campaign, workers=1)

    def test_delay_is_capped(self, tmp_path):
        import time

        from repro.campaign.netretry import DEFAULT_MAX_DELAY
        state = self._state(tmp_path, backoff=1000.0)
        state._schedule_retry(("win", 0), "boom")
        ready_time, key = state.delayed[0]
        assert key == ("win", 0)
        # Uncapped, attempt 1 would already wait 1000s.
        assert ready_time - time.monotonic() <= DEFAULT_MAX_DELAY + 0.1

    def test_distinct_trials_draw_distinct_delays(self, tmp_path):
        state = self._state(tmp_path, backoff=0.25)
        for index in range(8):
            state._schedule_retry(("win", index), "boom")
        delays = {ready for ready, _ in state.delayed}
        assert len(delays) > 1

    def test_same_trial_same_attempt_is_reproducible(self):
        from repro.campaign.netretry import backoff_delay
        key = ("coordinator", "win", 3)
        assert backoff_delay(0.25, 2, key=key) \
            == backoff_delay(0.25, 2, key=key)


class TestLocalLeases:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_local_workers_go_through_the_lease_state_machine(
            self, tmp_path, workers):
        """Forked (3) and in-process (1) workers lease every trial
        exactly once from the one state machine; none expires."""
        sweep = window_sweep()
        campaign = Campaign.create(tmp_path / "camp", sweep)
        campaign.run(workers=workers)
        leases = journal_events(campaign, "lease")
        assert sorted(e["index"] for e in leases) == list(range(len(sweep)))
        assert all(e["host"].startswith("local-") for e in leases)
        assert not journal_events(campaign, "lease-expired")
        status = campaign_status(tmp_path / "camp")
        assert status["leases"]["issued"] >= status["computed"]


class TestCacheHits:
    def test_cache_hits_count_only_this_sweeps_cached_trials(
            self, tmp_path):
        """Sweep ``a`` is fully pre-cached, ``b`` not at all: ``b``
        must not inherit ``a``'s hits from the shared store."""
        a, b = window_sweep("a", n=3), window_sweep("b", n=3,
                                                   async_flushes=1)
        campaign = Campaign.create(tmp_path / "camp", [a, b])
        run_sweep(a, workers=1, cache=campaign.backend())
        result_a, result_b = campaign.run(workers=1)
        assert (result_a.cache_hits, sum(result_a.cached)) == (3, 3)
        assert (result_b.cache_hits, sum(result_b.cached)) == (0, 0)
        assert "0 cached, 3 computed" in result_b.describe()


class TestManifestDefaults:
    def test_manifest_records_execution_policy(self, tmp_path):
        campaign = Campaign.create(
            tmp_path / "camp", window_sweep(), workers=7, timeout=12.5,
            max_retries=5, backoff=1.5, name="policy-demo")
        manifest = campaign.cdir.read_manifest()
        assert manifest["name"] == "policy-demo"
        assert manifest["workers"] == 7
        assert manifest["timeout"] == 12.5
        assert manifest["max_retries"] == 5
        assert manifest["backoff"] == 1.5
        assert manifest["total_trials"] == 6

    def test_needs_at_least_one_sweep(self, tmp_path):
        with pytest.raises(CampaignError, match="at least one sweep"):
            Campaign.create(tmp_path / "camp", [])

    def test_sweep_names_must_be_unique(self, tmp_path):
        with pytest.raises(CampaignError, match="unique"):
            Campaign.create(tmp_path / "camp",
                            [window_sweep("a"), window_sweep("a")])

    def test_removed_sqlite_store_is_rejected_at_create(self, tmp_path):
        with pytest.raises(CampaignError, match="dir:<path>"):
            Campaign.create(tmp_path / "camp", window_sweep(),
                            cache="sqlite:results.sqlite")
        assert not (tmp_path / "camp").exists()

    def test_removed_sqlite_store_is_rejected_at_open(self, tmp_path):
        """A campaign made when ``sqlite:`` existed cannot be resumed;
        the error points at a fresh directory (results recompute
        byte-identically there)."""
        campaign = Campaign.create(tmp_path / "camp", window_sweep())
        manifest = campaign.cdir.read_manifest()
        manifest["cache"] = "sqlite:results.sqlite"
        campaign.cdir.write_manifest(manifest)
        with pytest.raises(CampaignError, match="fresh --dir"):
            Campaign.open(tmp_path / "camp")
        assert not (tmp_path / "camp" / "sqlite:results.sqlite").exists()

    def test_multi_sweep_campaign_writes_every_result(self, tmp_path):
        sweeps = [window_sweep("first", n=3),
                  window_sweep("second", n=2, async_flushes=1)]
        campaign = Campaign.create(tmp_path / "camp", sweeps)
        results = campaign.run(workers=2)
        assert [r.name for r in results] == ["first", "second"]
        for sweep in sweeps:
            assert campaign.cdir.read_result(sweep.name) is not None
