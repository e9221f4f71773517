"""Sweep execution: deterministic sharding, ordering, cache wiring.

The sweeps here use cheap trials (the taint table and small-config
reference runs) so the multi-worker paths are exercised without paying
for paper-scale simulations.
"""

import os
import signal

import pytest

import repro.campaign.engine as engine_mod
import repro.campaign.worker as worker_mod
from repro.harness.cache import CacheBackend
from repro.harness.executor import (SerialExecutor, SweepResult,
                                    default_workers, run_sweep)
from repro.harness.runner import TrialError, run_trial
from repro.harness.spec import Sweep, Trial


def cheap_sweep(name="cheap") -> Sweep:
    sweep = Sweep(name)
    sweep.add("taint")
    sweep.add("run", workload="reference", runahead="none",
              config_base="small")
    sweep.add("run", workload="reference", runahead="original",
              config_base="small")
    sweep.add("window", runahead="none", sled=64, config_base="small")
    return sweep


class TestDeterministicSharding:
    @pytest.mark.slow
    def test_worker_count_does_not_change_bytes(self):
        serial = run_sweep(cheap_sweep(), workers=1, cache=None)
        sharded = run_sweep(cheap_sweep(), workers=3, cache=None)
        assert serial.to_json() == sharded.to_json()
        assert sharded.workers == 3

    def test_records_come_back_in_trial_order(self):
        sweep = cheap_sweep()
        result = run_sweep(sweep, workers=2, cache=None)
        assert [r["kind"] for r in result.records] == \
            [t.kind for t in sweep.trials]
        assert [r["label"] for r in result.records] == \
            [t.label for t in sweep.trials]

    def test_same_sweep_same_results_across_runs(self):
        first = run_sweep(cheap_sweep(), workers=1, cache=None)
        second = run_sweep(cheap_sweep(), workers=1, cache=None)
        assert first.to_json() == second.to_json()


class TestCacheWiring:
    def test_second_run_hits_cache(self, tmp_path):
        store = CacheBackend(root=tmp_path, code_version="v1")
        cold = run_sweep(cheap_sweep(), workers=1, cache=store)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(cold)
        warm = run_sweep(cheap_sweep(), workers=1, cache=store)
        assert warm.cache_hits == len(warm)
        assert warm.cache_misses == 0
        assert all(warm.cached)
        assert cold.to_json() == warm.to_json()

    def test_force_recomputes_despite_cache(self, tmp_path):
        store = CacheBackend(root=tmp_path, code_version="v1")
        run_sweep(cheap_sweep(), workers=1, cache=store)
        forced = run_sweep(cheap_sweep(), workers=1, cache=store,
                           force=True)
        assert forced.cache_misses == len(forced)

    def test_trial_shared_between_sweeps(self, tmp_path):
        store = CacheBackend(root=tmp_path, code_version="v1")
        run_sweep(cheap_sweep("first"), workers=1, cache=store)
        other = Sweep("second")
        other.add("taint")
        warm = run_sweep(other, workers=1, cache=store)
        assert warm.cache_hits == 1

    def test_cache_hits_are_per_sweep_on_a_shared_store(self, tmp_path):
        store = CacheBackend(root=tmp_path, code_version="v1")
        run_sweep(cheap_sweep(), workers=1, cache=store)
        run_sweep(cheap_sweep(), workers=1, cache=store)   # 4 store hits
        other = Sweep("other")
        other.add("window", runahead="none", sled=72, config_base="small")
        fresh = run_sweep(other, workers=1, cache=store)
        assert (fresh.cache_hits, fresh.cache_misses) == (0, 1)


class TestFailures:
    def test_unknown_workload_raises_trial_error_inline(self):
        sweep = Sweep("bad")
        sweep.add("run", workload="does-not-exist")
        with pytest.raises(TrialError, match="does-not-exist"):
            run_sweep(sweep, workers=1, cache=None)

    @pytest.mark.slow
    def test_worker_failure_surfaces_as_trial_error(self):
        sweep = cheap_sweep()
        sweep.add("run", workload="does-not-exist")
        sweep.add("taint")
        with pytest.raises(TrialError, match="does-not-exist"):
            run_sweep(sweep, workers=3, cache=None)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_cycle_ceiling_raises_did_not_halt(self, workers):
        sweep = Sweep("ceiling")
        sweep.add("taint")
        sweep.add("run", workload="reference", runahead="none",
                  config_base="small", max_cycles=2)
        with pytest.raises(TrialError, match="did not halt"):
            run_sweep(sweep, workers=workers, cache=None)

    def test_run_trial_rejects_unknown_kind(self):
        trial = Trial("attack", {"variant": "pht"})
        trial.kind = "bogus"   # bypass validation to hit the runner guard
        with pytest.raises(TrialError, match="no runner"):
            run_trial(trial)

    @pytest.mark.parametrize("key, value", [
        ("receiver", "prime-probe"), ("noise", {"jitter": 12}),
        ("trials", 2), ("seed", 7), ("cores", 2), ("corunner", "lbm"),
        ("smt", True), ("corunner_runahead", "original")])
    def test_attack_rejects_receiver_params(self, key, value):
        trial = Trial("attack", {"variant": "pht", key: value})
        with pytest.raises(TrialError, match=rf"{key}.*'extract' trial"):
            run_trial(trial)


def _kill_once(flag):
    """A trial runner that SIGKILLs the worker process computing the
    first trial it is handed (``flag`` marks that it already fired);
    it never kills the test process itself."""
    parent = os.getpid()

    def runner(trial):
        if os.getpid() != parent and not flag.exists():
            flag.write_text("fired")
            os.kill(os.getpid(), signal.SIGKILL)
        return run_trial(trial)
    return runner


def _alarm(signum, frame):
    raise TimeoutError("sweep hung after a worker was killed")


class TestExecutorProtocol:
    """:class:`SerialExecutor` is the reference; ``run_sweep`` above one
    worker runs a pool of campaign worker processes."""

    def test_serial_and_pool_are_byte_identical(self):
        sweep = cheap_sweep()
        serial = SerialExecutor().execute(sweep, cache=None)
        pooled = run_sweep(sweep, workers=3, cache=None)
        assert serial.to_json() == pooled.to_json()
        assert serial.workers == 1
        assert pooled.workers == 3

    def test_run_sweep_picks_executor_from_workers(self):
        sweep = cheap_sweep()
        via_wrapper = run_sweep(sweep, workers=1, cache=None)
        via_serial = SerialExecutor().execute(sweep, cache=None)
        assert via_wrapper.to_json() == via_serial.to_json()

    def test_pool_runs_inline_for_single_pending_trial(self, tmp_path,
                                                       monkeypatch):
        store = CacheBackend(root=tmp_path, code_version="v1")
        sweep = cheap_sweep()
        run_sweep(Sweep("seed", sweep.trials[:-1]), workers=1,
                  cache=store)

        def no_processes(*args, **kwargs):
            raise AssertionError("spawned worker processes for one trial")
        monkeypatch.setattr(engine_mod, "_LocalWorkers", no_processes)
        # 3 of 4 trials cached: one pending trial must not spawn a pool.
        result = run_sweep(sweep, workers=4, cache=store)
        assert result.cached == [True, True, True, False]
        assert result.to_json() == \
            SerialExecutor().execute(sweep, cache=store).to_json()

    def test_executor_progress_callback(self):
        lines = []
        sweep = Sweep("tiny")
        sweep.add("taint")
        SerialExecutor().execute(sweep, cache=None,
                                 progress=lines.append)
        assert lines == ["[1/1] taint: done"]

    def test_pool_progress_lines_match_serial(self):
        sweep = cheap_sweep()
        serial, pooled = [], []
        SerialExecutor().execute(sweep, cache=None, progress=serial.append)
        run_sweep(sweep, workers=2, cache=None, progress=pooled.append)
        assert serial == [f"[{i + 1}/4] {trial.label}: done"
                          for i, trial in enumerate(sweep.trials)]
        assert sorted(pooled) == sorted(serial)

    def test_pool_writes_the_given_backend(self, tmp_path):
        store = CacheBackend(root=tmp_path, code_version="v1")
        cold = run_sweep(cheap_sweep(), workers=2, cache=store)
        assert cold.cache_misses == len(cold)
        assert all(store.get(trial) is not None
                   for trial in cheap_sweep().trials)
        warm = run_sweep(cheap_sweep(), workers=1, cache=store)
        assert warm.cache_hits == len(warm)

    def test_killed_worker_is_recovered(self, tmp_path, monkeypatch):
        sweep = Sweep("killed")
        for sled in (8, 16, 24):
            sweep.add("window", runahead="none", sled=sled,
                      config_base="small")
        serial = SerialExecutor().execute(sweep, cache=None)
        monkeypatch.setattr(worker_mod, "run_trial",
                            _kill_once(tmp_path / "killed"))
        # The lost trial must be retried, not waited on forever.
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(60)
        try:
            result = run_sweep(sweep, workers=2, cache=None)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (tmp_path / "killed").exists()
        assert result.to_json() == serial.to_json()


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "9")
        assert default_workers() == 9

    def test_env_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        assert default_workers() == 1

    def test_malformed_env_warns_once_and_falls_back(self, monkeypatch):
        import warnings

        import repro.harness.executor as executor_mod
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        monkeypatch.setattr(executor_mod, "_warned_bad_workers", False)
        with pytest.warns(RuntimeWarning, match="malformed REPRO_WORKERS"):
            workers = default_workers()
        assert workers >= 1            # the sane default, not a crash
        # Second call in the same process stays silent (warn once).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_workers() == workers


class TestSweepResult:
    def test_select_with_dotted_filters(self):
        result = run_sweep(cheap_sweep(), workers=1, cache=None)
        runs = result.select("run", config_base="small")
        assert len(runs) == 2
        original = result.one("run", runahead="original")
        assert original["result"]["workload"] == "reference"

    def test_one_raises_on_ambiguity(self):
        result = run_sweep(cheap_sweep(), workers=1, cache=None)
        with pytest.raises(LookupError):
            result.one("run")

    def test_json_round_trip(self):
        result = run_sweep(cheap_sweep(), workers=1, cache=None)
        clone = SweepResult.from_json(result.to_json())
        assert clone.name == result.name
        assert clone.records == result.records
        assert clone.to_json() == result.to_json()
