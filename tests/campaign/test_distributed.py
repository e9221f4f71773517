"""Multi-host campaign sharding: coordinator + worker protocol.

Fast tier: in-process coordinator with worker loops driven from
threads — lease journaling, expiry/reclaim, idempotent completions,
the failure taxonomy over HTTP, graceful worker degradation.

Slow tier: the chaos acceptance run — two worker *processes* pulling
through a fault-injecting proxy, one host SIGKILLed mid-campaign, the
coordinator SIGKILLed and restarted mid-campaign — and the final
result must be byte-identical to a clean single-host serial run.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.campaign import (Campaign, campaign_status, make_coordinator,
                            run_worker)
from repro.campaign.netretry import RetryPolicy, request_json
from repro.harness.executor import run_sweep
from repro.harness.runner import TrialError
from repro.harness.spec import Sweep

from ._chaos import (FlakyProxy, done_count, free_port, kill_host,
                     spawn_coordinator, spawn_worker, wait_for_journal)

FAST_NET = RetryPolicy(attempts=4, base_delay=0.01, max_delay=0.05,
                       timeout=5.0)


def window_sweep(name="dist", n=8) -> Sweep:
    sweep = Sweep(name)
    for i in range(n):
        sweep.add("window", runahead="none", sled=8 + 8 * i,
                  config_base="small")
    return sweep


def journal_events(campaign_dir):
    events = []
    path = campaign_dir / "journal.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                pass
    return events


class _Coordinator:
    """In-process coordinator for the fast tests."""

    def __init__(self, directory, lease_seconds=5.0):
        self.server, self.state, self.loop = make_coordinator(
            directory, lease_seconds=lease_seconds)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        self.loop.start()
        return self

    def __exit__(self, *exc):
        self.loop.stop()
        self.server.shutdown()
        self.server.server_close()


def run_workers(url, count, **kwargs):
    codes = [None] * count

    def pull(i):
        codes[i] = run_worker(url, host=f"host-{i}", policy=FAST_NET,
                              poll=0.05, **kwargs)
    threads = [threading.Thread(target=pull, args=(i,))
               for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    return codes


class TestCoordinatedExecution:
    def test_two_hosts_byte_identical(self, tmp_path):
        sweep = window_sweep()
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        Campaign.create(tmp_path / "camp", sweep, cache="dir:cache")
        with _Coordinator(tmp_path / "camp") as coord:
            assert run_workers(coord.url, 2) == [0, 0]
        assert (tmp_path / "camp" / "dist.result.json").read_text() \
            == reference

        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "finished"
        assert status["hosts"] == ["host-0", "host-1"]
        assert status["leases"]["issued"] == len(sweep)

    def test_lease_events_journaled_with_hosts(self, tmp_path):
        sweep = window_sweep(n=4)
        Campaign.create(tmp_path / "camp", sweep)
        with _Coordinator(tmp_path / "camp") as coord:
            assert run_workers(coord.url, 1) == [0]
        events = journal_events(tmp_path / "camp")
        leases = [e for e in events if e["event"] == "lease"]
        assert len(leases) == 4
        assert all(e["host"] == "host-0" and e["lease"] for e in leases)
        done = [e for e in events
                if e["event"] == "trial" and e["status"] == "done"]
        assert {e["host"] for e in done} == {"host-0"}
        # Every completion's lease was journaled before it.
        lease_keys = [(e["sweep"], e["index"]) for e in leases]
        assert all((e["sweep"], e["index"]) in lease_keys for e in done)

    def test_restarted_coordinator_resumes_and_reseals(self, tmp_path):
        sweep = window_sweep()
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        Campaign.create(tmp_path / "camp", sweep)
        with _Coordinator(tmp_path / "camp") as coord:
            assert run_workers(coord.url, 1, max_trials=3) == [0]
        # New coordinator over the same directory: plans against the
        # cache, only the remainder is computed.
        with _Coordinator(tmp_path / "camp") as coord:
            assert run_workers(coord.url, 2) == [0, 0]
        assert (tmp_path / "camp" / "dist.result.json").read_text() \
            == reference
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "finished"
        assert status["runs"] == 2

    def test_fully_cached_campaign_finishes_without_workers(
            self, tmp_path):
        sweep = window_sweep(n=4)
        Campaign.create(tmp_path / "camp", sweep)
        Campaign.open(tmp_path / "camp").run(workers=1)
        with _Coordinator(tmp_path / "camp") as coord:
            # A worker should be told "done" on its first claim.
            assert run_workers(coord.url, 1) == [0]
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "finished"
        # The local run leased its trials; the coordinator's run
        # (everything after its start event) leased none.
        events = journal_events(tmp_path / "camp")
        last_start = max(i for i, e in enumerate(events)
                         if e["event"] == "start")
        assert not any(e["event"] == "lease" for e in events[last_start:])

    def test_mixed_local_then_distributed_campaign(self, tmp_path):
        """A campaign started by local workers finishes under a
        coordinator (and vice versa is the restart test above)."""
        sweep = window_sweep()
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        Campaign.create(tmp_path / "camp", sweep, cache="dir:cache")
        from repro.harness.runner import run_trial

        ran = 0

        def some(trial):
            nonlocal ran
            ran += 1
            if ran > 3:
                raise KeyboardInterrupt   # stop the local run early
            return run_trial(trial)
        try:
            Campaign.open(tmp_path / "camp").run(workers=1, runner=some)
        except KeyboardInterrupt:
            pass
        with _Coordinator(tmp_path / "camp") as coord:
            assert run_workers(coord.url, 2) == [0, 0]
        assert (tmp_path / "camp" / "dist.result.json").read_text() \
            == reference


class TestLeases:
    def test_expired_lease_is_reclaimed(self, tmp_path):
        sweep = window_sweep(n=2)
        Campaign.create(tmp_path / "camp", sweep)
        with _Coordinator(tmp_path / "camp",
                          lease_seconds=0.2) as coord:
            # Claim a trial and never touch it again — a dead host.
            code, claim = request_json(f"{coord.url}/claim",
                                       payload={"host": "ghost"},
                                       policy=FAST_NET)
            assert code == 200 and "lease" in claim
            # A live worker picks up everything, including the
            # reclaimed trial, once the lease expires.
            assert run_workers(coord.url, 1) == [0]
        events = journal_events(tmp_path / "camp")
        expired = [e for e in events if e["event"] == "lease-expired"]
        assert len(expired) == 1 and expired[0]["host"] == "ghost"
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 1
        assert "ghost" in retries[0]["reason"]
        assert campaign_status(tmp_path / "camp")["state"] == "finished"

    def test_renewal_keeps_a_slow_trial_alive(self, tmp_path):
        sweep = window_sweep(n=2)
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        Campaign.create(tmp_path / "camp", sweep)

        def slow(trial):
            from repro.harness.runner import run_trial
            time.sleep(0.7)          # several lease lifetimes
            return run_trial(trial)
        with _Coordinator(tmp_path / "camp",
                          lease_seconds=0.2) as coord:
            assert run_workers(coord.url, 1, runner=slow) == [0]
        events = journal_events(tmp_path / "camp")
        assert any(e["event"] == "renew" for e in events)
        assert not any(e["event"] == "lease-expired" for e in events)
        assert (tmp_path / "camp" / "dist.result.json").read_text() \
            == reference

    def test_duplicate_completion_is_idempotent(self, tmp_path):
        sweep = window_sweep(n=2)
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        Campaign.create(tmp_path / "camp", sweep)
        with _Coordinator(tmp_path / "camp") as coord:
            code, claim = request_json(f"{coord.url}/claim",
                                       payload={"host": "dup"},
                                       policy=FAST_NET)
            from repro.harness.runner import run_trial
            from repro.harness.spec import Trial
            result = run_trial(Trial.from_dict(claim["trial"]))
            payload = {"lease": claim["lease"], "host": "dup",
                       "sweep": claim["sweep"], "index": claim["index"],
                       "spec_hash": claim["spec_hash"], "result": result}
            code1, body1 = request_json(f"{coord.url}/complete",
                                        payload=payload, policy=FAST_NET)
            code2, body2 = request_json(f"{coord.url}/complete",
                                        payload=payload, policy=FAST_NET)
            assert (code1, body1) == (200, {"ok": True})
            assert code2 == 200 and body2.get("duplicate")
            assert run_workers(coord.url, 1) == [0]
        assert (tmp_path / "camp" / "dist.result.json").read_text() \
            == reference
        events = journal_events(tmp_path / "camp")
        done = [e for e in events
                if e["event"] == "trial" and e["status"] == "done"]
        assert len(done) == 2            # the duplicate left no event

    def test_orphan_completion_with_wrong_hash_rejected(self, tmp_path):
        sweep = window_sweep(n=2)
        Campaign.create(tmp_path / "camp", sweep)
        with _Coordinator(tmp_path / "camp") as coord:
            code, _ = request_json(
                f"{coord.url}/complete",
                payload={"lease": "bogus", "sweep": "dist", "index": 0,
                         "spec_hash": "f" * 16, "result": {"x": 1}},
                policy=FAST_NET)
            assert code == 409
        events = journal_events(tmp_path / "camp")
        assert not any(e["event"] == "trial" and e["status"] == "done"
                       for e in events)


class TestMalformedRequests:
    """Wrongly typed key fields are rejected with a 400 — never an
    exception inside the state that drops the connection and sends
    the worker into its retry budget."""

    @pytest.mark.parametrize("route, payload", [
        ("renew", {"lease": ["x"]}),
        ("complete", {"lease": "bogus", "sweep": ["dist"], "index": 0,
                      "result": {}}),
        ("complete", {"lease": "bogus", "sweep": "dist", "index": "0",
                      "result": {}}),
        ("fail", {"lease": "bogus", "sweep": {"a": 1}, "index": 0}),
        ("fail", {"lease": "bogus", "sweep": "dist", "index": 0.0}),
    ])
    def test_wrong_field_types_are_400(self, tmp_path, route, payload):
        Campaign.create(tmp_path / "camp", window_sweep(n=2))
        with _Coordinator(tmp_path / "camp") as coord:
            code, body = request_json(f"{coord.url}/{route}",
                                      payload=payload, policy=FAST_NET)
            assert code == 400 and "must be a" in body["error"]
            # The state is unharmed: a worker still finishes the run.
            assert run_workers(coord.url, 1) == [0]
        assert campaign_status(tmp_path / "camp")["state"] == "finished"


class TestFailureTaxonomy:
    def test_trial_error_fails_campaign_and_workers_exit_1(
            self, tmp_path):
        sweep = window_sweep(n=4)
        Campaign.create(tmp_path / "camp", sweep)

        def broken(trial):
            raise TrialError("deterministic failure")
        with _Coordinator(tmp_path / "camp") as coord:
            codes = run_workers(coord.url, 2, runner=broken)
        assert set(codes) == {1}
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "failed"
        assert "deterministic failure" in status["errors"][0]["message"]

    def test_transient_errors_retry_then_succeed(self, tmp_path):
        sweep = window_sweep(n=3)
        reference = run_sweep(sweep, workers=1, cache=None).to_json()
        Campaign.create(tmp_path / "camp", sweep)
        failures = {"left": 2}
        flock = threading.Lock()

        def flaky(trial):
            from repro.harness.runner import run_trial
            with flock:
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise OSError("transient infrastructure burp")
            return run_trial(trial)
        with _Coordinator(tmp_path / "camp") as coord:
            assert run_workers(coord.url, 2, runner=flaky) == [0, 0]
        assert (tmp_path / "camp" / "dist.result.json").read_text() \
            == reference
        events = journal_events(tmp_path / "camp")
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 2
        assert campaign_status(tmp_path / "camp")["retries"] == 2

    def test_retry_exhaustion_fails_campaign(self, tmp_path):
        sweep = window_sweep(n=2)
        Campaign.create(tmp_path / "camp", sweep, max_retries=1,
                        backoff=0.01)

        def always_broken(trial):
            raise OSError("hardware on fire")
        with _Coordinator(tmp_path / "camp") as coord:
            codes = run_workers(coord.url, 1, runner=always_broken)
        assert codes == [1]
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "failed"
        assert "failed 2 times" in status["errors"][0]["message"]
        assert "hardware on fire" in status["errors"][0]["message"]


class TestGracefulDegradation:
    def test_worker_exits_3_when_coordinator_never_existed(self):
        port = free_port()
        code = run_worker(f"http://127.0.0.1:{port}", host="lost",
                          policy=RetryPolicy(attempts=2, base_delay=0.0,
                                             max_delay=0.0, timeout=0.5))
        assert code == 3

    def test_worker_exits_3_when_coordinator_dies_midway(self, tmp_path):
        sweep = window_sweep(n=6)
        Campaign.create(tmp_path / "camp", sweep)
        coord = _Coordinator(tmp_path / "camp").__enter__()
        try:
            stop_after = {"n": 2}

            def stopping(trial):
                from repro.harness.runner import run_trial
                result = run_trial(trial)
                stop_after["n"] -= 1
                if stop_after["n"] == 0:
                    coord.__exit__()       # coordinator vanishes
                return result
            codes = run_workers(coord.url, 1, runner=stopping)
            assert codes == [3]
        finally:
            try:
                coord.__exit__()
            except Exception:
                pass
        # Nothing corrupted: a local resume still converges to the
        # reference bytes.
        result = Campaign.open(tmp_path / "camp").run(workers=1)[0]
        assert result.to_json() \
            == run_sweep(sweep, workers=1, cache=None).to_json()

    def test_coordinator_healthz_and_snapshot(self, tmp_path):
        Campaign.create(tmp_path / "camp", window_sweep(n=2))
        with _Coordinator(tmp_path / "camp") as coord:
            with urllib.request.urlopen(f"{coord.url}/healthz") as r:
                assert r.status == 200
            with urllib.request.urlopen(f"{coord.url}/coordinator") as r:
                snap = json.loads(r.read())
        assert snap["state"] == "serving"
        assert snap["unfinished"] == 2
        assert snap["lease_seconds"] == pytest.approx(5.0)


@pytest.mark.slow
@pytest.mark.parametrize("cache_uri", ["dir:cache"])
def test_chaos_acceptance(tmp_path, cache_uri):
    """The headline invariant: two worker hosts pulling through a
    fault-injecting proxy, one host SIGKILLed mid-campaign, the
    coordinator SIGKILLed and restarted mid-campaign — and the final
    result is byte-identical to a clean single-host serial run."""
    from .test_resume import acceptance_sweep

    sweep = acceptance_sweep(n=120)
    campaign_dir = tmp_path / "camp"
    journal = campaign_dir / "journal.jsonl"
    Campaign.create(campaign_dir, sweep, cache=cache_uri)
    reference = run_sweep(sweep, workers=1, cache=None).to_json()

    port = free_port()
    url = f"http://127.0.0.1:{port}"
    log = open(tmp_path / "children.log", "w")
    proxy = FlakyProxy(port, seed=42).start()
    procs = []
    try:
        coordinator = spawn_coordinator(campaign_dir, port,
                                        lease_seconds=2.0, log=log)
        procs.append(coordinator)
        workers = [spawn_worker(proxy.url, f"chaos-{i}", log=log)
                   for i in range(2)]
        procs += workers

        # Kill one worker host around a quarter of the way in.
        wait_for_journal(journal,
                         lambda text: done_count(text) >= len(sweep) // 4)
        kill_host(workers[0])
        replacement = spawn_worker(proxy.url, "chaos-replacement",
                                   log=log)
        procs.append(replacement)

        # SIGKILL the coordinator itself around the halfway mark, then
        # restart it on the same port: surviving workers ride out the
        # gap on their network retry budgets.
        wait_for_journal(journal,
                         lambda text: done_count(text) >= len(sweep) // 2)
        kill_host(coordinator)
        coordinator = spawn_coordinator(campaign_dir, port,
                                        lease_seconds=2.0, log=log)
        procs.append(coordinator)

        for worker in (workers[1], replacement):
            worker.wait(timeout=240)
        assert coordinator.wait(timeout=60) == 0
        exit_codes = {workers[1].returncode, replacement.returncode}
        # 0 = saw the campaign finish; 3 = lost the coordinator during
        # the restart window after its last trial.  Either is a clean
        # exit — never a corrupting one.
        assert exit_codes <= {0, 3}
    finally:
        for proc in procs:
            try:
                kill_host(proc)
            except Exception:
                pass
        proxy.stop()
        log.close()

    assert (campaign_dir / "acceptance.result.json").read_text() \
        == reference
    status = campaign_status(campaign_dir)
    assert status["state"] == "finished"
    assert status["remaining"] == 0
    assert proxy.faults > 0, "the proxy never injected a fault"
    # Both the killed host and its replacement appear in the journal.
    assert {"chaos-0", "chaos-1"} <= set(status["hosts"])
