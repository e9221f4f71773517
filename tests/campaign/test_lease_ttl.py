"""Lease TTLs are monotonic-relative, never wall-clock timestamps.

Regression suite for the clock-mixing bug: the coordinator derived
lease expiry from ``time.monotonic()`` but journaled/reported it as a
``time.time()`` timestamp, so an NTP step (or plain wall/monotonic
drift) mis-scheduled worker renewals.  Claims and renewals now carry
``ttl_seconds`` — seconds of life from *now* — and the worker
heartbeat paces itself (and adapts) from that relative value alone.
"""

import json
import time

import pytest

from repro.campaign import Campaign, make_coordinator
from repro.campaign.coordinator import CoordinatorState
from repro.campaign.worker import _Heartbeat
from repro.harness.spec import Sweep


def _no_call(endpoint, payload):
    raise AssertionError("pacing tests never start the heartbeat")


def window_sweep(name="ttl", n=2) -> Sweep:
    sweep = Sweep(name)
    for i in range(n):
        sweep.add("window", runahead="none", sled=8 + 8 * i,
                  config_base="small")
    return sweep


def make_state(tmp_path, lease_seconds=5.0, **create_kwargs):
    Campaign.create(tmp_path / "camp", window_sweep(), **create_kwargs)
    _, state, _ = make_coordinator(tmp_path / "camp",
                                   lease_seconds=lease_seconds)
    return state


def journal_events(tmp_path):
    path = tmp_path / "camp" / "journal.jsonl"
    return [json.loads(line)
            for line in path.read_text().splitlines() if line]


class TestClaimTTL:
    def test_claim_reports_relative_ttl(self, tmp_path):
        state = make_state(tmp_path, lease_seconds=5.0)
        code, claim = state.claim("host-a")
        assert code == 200
        # Relative seconds-from-now, not an epoch timestamp: a lease
        # a few seconds long must not look like ~1.7e9.
        assert claim["ttl_seconds"] == pytest.approx(5.0, abs=0.25)
        assert claim["lease_seconds"] == pytest.approx(5.0)

    def test_journaled_lease_event_carries_ttl_not_wall_clock(
            self, tmp_path):
        state = make_state(tmp_path, lease_seconds=5.0)
        state.claim("host-a")
        leases = [e for e in journal_events(tmp_path)
                  if e["event"] == "lease"]
        assert len(leases) == 1
        assert leases[0]["ttl_seconds"] == pytest.approx(5.0, abs=0.25)
        assert "expires" not in leases[0]

    def test_per_trial_deadline_caps_the_ttl(self, tmp_path):
        """Near a trial timeout the lease (and so the advertised ttl)
        is capped below the full lease lifetime."""
        state = make_state(tmp_path, lease_seconds=30.0, timeout=0.5)
        _, claim = state.claim("host-a")
        # deadline + lease/3 cap: 0.5 + 10.0, far below 30s would be
        # wrong; the cap formula gives deadline + lease_seconds / 3.
        assert claim["ttl_seconds"] <= 0.5 + 30.0 / 3 + 0.25
        assert claim["ttl_seconds"] < 30.0


class TestRenewTTL:
    def test_renew_reports_fresh_relative_ttl(self, tmp_path):
        state = make_state(tmp_path, lease_seconds=5.0)
        _, claim = state.claim("host-a")
        code, renewed = state.renew(claim["lease"])
        assert code == 200 and renewed["ok"]
        assert renewed["ttl_seconds"] == pytest.approx(5.0, abs=0.25)

    def test_unknown_lease_renewal_refused(self, tmp_path):
        state = make_state(tmp_path)
        _, renewed = state.renew("not-a-lease")
        assert renewed == {"ok": False, "reason": "unknown-lease"}


class TestHeartbeatPacing:
    def test_interval_is_a_third_of_the_ttl(self):
        beat = _Heartbeat(_no_call)
        beat.track("lease", 9.0)
        assert beat.interval == pytest.approx(3.0)

    def test_interval_floor(self):
        beat = _Heartbeat(_no_call)
        beat.track("lease", 0.01)
        assert beat.interval == pytest.approx(0.05)

    def test_worker_paces_from_claim_ttl_not_lease_seconds(self):
        """A deadline-capped claim (ttl < lease_seconds) must tighten
        the heartbeat; pacing from lease_seconds would renew too late.
        This mirrors run_worker's ttl-preferring claim handling."""
        claim = {"lease_seconds": 30.0, "ttl_seconds": 3.0}
        ttl = claim.get("ttl_seconds") or claim.get("lease_seconds", 30.0)
        beat = _Heartbeat(_no_call)
        beat.track("lease", float(ttl))
        assert beat.interval == pytest.approx(1.0)

    def test_old_coordinator_without_ttl_falls_back(self):
        claim = {"lease_seconds": 6.0}
        ttl = claim.get("ttl_seconds") or claim.get("lease_seconds", 30.0)
        beat = _Heartbeat(_no_call)
        beat.track("lease", float(ttl))
        assert beat.interval == pytest.approx(2.0)

    def test_one_thread_renews_only_the_tracked_lease(self):
        calls = []

        def call(endpoint, payload):
            calls.append(payload["lease"])
            return 200, {"ok": True, "ttl_seconds": 0.15}
        beat = _Heartbeat(call)
        beat.start()
        try:
            beat.track("a", 0.15)            # renews every 0.05 s
            time.sleep(0.3)
            beat.release()
            time.sleep(0.1)                  # let an in-flight beat land
            renewed = len(calls)
            time.sleep(0.3)
            assert len(calls) == renewed     # released: no renewals
            beat.track("b", 0.15)
            time.sleep(0.3)
        finally:
            beat.stop()
            beat.join(timeout=5)
        assert not beat.is_alive()
        assert calls.count("a") >= 2 and calls.count("b") >= 2
        assert calls.index("b") >= renewed
