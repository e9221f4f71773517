"""The /metrics, /timeline, and /dashboard HTTP surface."""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import Campaign, campaign_status, make_server, \
    render_status
from repro.harness.runner import run_trial
from repro.harness.spec import Sweep
from repro.obs.campaign import (dashboard_html, journal_timeline,
                                status_metrics)


def small_sweep(name="demo", n=4) -> Sweep:
    sweep = Sweep(name)
    for i in range(n):
        sweep.add("window", runahead="none", sled=8 + 8 * i,
                  config_base="small")
    return sweep


def paced_run(trial):
    """Hold each trial long enough for every local worker to claim."""
    time.sleep(0.2)
    return run_trial(trial)


def gauges(body):
    """{name: value} of the sample lines of a Prometheus text body."""
    return {name: float(value) for name, value in
            re.findall(r"^(\w+) (\S+)$", body, re.MULTILINE)}


@pytest.fixture
def campaign_dir(tmp_path):
    campaign = Campaign.create(tmp_path / "camp", small_sweep())
    campaign.run(workers=2)
    return tmp_path / "camp"


@pytest.fixture
def dashboard_server(campaign_dir):
    server = make_server(campaign_dir, dashboard=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def fetch_raw(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


class TestMetricsEndpoint:
    def test_prometheus_text_with_campaign_gauges(self,
                                                  dashboard_server):
        code, ctype, body = fetch_raw(dashboard_server + "/metrics")
        assert code == 200
        assert ctype.startswith("text/plain")
        assert "# TYPE repro_campaign_trials_completed gauge" in body
        assert "repro_campaign_trials_completed 4" in body
        assert "repro_campaign_progress_ratio 1" in body
        assert "repro_campaign_finished 1" in body

    def test_every_sample_is_a_typed_gauge(self, dashboard_server):
        _, _, body = fetch_raw(dashboard_server + "/metrics")
        names = re.findall(r"^# TYPE (\w+) gauge$", body, re.MULTILINE)
        assert names == sorted(gauges(body))
        assert body.endswith("\n") and not body.endswith("\n\n")

    def test_local_hosts_and_their_leases(self, tmp_path):
        """A finished local run's worker processes appear as hosts,
        read from the journal by a process that computed nothing."""
        Campaign.create(tmp_path / "camp", small_sweep()).run(
            workers=2, runner=paced_run)
        server = make_server(tmp_path / "camp")
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            _, _, body = fetch_raw(f"http://{host}:{port}/metrics")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        values = gauges(body)
        assert values["repro_campaign_hosts"] == 2
        assert values["repro_campaign_leases_issued"] == 4
        assert values["repro_campaign_retries"] == 0
        assert values["repro_campaign_trials_computed"] == 4
        assert not any(name.startswith("repro_coordinator_")
                       for name in values)

    def test_metrics_available_without_dashboard_flag(self,
                                                      campaign_dir):
        server = make_server(campaign_dir)    # dashboard defaults off
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            code, ctype, _ = fetch_raw(f"http://{host}:{port}/metrics")
            assert code == 200
            assert ctype.startswith("text/plain")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch_raw(f"http://{host}:{port}/dashboard")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestTimelineEndpoint:
    def test_trial_rows_from_the_journal(self, dashboard_server):
        code, ctype, body = fetch_raw(dashboard_server + "/timeline")
        assert code == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["campaign"] == "demo"
        assert payload["total_trials"] == 4
        assert len(payload["trials"]) == 4
        for trial in payload["trials"]:
            assert trial["status"] == "done"
            assert trial["elapsed"] >= 0
            assert trial["start"] <= trial["end"]

    def test_matches_the_library_view(self, dashboard_server,
                                      campaign_dir):
        _, _, body = fetch_raw(dashboard_server + "/timeline")
        assert json.loads(body) == json.loads(
            json.dumps(journal_timeline(campaign_dir)))


class TestDashboardEndpoint:
    def test_single_file_html(self, dashboard_server):
        code, ctype, body = fetch_raw(dashboard_server + "/dashboard")
        assert code == 200
        assert ctype.startswith("text/html")
        assert body.startswith("<!doctype html>")
        assert "repro campaign: demo" in body
        # Self-contained: polls its own endpoints, loads nothing else.
        assert "/status" in body and "/timeline" in body
        assert "src=" not in body and "href=" not in body

    def test_index_advertises_dashboard_routes(self, dashboard_server):
        _, _, body = fetch_raw(dashboard_server + "/")
        endpoints = json.loads(body)["endpoints"]
        assert "/dashboard" in endpoints
        assert "/timeline" in endpoints
        assert "/metrics" in endpoints


class TestLibraryAdapters:
    def test_status_metrics_skips_rate_when_unknown(self, campaign_dir):
        from repro.campaign import campaign_status
        status = campaign_status(campaign_dir)
        status["trials_per_second"] = None
        status["eta_seconds"] = None
        text = status_metrics(status)
        assert "repro_campaign_trials_per_second" not in text
        assert "repro_campaign_eta_seconds" not in text

    def test_dashboard_html_injects_title(self):
        html = dashboard_html("my title")
        assert "my title" in html
        assert "__TITLE__" not in html


class TestJournalWithLeaseClockEvents:
    """A journal written while leases could be renewed and expired
    (``renew`` / ``lease-expired`` events, ``ttl_seconds`` fields)
    still renders; those events no longer feed any figure."""

    @pytest.fixture
    def old_journal(self, tmp_path):
        sweep = small_sweep(n=1)
        campaign = Campaign.create(tmp_path / "camp", sweep)
        key = {"sweep": "demo", "index": 0}
        for event in (
                {"event": "start", "run": 1, "workers": None,
                 "mode": "coordinator", "pending": 1, "cached": 0},
                {"event": "lease", "run": 1, **key, "host": "a:1",
                 "lease": "l1", "ttl_seconds": 30.0},
                {"event": "renew", "run": 1, **key, "host": "a:1",
                 "lease": "l1"},
                {"event": "lease-expired", "run": 1, **key,
                 "host": "a:1", "lease": "l1"},
                {"event": "retry", "run": 1, **key, "attempt": 1,
                 "reason": "lease expired (host a:1 dead, hung, or "
                           "partitioned)"},
                {"event": "lease", "run": 1, **key, "host": "b:2",
                 "lease": "l2", "ttl_seconds": 30.0},
                {"event": "renew", "run": 1, **key, "host": "b:2",
                 "lease": "l2"},
                {"event": "trial", "run": 1, **key,
                 "spec_hash": sweep.trials[0].spec_hash(),
                 "status": "done", "retries": 1, "host": "b:2",
                 "elapsed": 0.01}):
            campaign.cdir.append_event(event)
        return tmp_path / "camp"

    def test_status_counts_leases_issued_only(self, old_journal):
        status = campaign_status(old_journal)
        assert status["leases"] == {"issued": 2}
        assert status["hosts"] == ["a:1", "b:2"]
        assert status["retries"] == 1
        assert "2 lease(s)" in render_status(status)
        assert "renewed" not in render_status(status)

    def test_metrics_and_timeline_endpoints(self, old_journal):
        server = make_server(old_journal, dashboard=True)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            code, _, body = fetch_raw(f"http://{host}:{port}/metrics")
            tcode, _, timeline = fetch_raw(
                f"http://{host}:{port}/timeline")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert code == 200 and tcode == 200
        values = gauges(body)
        assert values["repro_campaign_leases_issued"] == 2
        assert values["repro_campaign_hosts"] == 2
        assert not any("renewed" in name or "expired" in name
                       for name in values)
        payload = json.loads(timeline)
        (row,) = payload["trials"]
        assert (row["host"], row["status"]) == ("b:2", "done")
        assert payload["hosts"]["b:2"]["done"] == 1
        assert all("expired_leases" not in h
                   for h in payload["hosts"].values())
