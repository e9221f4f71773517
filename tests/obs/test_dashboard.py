"""The /metrics, /timeline, and /dashboard HTTP surface."""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import Campaign, make_server
from repro.campaign.coordinator import make_coordinator
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
        assert values["repro_campaign_leases_expired"] == 0
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


class TestCoordinatorMetrics:
    def test_coordinator_serves_metrics_and_dashboard(self,
                                                      campaign_dir):
        server, state, loop = make_coordinator(campaign_dir,
                                               dashboard=True)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            code, ctype, body = fetch_raw(
                f"http://{host}:{port}/metrics")
            assert code == 200
            assert ctype.startswith("text/plain")
            values = gauges(body)
            # The local run's leases come from the journal, though
            # this coordinator granted none of them.
            assert values["repro_campaign_leases_issued"] == 4
            assert values["repro_coordinator_queued"] == 0
            assert values["repro_coordinator_unfinished"] == 0
            code, ctype, _ = fetch_raw(
                f"http://{host}:{port}/dashboard")
            assert code == 200
            assert ctype.startswith("text/html")
        finally:
            loop.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_lease_retry_and_queue_gauges(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep(), backoff=60.0)
        server, state, loop = make_coordinator(tmp_path / "camp")
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            _, first = state.claim("host-a")
            _, second = state.claim("host-b")
            assert state.renew(second["lease"])[1]["ok"]
            state.fail({"lease": first["lease"], "kind": "worker-error",
                        "reason": "injected"})
            _, _, body = fetch_raw(f"http://{host}:{port}/metrics")
        finally:
            loop.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        values = gauges(body)
        assert values["repro_campaign_hosts"] == 2
        assert values["repro_campaign_leases_issued"] == 2
        assert values["repro_campaign_leases_renewed"] == 1
        assert values["repro_campaign_retries"] == 1
        assert values["repro_campaign_trials_retried"] == 1
        assert values["repro_coordinator_queued"] == 2
        assert values["repro_coordinator_delayed"] == 1
        assert values["repro_coordinator_leased"] == 1
        assert values["repro_coordinator_unfinished"] == 4
