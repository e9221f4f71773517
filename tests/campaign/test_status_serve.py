"""Status metrics and the read-only HTTP server."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import (Campaign, campaign_status, make_server,
                            render_status)
from repro.campaign.journal import CampaignDir, CampaignError
from repro.harness.spec import Sweep


def small_sweep(name="demo", n=4) -> Sweep:
    sweep = Sweep(name)
    for i in range(n):
        sweep.add("window", runahead="none", sled=8 + 8 * i,
                  config_base="small")
    return sweep


class TestStatus:
    def test_created_campaign(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep())
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "created"
        assert status["total_trials"] == 4
        assert status["completed"] == 0
        assert status["remaining"] == 4
        assert status["runs"] == 0
        assert status["eta_seconds"] is None

    def test_finished_campaign(self, tmp_path):
        campaign = Campaign.create(tmp_path / "camp", small_sweep())
        campaign.run(workers=2)
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "finished"
        assert status["completed"] == status["total_trials"] == 4
        assert status["computed"] == 4
        assert status["cached"] == 0
        assert status["remaining"] == 0
        assert status["progress"] == 1.0
        assert status["cache_hit_rate"] == 0.0
        assert status["runs"] == 1
        assert status["errors"] == []

    def test_resumed_campaign_counts_stay_consistent(self, tmp_path):
        """A trial computed in run 1 and cache-served in run 2 stays
        'done' — resume replays must never flip totals."""
        campaign = Campaign.create(tmp_path / "camp", small_sweep())
        campaign.run(workers=2)
        Campaign.open(tmp_path / "camp").run(workers=2)
        status = campaign_status(tmp_path / "camp")
        assert status["runs"] == 2
        assert status["computed"] == 4
        assert status["cached"] == 0
        assert status["completed"] == 4
        assert status["sweeps"]["demo"] == {"trials": 4, "done": 4,
                                            "cached": 0}

    def test_status_of_missing_campaign_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            campaign_status(tmp_path / "nothing-here")

    def test_throughput_and_eta_from_synthetic_journal(self, tmp_path):
        campaign = Campaign.create(tmp_path / "camp",
                                   small_sweep(n=4))
        cdir = CampaignDir(tmp_path / "camp")
        cdir.append_event({"event": "start", "run": 1})
        journal = cdir.journal_path
        # Hand-write two computed trials one second apart: 1 trial/s.
        lines = []
        for i, stamp in enumerate((1000.0, 1001.0)):
            lines.append(json.dumps({
                "event": "trial", "sweep": "demo", "index": i,
                "spec_hash": f"h{i}", "status": "done",
                "elapsed": 1.0, "time": stamp}))
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "in-progress"
        assert status["trials_per_second"] == pytest.approx(1.0)
        assert status["eta_seconds"] == pytest.approx(2.0)

    def test_render_status_is_human_readable(self, tmp_path):
        campaign = Campaign.create(tmp_path / "camp", small_sweep())
        campaign.run(workers=2)
        text = render_status(campaign_status(tmp_path / "camp"))
        assert "[finished]" in text
        assert "4/4 trials (100%)" in text
        assert "sweep demo: 4/4" in text


@pytest.fixture
def served_campaign(tmp_path):
    campaign = Campaign.create(tmp_path / "camp", small_sweep())
    campaign.run(workers=2)
    server = make_server(tmp_path / "camp")   # port=0: pick a free one
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestServer:
    def test_index_lists_endpoints(self, served_campaign):
        code, payload = fetch(served_campaign + "/")
        assert code == 200
        assert payload["campaign"] == "demo"
        assert payload["state"] == "finished"
        assert "/result/demo" in payload["endpoints"]

    def test_status_endpoint_matches_library(self, served_campaign,
                                             tmp_path):
        code, payload = fetch(served_campaign + "/status")
        assert code == 200
        local = campaign_status(tmp_path / "camp")
        assert payload["completed"] == local["completed"] == 4
        assert payload["state"] == "finished"

    def test_manifest_endpoint(self, served_campaign):
        code, payload = fetch(served_campaign + "/manifest")
        assert code == 200
        assert payload["name"] == "demo"
        assert len(payload["sweeps"][0]["trials"]) == 4

    def test_result_endpoint_serves_canonical_json(self, served_campaign,
                                                   tmp_path):
        code, payload = fetch(served_campaign + "/result/demo")
        assert code == 200
        on_disk = CampaignDir(tmp_path / "camp").read_result("demo")
        assert payload == json.loads(on_disk)

    def test_unknown_sweep_is_404(self, served_campaign):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(served_campaign + "/result/nope")
        assert excinfo.value.code == 404

    def test_path_traversal_is_404(self, served_campaign):
        for ugly in ("/result/..%2fcampaign", "/result/."):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(served_campaign + ugly)
            assert excinfo.value.code == 404

    def test_unknown_path_is_404(self, served_campaign):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(served_campaign + "/secrets")
        assert excinfo.value.code == 404

    def test_head_request(self, served_campaign):
        request = urllib.request.Request(served_campaign + "/status",
                                         method="HEAD")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.read() == b""

    def test_server_never_writes_to_the_campaign(self, served_campaign,
                                                 tmp_path):
        before = sorted(p.name for p in (tmp_path / "camp").iterdir())
        for path in ("/", "/status", "/manifest", "/result/demo",
                     "/healthz"):
            fetch(served_campaign + path)
        after = sorted(p.name for p in (tmp_path / "camp").iterdir())
        assert after == before

    def test_healthz_reports_ok_with_journal_figures(
            self, served_campaign, tmp_path):
        code, payload = fetch(served_campaign + "/healthz")
        assert code == 200
        assert payload["status"] == "ok"
        journal = (tmp_path / "camp" / "journal.jsonl").read_text()
        assert payload["journal_lines"] == len(journal.splitlines())
        assert payload["journal_events"] >= 1

    def test_healthz_503_when_campaign_state_unreadable(self, tmp_path):
        # A directory with no campaign in it: the manifest probe fails.
        (tmp_path / "empty").mkdir()
        server = make_server(tmp_path / "empty")
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"http://{host}:{port}/healthz")
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert body["status"] == "unhealthy"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestSigterm:
    def test_serve_shuts_down_cleanly_on_sigterm(self, tmp_path):
        """A supervisor's TERM must exit 0 via the KeyboardInterrupt
        path, not linger until a hard kill."""
        import os
        import signal
        import subprocess
        import sys
        import time

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
            .rstrip(os.pathsep))
        campaign = Campaign.create(tmp_path / "camp", small_sweep())
        campaign.run(workers=1)
        child = (
            "import sys\n"
            "from repro.campaign import serve\n"
            "serve(sys.argv[1], port=0,\n"
            "      announce=lambda line: print(line, flush=True))\n"
            "print('clean-exit', flush=True)\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path / "camp")],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            assert "serving campaign" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 0
        assert "clean-exit" in out
