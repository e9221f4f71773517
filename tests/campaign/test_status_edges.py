"""Throughput/ETA edge cases and the machine-readable status CLI.

``_throughput`` divides by a journal-derived time span; these tests pin
the degenerate journals (no completions, one completion, identical
timestamps) that must yield ``None`` rather than a ZeroDivisionError —
and that ``repro campaign status --json`` emits the full dict.
"""

import json

from repro.__main__ import main
from repro.campaign import Campaign, campaign_status, render_status
from repro.campaign.journal import CampaignDir
from repro.campaign.status import _throughput

from .test_status_serve import small_sweep


def write_trials(directory, stamps):
    """Hand-write a run with one computed trial per timestamp."""
    cdir = CampaignDir(directory)
    cdir.append_event({"event": "start", "run": 1})
    lines = [json.dumps({
        "event": "trial", "sweep": "demo", "index": i,
        "spec_hash": f"h{i}", "status": "done",
        "elapsed": 0.5, "time": stamp})
        for i, stamp in enumerate(stamps)]
    with open(cdir.journal_path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


class TestThroughputEdges:
    def test_no_samples(self):
        assert _throughput([]) is None

    def test_single_sample(self):
        assert _throughput([(1000.0, 0.5)]) is None

    def test_zero_span(self):
        # Two trials journalled at the same wall-clock instant (fast
        # trials + coarse clocks): no rate, not a division by zero.
        assert _throughput([(1000.0, 0.1), (1000.0, 0.1)]) is None

    def test_backwards_clock(self):
        assert _throughput([(1000.0, 0.1), (999.0, 0.1)]) is None

    def test_two_samples_one_second_apart(self):
        assert _throughput([(1000.0, 0.5), (1001.0, 0.5)]) == 1.0


class TestStatusEdges:
    def test_zero_completed_campaign_has_no_rate_or_eta(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep())
        status = campaign_status(tmp_path / "camp")
        assert status["completed"] == 0
        assert status["trials_per_second"] is None
        assert status["eta_seconds"] is None
        # The human renderer must survive the Nones too.
        assert "0/4 trials" in render_status(status)

    def test_single_completion_has_no_rate(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep())
        write_trials(tmp_path / "camp", [1000.0])
        status = campaign_status(tmp_path / "camp")
        assert status["completed"] == 1
        assert status["trials_per_second"] is None
        assert status["eta_seconds"] is None

    def test_same_instant_completions_have_no_rate(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep())
        write_trials(tmp_path / "camp", [1000.0, 1000.0])
        status = campaign_status(tmp_path / "camp")
        assert status["completed"] == 2
        assert status["trials_per_second"] is None
        assert status["eta_seconds"] is None

    def test_finished_campaign_has_no_eta(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep(n=2))
        write_trials(tmp_path / "camp", [1000.0, 1001.0])
        status = campaign_status(tmp_path / "camp")
        # Rate exists, but nothing remains: no ETA.
        assert status["trials_per_second"] == 1.0
        assert status["remaining"] == 0
        assert status["eta_seconds"] is None


class TestStatusJsonCli:
    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        campaign = Campaign.create(tmp_path / "camp", small_sweep())
        campaign.run(workers=1)
        code = main(["campaign", "status", str(tmp_path / "camp"),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "finished"
        assert payload["completed"] == payload["total_trials"] == 4
        assert payload["eta_seconds"] is None
        assert payload == campaign_status(tmp_path / "camp")

    def test_status_json_on_created_campaign(self, tmp_path, capsys):
        Campaign.create(tmp_path / "camp", small_sweep())
        code = main(["campaign", "status", str(tmp_path / "camp"),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "created"
        assert payload["trials_per_second"] is None


class TestStateAfterResume:
    def write_events(self, directory, kinds):
        cdir = CampaignDir(directory)
        for kind in kinds:
            event = {"event": kind, "run": 1}
            if kind == "error":
                event.update(sweep="demo", message="injected")
            cdir.append_event(event)

    def test_resume_after_a_failure_is_in_progress(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep())
        self.write_events(tmp_path / "camp", ["start", "error", "start"])
        status = campaign_status(tmp_path / "camp")
        assert status["state"] == "in-progress"
        # The earlier failure stays in the history.
        assert status["errors"] == [{"sweep": "demo",
                                     "message": "injected"}]

    def test_failure_in_the_latest_run_is_failed(self, tmp_path):
        Campaign.create(tmp_path / "camp", small_sweep())
        self.write_events(tmp_path / "camp",
                          ["start", "error", "start", "error"])
        assert campaign_status(tmp_path / "camp")["state"] == "failed"
