"""Campaign directory semantics: manifest, journal, kill tolerance."""

import json

import pytest

from repro.campaign.journal import (CampaignDir, CampaignError,
                                    MANIFEST_VERSION)
from repro.campaign.status import campaign_status
from repro.harness.spec import Sweep


def demo_sweep(name="demo", n=3) -> Sweep:
    sweep = Sweep(name)
    for i in range(n):
        sweep.add("window", runahead="none", sled=16 + 8 * i,
                  config_base="small")
    return sweep


class TestManifest:
    def test_round_trip(self, tmp_path):
        cdir = CampaignDir(tmp_path / "camp")
        manifest = {"version": MANIFEST_VERSION, "name": "demo",
                    "sweeps": [demo_sweep().to_dict()], "cache": "dir:cache"}
        cdir.write_manifest(manifest)
        assert cdir.exists()
        assert cdir.read_manifest() == manifest
        sweeps = cdir.sweeps()
        assert len(sweeps) == 1
        assert sweeps[0].signature() == demo_sweep().signature()

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign"):
            CampaignDir(tmp_path / "nowhere").read_manifest()

    def test_corrupt_manifest_raises(self, tmp_path):
        cdir = CampaignDir(tmp_path)
        cdir.manifest_path.write_text("{broken", encoding="utf-8")
        with pytest.raises(CampaignError, match="corrupt"):
            cdir.read_manifest()

    def test_wrong_version_raises(self, tmp_path):
        cdir = CampaignDir(tmp_path)
        cdir.write_manifest({"version": 99, "name": "x", "sweeps": []})
        with pytest.raises(CampaignError, match="version"):
            cdir.read_manifest()


class TestJournal:
    def test_events_append_in_order(self, tmp_path):
        cdir = CampaignDir(tmp_path)
        cdir.path.mkdir(exist_ok=True)
        for i in range(3):
            cdir.append_event({"event": "trial", "index": i})
        assert [e["index"] for e in cdir.events()] == [0, 1, 2]
        assert all("time" in e for e in cdir.events())

    def test_truncated_tail_is_skipped(self, tmp_path):
        """A SIGKILL can leave a half-written last line — readers must
        survive it and keep every complete line."""
        cdir = CampaignDir(tmp_path)
        cdir.path.mkdir(exist_ok=True)
        cdir.append_event({"event": "trial", "index": 0})
        cdir.append_event({"event": "trial", "index": 1})
        with open(cdir.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "trial", "ind')   # no newline, cut
        assert [e["index"] for e in cdir.events()] == [0, 1]

    def test_no_journal_yields_nothing(self, tmp_path):
        assert list(CampaignDir(tmp_path / "void").events()) == []

    def test_completed_hashes_filters_by_sweep_and_status(self, tmp_path):
        """``campaign status`` counts a sweep's journaled completions."""
        cdir = CampaignDir(tmp_path)
        cdir.path.mkdir(exist_ok=True)
        cdir.write_manifest({"version": MANIFEST_VERSION,
                             "sweeps": [{"name": "a", "trials": [{}] * 3},
                                        {"name": "b", "trials": [{}]}]})
        cdir.append_event({"event": "trial", "sweep": "a",
                           "spec_hash": "h1", "status": "done"})
        cdir.append_event({"event": "trial", "sweep": "a",
                           "spec_hash": "h2", "status": "cached"})
        cdir.append_event({"event": "trial", "sweep": "b",
                           "spec_hash": "h3", "status": "done"})
        cdir.append_event({"event": "retry", "sweep": "a", "index": 0})
        sweeps = campaign_status(tmp_path)["sweeps"]
        assert sweeps["a"] == {"trials": 3, "done": 1, "cached": 1}
        assert sweeps["b"] == {"trials": 1, "done": 1, "cached": 0}


class TestResults:
    def test_result_round_trip(self, tmp_path):
        cdir = CampaignDir(tmp_path)
        cdir.path.mkdir(exist_ok=True)
        assert cdir.read_result("demo") is None
        text = json.dumps({"sweep": "demo", "records": []})
        cdir.write_result("demo", text)
        assert cdir.read_result("demo") == text
