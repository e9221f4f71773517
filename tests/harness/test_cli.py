"""CLI smoke tests: ``python -m repro`` subcommands, in-process."""

import dataclasses
import json

import pytest

from repro.__main__ import _parse_assignments, main
from repro.harness import presets


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestParsing:
    def test_assignments_parse_literals(self):
        params = _parse_assignments(
            ["variant=pht", "secret_value=42", "flag=true",
             "config.rob_size=64"])
        assert params == {"variant": "pht", "secret_value": 42,
                         "flag": True, "config": {"rob_size": 64}}

    def test_bad_assignment_exits(self):
        with pytest.raises(SystemExit):
            _parse_assignments(["oops"])


class TestSweepCommand:
    def test_list_presets(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7", "fig9", "sec6", "ablations", "table1"):
            assert name in out

    def test_sweep_renders_report(self, capsys, cache_dir):
        assert main(["sweep", "fig12", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "Btag" in out
        assert "sweep fig12" in out

    def test_sweep_json_is_canonical(self, capsys, cache_dir):
        assert main(["sweep", "fig12", "--json",
                     "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "fig12", "--json",
                     "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["sweep"] == "fig12"
        assert len(payload["records"]) == 1

    def test_unknown_preset_errors(self, capsys, cache_dir):
        assert main(["sweep", "fig99", "--cache-dir", cache_dir]) == 1
        err = capsys.readouterr().err
        assert "unknown preset" in err and "fig7" in err

    def test_unknown_controller_errors(self, capsys, cache_dir):
        assert main(["run", "attack", "variant=pht", "runahead=warp",
                     "--no-cache"]) == 1
        assert "unknown runahead controller" in capsys.readouterr().err

    def test_missing_report_file_errors(self, capsys):
        assert main(["report", "/nonexistent/result.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_list_targets(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("pht", "stale-store", "pht-safe"):
            assert name in out
        assert "gen:<family>:<seed>" in out

    def test_leaking_target_exits_one(self, capsys):
        assert main(["verify", "stale-store", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "LEAK" in out and "window=runahead" in out
        assert "taint=secret_word" in out

    def test_defended_target_exits_zero(self, capsys):
        assert main(["verify", "stale-store", "--defense", "secure",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "suppressed" in out

    def test_window_narrowing(self, capsys):
        assert main(["verify", "stale-store", "--windows", "speculation",
                     "--no-cache"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cross_check_agreement(self, capsys):
        assert main(["verify", "stale-store-safe", "--cross-check",
                     "--no-cache"]) == 0
        assert "agree" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert main(["verify", "stale-store", "--json",
                     "--no-cache"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["clean"] is False
        assert payload["result"]["reports"][0]["window"] == "runahead"

    def test_unknown_target_errors(self, capsys):
        assert main(["verify", "meltdown", "--no-cache"]) == 1
        assert "unknown verify target" in capsys.readouterr().err

    def test_defense_choices_match_the_checker(self):
        from repro.verify.engine import DEFENSES
        with pytest.raises(SystemExit):
            main(["verify", "pht", "--defense", "asbestos"])
        for defense in DEFENSES:
            # argparse accepts every checker defense name.
            from repro.__main__ import build_parser
            args = build_parser().parse_args(
                ["verify", "pht", "--defense", defense])
            assert args.defense == defense


class TestRunCommand:
    def test_run_taint_trial(self, capsys, cache_dir):
        assert main(["run", "taint", "--cache-dir", cache_dir]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cached"] is False
        assert record["result"]["mismatches"] == []
        # Second invocation is served from the cache.
        assert main(["run", "taint", "--cache-dir", cache_dir]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cached"] is True

    def test_run_small_config_workload(self, capsys, cache_dir):
        assert main(["run", "run", "workload=reference",
                     "config_base=small", "--no-cache"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["halted"] is True


class TestAttackCommand:
    def test_extraction_end_to_end(self, capsys, cache_dir):
        assert main(["attack", "--secret", "A", "--trials", "1",
                     "--no-noise", "--min-success", "1",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "recovered      : 'A'" in out
        assert "success rate   : 1.00" in out
        assert "bits/s" in out
        # Second invocation is a cache hit with identical results.
        assert main(["attack", "--secret", "A", "--trials", "1",
                     "--no-noise", "--min-success", "1",
                     "--cache-dir", cache_dir]) == 0
        assert "[cached]" in capsys.readouterr().out

    def test_json_output(self, capsys, cache_dir):
        assert main(["attack", "--secret", "A", "--trials", "1",
                     "--no-noise", "--json",
                     "--cache-dir", cache_dir]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["trial"]["kind"] == "extract"
        assert record["result"]["recovered"] == [65]

    def test_min_success_gates_exit_code(self, capsys, cache_dir):
        # A byte this channel cannot carry: evict+reload must ignore
        # the training-warmed probe entry (index 8), so a secret byte
        # of 8 never decodes — the --min-success gate must exit 1.
        assert main(["attack", "--secret", "\x08",
                     "--receiver", "evict-reload", "--trials", "1",
                     "--no-noise", "--min-success", "1",
                     "--cache-dir", cache_dir]) == 1
        captured = capsys.readouterr()
        assert "success rate   : 0.00" in captured.out
        assert "below --min-success" in captured.err

    def test_beyond_rob_channel_is_silent_without_runahead(self, capsys):
        # No-runahead machine with a beyond-ROB gadget never transmits.
        assert main(["run", "extract", "secret=[65]", "trials=1",
                     "runahead=none", "nop_padding=300",
                     "--no-cache"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["success_rate"] == 0.0


class TestReportCommand:
    def test_report_from_saved_json(self, capsys, tmp_path, cache_dir):
        out_file = tmp_path / "fig12.json"
        assert main(["sweep", "fig12", "--out", str(out_file),
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["report", str(out_file)]) == 0
        assert "Btag" in capsys.readouterr().out

    def test_report_preset_uses_cache(self, capsys, cache_dir):
        assert main(["sweep", "fig12", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["report", "fig12", "--cache-dir", cache_dir]) == 0
        assert "Btag" in capsys.readouterr().out


class TestClaims:
    """``sweep``, ``report`` and ``campaign`` print a preset's claims
    after its report and exit 1 when one fails."""

    PROBLEM = "N1 = 254, want ROB-1 = 255 (paper 255)"

    @pytest.fixture
    def failing_fig10(self, monkeypatch):
        failing = dataclasses.replace(presets.get("fig10"),
                                      check=lambda result: [self.PROBLEM])
        monkeypatch.setitem(presets.PRESETS, "fig10", failing)

    def test_holding_claims_exit_zero(self, capsys, cache_dir):
        for argv in (["sweep", "fig10", "--quick"],
                     ["report", "fig10", "--quick"]):
            assert main(argv + ["--cache-dir", cache_dir]) == 0
            out = capsys.readouterr().out
            assert "claims: all hold" in out
            assert "claim failed" not in out

    def test_failing_claim_exits_one(self, capsys, tmp_path, cache_dir,
                                     failing_fig10):
        for argv in (["sweep", "fig10", "--quick", "--no-cache"],
                     ["sweep", "fig10", "--quick", "--json",
                      "--cache-dir", cache_dir],
                     ["report", "fig10", "--quick", "--no-cache"],
                     ["campaign", "run", "fig10", "--quick", "--workers",
                      "1", "--dir", str(tmp_path / "camp")]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert f"claim failed: fig10: {self.PROBLEM}" in \
                captured.out + captured.err, argv
            assert "claims: all hold" not in captured.out + captured.err


class TestCacheCommand:
    def test_cache_status_and_clear(self, capsys, cache_dir):
        main(["sweep", "fig12", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "records      : 1" in capsys.readouterr().out
        assert main(["cache", "--clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out


class TestCampaignCommand:
    def test_run_status_resume_cycle(self, capsys, tmp_path):
        cdir = str(tmp_path / "camp")
        assert main(["campaign", "run", "fig12", "--dir", cdir,
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "campaign directory:" in out

        assert main(["campaign", "status", cdir]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out
        assert "1/1 trials" in out

        # Resuming a finished campaign is a no-op served from cache.
        assert main(["campaign", "resume", cdir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"] == "fig12"
        assert len(payload["records"]) == 1

    def test_status_json(self, capsys, tmp_path):
        cdir = str(tmp_path / "camp")
        assert main(["campaign", "run", "fig12", "--dir", cdir,
                     "--workers", "1", "--json"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", cdir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "finished"
        assert status["completed"] == 1

    def test_sqlite_cache_uri(self, capsys, tmp_path):
        """The removed ``sqlite:`` store is an error naming ``dir:``,
        not a silently created directory called ``sqlite:…``."""
        cdir = tmp_path / "camp"
        assert main(["campaign", "run", "fig12", "--dir", str(cdir),
                     "--workers", "1", "--cache",
                     "sqlite:results.sqlite", "--json"]) == 1
        assert "dir:<path>" in capsys.readouterr().err
        assert not cdir.exists()

    def test_status_of_missing_campaign_errors(self, capsys, tmp_path):
        assert main(["campaign", "status",
                     str(tmp_path / "nothing")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rerun_with_different_presets_errors(self, capsys, tmp_path):
        cdir = str(tmp_path / "camp")
        assert main(["campaign", "run", "fig12", "--dir", cdir,
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "fig10", "--dir", cdir,
                     "--quick", "--workers", "1"]) == 1
        assert "different campaign" in capsys.readouterr().err

    def test_campaign_without_subcommand_prints_help(self, capsys):
        assert main(["campaign"]) == 2
        out = capsys.readouterr().out
        for sub in ("run", "resume", "status", "serve"):
            assert sub in out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "sweep" in capsys.readouterr().out
