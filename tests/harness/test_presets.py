"""Preset integrity: every paper experiment builds a valid sweep."""

import json

import pytest

from repro.harness import presets
from repro.harness.executor import SweepResult, make_record, run_sweep
from repro.channel.noise import NoiseModel
from repro.channel.receiver import receiver_class
from repro.harness.registry import (CONTROLLERS, get_workload, make_config,
                                    make_controller)
from repro.multicore.scenario import Topology

from tests.golden import recorder

ALL = sorted(presets.PRESETS)
GOLDEN_PRESETS = recorder.load_golden()["presets"]


@pytest.mark.parametrize("name", ALL)
def test_full_tier_builds_nonempty_serializable_sweep(name):
    sweep = presets.get(name).build()
    assert len(sweep) > 0
    assert sweep.name == name
    json.dumps(sweep.to_dict())   # trials must be pure data


@pytest.mark.parametrize("name", ALL)
def test_quick_tier_is_no_bigger(name):
    preset = presets.get(name)
    assert 0 < len(preset.build(quick=True)) <= len(preset.build())


def test_expected_presets_exist():
    for name in ("table1", "fig4", "fig7", "fig9", "fig10", "fig11",
                 "fig12", "sec43", "sec6", "ablations",
                 "fig9_noise_sweep", "channel_bandwidth",
                 "fig10_cross_core", "cross_core_bandwidth",
                 "smt_corunner_sweep"):
        assert name in presets.PRESETS


@pytest.mark.parametrize("name", sorted(GOLDEN_PRESETS) + ["fig7_traces"])
def test_quick_tier_claims_hold(name):
    """Every claim holds on the quick tier.  The golden fixture's
    payloads stand in for the runs (``test_preset_trials_match_golden``
    pins them to fresh ones); ``fig7_traces`` is not in it and runs
    live.  ``verify_cross_check`` is covered by ``tests/verify``."""
    preset = presets.get(name)
    sweep = preset.build(quick=True)
    if name in GOLDEN_PRESETS:
        payloads = GOLDEN_PRESETS[name]
        result = SweepResult(name, [
            make_record(trial, payloads[recorder.trial_key(trial)])
            for trial in sweep.trials])
    else:
        result = run_sweep(sweep, workers=1, cache=None)
    assert preset.check(result) == []


def test_full_sec43_covers_every_runahead_variant():
    sweep = presets.get("sec43").build()
    assert {t.params["runahead"] for t in sweep} == \
        set(presets.RUNAHEAD_VARIANTS)


def test_channel_presets_share_noise_seed():
    """Every fig9_noise_sweep trials point must reuse one seed, so a
    larger trial count extends (not re-rolls) the noise stream and the
    success-rate curve is monotone by construction."""
    sweep = presets.get("fig9_noise_sweep").build()
    seeds = {t.params["seed"] for t in sweep}
    assert len(seeds) == 1
    trials = [t.params["trials"] for t in sweep]
    assert trials == sorted(trials)
    for trial in sweep:
        assert receiver_class(trial.params["receiver"]) is not None
        assert NoiseModel.from_spec(trial.params["noise"]).is_noisy


def test_preset_trials_resolve_through_registry():
    """Every name a preset references must exist in the registry."""
    for name in ALL:
        for trial in presets.get(name).build():
            runahead = trial.params.get("runahead")
            if runahead is not None:
                make_controller(runahead,
                                **trial.params.get("runahead_kwargs", {}))
            for key in ("baseline", "contender"):
                if key in trial.params:
                    make_controller(trial.params[key])
            if "workload" in trial.params:
                get_workload(trial.params["workload"])
            if trial.params.get("corunner") is not None:
                get_workload(trial.params["corunner"])
                make_controller(trial.params.get("corunner_runahead",
                                                 "none"))
            Topology.from_params({k: trial.params[k]
                                  for k in ("cores", "corunner", "smt",
                                            "corunner_runahead")
                                  if k in trial.params})
            if trial.params.get("receiver") is not None:
                receiver_class(trial.params["receiver"])
            NoiseModel.from_spec(trial.params.get("noise"))
            make_config(trial.params.get("config_base", "paper"),
                        trial.params.get("config"))


def test_cross_core_presets_place_the_receiver_on_another_core():
    """The cross-core scenario family measures through a multi-core
    topology in every trial that claims to."""
    for trial in presets.get("fig10_cross_core").build():
        assert trial.params["cores"] >= 2
    placements = {trial.params.get("cores", 1)
                  for trial in presets.get("cross_core_bandwidth").build()}
    assert placements == {1, 2}
    scenarios = presets.get("smt_corunner_sweep").build()
    assert any(t.params.get("smt") for t in scenarios)
    assert any(t.params.get("cores") == 3 for t in scenarios)
    assert any(t.params.get("corunner") is None and t.params.get("noise")
               for t in scenarios)          # the overlay comparison row


class TestRegistry:
    def test_unknown_controller(self):
        with pytest.raises(KeyError, match="unknown runahead controller"):
            make_controller("warp-drive")

    def test_unknown_workload(self):
        for name in ("spec2077", "trace:x.trace"):
            with pytest.raises(KeyError, match="unknown workload"):
                get_workload(name)

    def test_controllers_are_fresh_instances(self):
        assert make_controller("original") is not \
            make_controller("original")

    def test_none_maps_to_no_runahead(self):
        assert make_controller(None).name == "no-runahead"
        assert make_controller("none").name == "no-runahead"

    def test_make_config_routes_mem_latency(self):
        config = make_config("paper", {"mem_latency": 400,
                                       "rob_size": 64})
        assert config.hierarchy.mem_latency == 400
        assert config.rob_size == 64

    def test_make_config_routes_runahead_tunables(self):
        config = make_config("small", {"sl_cache_entries": 8})
        assert config.runahead.sl_cache_entries == 8

    def test_make_config_rejects_unknown_base(self):
        with pytest.raises(ValueError, match="unknown config base"):
            make_config("huge")

    def test_registry_covers_all_variant_controllers(self):
        for name in ("original", "precise", "vector", "secure",
                     "branch-skip"):
            assert name in CONTROLLERS
