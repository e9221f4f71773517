"""Cross-core covert channels end to end, and the defense negative sweep.

The ROADMAP's negative sweep is pinned here as CI fact: ``extract``
trials on the ``secure`` and ``branch-skip`` machines decode *nothing*
(success rate 0.0) for every receiver — same-core and cross-core — while
the baseline machine leaks the full secret cross-core.
"""

import pytest

from repro.attack.gadgets import build_attack
from repro.channel.extract import extract_secret
from repro.channel.receiver import RECEIVERS
from repro.harness.registry import make_controller
from repro.channel.session import run_channel_attack
from repro.multicore.scenario import Topology
from repro.pipeline.config import CoreConfig

SECRET = "S"                       # one byte keeps the sweep fast
DEFENSES = ("secure", "branch-skip")


class TestTopologySpec:
    def test_single_core_defaults_resolve_to_none(self):
        assert Topology.from_params({"cores": 1}) is None
        assert Topology.from_params(None) is None
        assert Topology.from_params(Topology()) is None

    def test_multicore_round_trips(self):
        topology = Topology.from_params({"cores": 3, "corunner": "lbm"})
        assert topology.cross_core
        assert Topology.from_params(topology.to_spec()) == topology

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown topology keys"):
            Topology.from_params({"cores": 2, "threads": 4})

    def test_corunner_needs_a_slot(self):
        with pytest.raises(ValueError, match="cores >= 3"):
            Topology(cores=2, corunner="lbm")

    def test_smt_needs_a_corunner(self):
        with pytest.raises(ValueError, match="smt=True"):
            Topology(cores=2, smt=True)

    @pytest.mark.parametrize("params", [
        {"cores": 2.5}, {"cores": True}, {"cores": "2"},
        {"cores": 3, "corunner": "lbm", "smt": "true"},
        {"cores": 3, "corunner": 7},
    ], ids=repr)
    def test_malformed_params_rejected(self, params):
        """Trial params come from the CLI, JSON and manifests: a float,
        bool or string must not run as another placement."""
        with pytest.raises(ValueError, match="must be"):
            Topology.from_params(params)


class TestCrossCoreRecovery:
    @pytest.mark.parametrize("receiver", sorted(RECEIVERS))
    def test_every_receiver_recovers_cross_core(self, receiver):
        result = extract_secret(SECRET, receiver=receiver, trials=1,
                                cores=2)
        assert result.success_rate == 1.0
        assert result.topology == Topology(cores=2).to_spec()

    def test_outcome_records_topology_and_is_deterministic(self):
        kwargs = dict(receiver="flush-reload", trials=3,
                      noise={"jitter": 12, "evict_rate": 0.01}, seed=7,
                      cores=2)
        first = extract_secret(SECRET, **kwargs)
        second = extract_secret(SECRET, **kwargs)
        assert first.to_dict() == second.to_dict()
        assert first.to_dict()["topology"]["cores"] == 2

    def test_smt_corunner_still_leaks(self):
        result = extract_secret(SECRET, receiver="flush-reload", trials=1,
                                cores=2, corunner="lbm", smt=True)
        assert result.success_rate == 1.0
        assert result.topology["smt"] is True

    def test_cross_core_corunner_still_leaks(self):
        result = extract_secret(SECRET, receiver="flush-reload", trials=1,
                                cores=3, corunner="lbm")
        assert result.success_rate == 1.0

    def test_corunner_charges_the_shared_channel(self):
        """The co-runner is a real stream: the victim's run must get
        slower (channel contention), not just noisier to measure."""
        clean = extract_secret(SECRET, receiver="flush-reload", trials=1,
                               cores=2)
        noisy = extract_secret(SECRET, receiver="flush-reload", trials=1,
                               cores=3, corunner="lbm")
        assert noisy.bytes_[0].cycles > clean.bytes_[0].cycles

    def test_topology_requires_external_probe(self):
        attack = build_attack("pht", secret_value=83)   # in-program probe
        with pytest.raises(ValueError, match="external-probe"):
            run_channel_attack(attack, make_controller("original"),
                               CoreConfig.paper(), "flush-reload",
                               topology=Topology(cores=2))

    @pytest.mark.parametrize("topology", [None, Topology(cores=2)],
                             ids=["one-core", "cores=2"])
    def test_victim_must_halt_within_max_cycles(self, topology):
        attack = build_attack("pht", secret_value=83, external_probe=True)
        with pytest.raises(RuntimeError,
                           match="did not finish in 500 cycles"):
            run_channel_attack(attack, make_controller("original"),
                               CoreConfig.paper(), "flush-reload",
                               max_cycles=500, topology=topology)


class TestDefenseNegativeSweep:
    """Defenses close the channel — cross-core included (ROADMAP pin)."""

    @pytest.mark.parametrize("machine", DEFENSES)
    @pytest.mark.parametrize("receiver", sorted(RECEIVERS))
    def test_cross_core_decodes_nothing(self, machine, receiver):
        result = extract_secret(SECRET, receiver=receiver, trials=2,
                                runahead=lambda: make_controller(machine),
                                cores=2)
        assert result.success_rate == 0.0, \
            f"{machine}/{receiver} leaked {result.recovered!r} cross-core"

    @pytest.mark.slow
    @pytest.mark.parametrize("machine", DEFENSES)
    @pytest.mark.parametrize("receiver", sorted(RECEIVERS))
    def test_same_core_decodes_nothing(self, machine, receiver):
        result = extract_secret(SECRET, receiver=receiver, trials=2,
                                runahead=lambda: make_controller(machine))
        assert result.success_rate == 0.0, \
            f"{machine}/{receiver} leaked {result.recovered!r} same-core"

    @pytest.mark.slow
    @pytest.mark.parametrize("machine", DEFENSES)
    def test_corunner_does_not_reopen_the_channel(self, machine):
        result = extract_secret(SECRET, receiver="prime-probe", trials=2,
                                runahead=lambda: make_controller(machine),
                                cores=3, corunner="lbm")
        assert result.success_rate == 0.0


@pytest.mark.slow
def test_cross_core_sweep_is_worker_count_invariant():
    """The fig10_cross_core preset is byte-identical at 1 and 4 workers
    (multi-core trials are pure functions of their spec, like every
    other trial kind)."""
    from repro.harness import presets, run_sweep

    sweep = presets.get("fig10_cross_core").build(quick=True)
    serial = run_sweep(sweep, workers=1, cache=None)
    sharded = run_sweep(presets.get("fig10_cross_core").build(quick=True),
                        workers=4, cache=None)
    assert serial.to_json() == sharded.to_json()
