"""SPECRUN attack orchestration.

Runs an :class:`~repro.attack.gadgets.AttackProgram` on a configured
core and interprets the probe timings.  Two measurement paths exist:

* the paper's own **in-program probe** (Fig. 9): the program times its
  probe loop with ``rdtsc`` and a single unambiguous latency dip
  identifies the leaked secret — a perfect, noise-free oracle;
* an external **channel receiver** (:mod:`repro.channel`): the probe
  loop is dropped from the program and a flush+reload / evict+reload /
  prime+probe receiver measures the simulated hierarchy instead, with
  injectable noise and multi-trial statistical decoding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.leak import LeakReport, analyze_probe
from ..pipeline.config import CoreConfig
from ..runahead.base import NoRunahead, RunaheadController
from ..runahead.original import OriginalRunahead
from .gadgets import AttackProgram, build_attack


@dataclass
class AttackResult:
    """Outcome of one end-to-end attack run."""

    attack: AttackProgram
    report: LeakReport
    stats: object                 # CoreStats of the run
    runahead_name: str
    #: Channel-path details (:class:`~repro.channel.session.
    #: ChannelOutcome`); None on the legacy in-program probe path.
    channel: Optional[object] = None

    @property
    def latencies(self) -> List[int]:
        return self.report.latencies

    @property
    def leaked(self) -> bool:
        return self.report.leaked

    @property
    def recovered_secret(self) -> Optional[int]:
        return self.report.recovered

    @property
    def succeeded(self) -> bool:
        """Leak detected and it names the planted secret."""
        return self.report.recovered == self.attack.secret_value

    def describe(self) -> str:
        header = (f"SPECRUN[{self.attack.variant}] on "
                  f"{self.runahead_name}: ")
        if self.channel is not None:
            header += (f"via {self.channel.receiver} "
                       f"x{self.channel.trials}: ")
        if self.succeeded:
            return header + (f"recovered secret {self.recovered_secret} "
                             f"(planted {self.attack.secret_value})")
        if self.leaked:
            return header + (f"leak at {self.recovered_secret}, expected "
                             f"{self.attack.secret_value}")
        return header + "no leak"


class SpecRunAttack:
    """End-to-end attack driver.

    Parameters
    ----------
    variant:
        "pht" (Fig. 8/9), "btb" (Fig. 4a), "rsb-overwrite" (Fig. 4b) or
        "rsb-flush" (Fig. 4c).
    runahead:
        Controller under attack; defaults to original runahead.  Pass
        :class:`~repro.runahead.base.NoRunahead` for the baseline machine.
    config:
        Core configuration; defaults to the paper's Table-1 machine.
    receiver:
        Optional :mod:`repro.channel` receiver name ("flush-reload",
        "evict-reload", "prime-probe").  Switches the gadget to the
        external-probe build and decodes through the channel subsystem.
    noise:
        Noise spec (dict or :class:`~repro.channel.noise.NoiseModel`)
        applied per measurement trial; receiver path only.
    trials:
        Measurement trials decoded together (receiver path only).
    seed:
        Base seed for the per-trial noise streams.
    cores / corunner / smt / corunner_runahead:
        Multi-core placement (see :class:`~repro.multicore.scenario.
        Topology`): ``cores >= 2`` measures cross-core through the
        shared L3, ``corunner`` runs a real interfering workload
        stream.  Receiver path only; the defaults are single-core.
    gadget_kwargs:
        Forwarded to the gadget builder (``secret_value``,
        ``nop_padding``, ...).
    """

    def __init__(self, variant="pht", runahead: Optional[
            RunaheadController] = None, config: Optional[CoreConfig] = None,
            receiver: Optional[str] = None, noise=None, trials: int = 1,
            seed: int = 0, cores: int = 1, corunner: Optional[str] = None,
            smt: bool = False, corunner_runahead: str = "none",
            **gadget_kwargs):
        from ..multicore.scenario import Topology

        self.variant = variant
        self.config = config or CoreConfig.paper()
        self.runahead = runahead if runahead is not None \
            else OriginalRunahead()
        self.receiver = receiver
        self.noise = noise
        self.trials = trials
        self.seed = seed
        self.topology = Topology.from_params(
            {"cores": cores, "corunner": corunner, "smt": smt,
             "corunner_runahead": corunner_runahead})
        if self.topology is not None and receiver is None:
            raise ValueError("multi-core topologies measure through a "
                             "channel receiver; pass receiver=...")
        self._calibration_attack = None
        self._calibration_runahead = None
        if receiver is not None:
            from ..channel.receiver import receiver_class
            cls = receiver_class(receiver)
            gadget_kwargs.setdefault("external_probe", True)
            gadget_kwargs.setdefault("flush_probe_array", cls.uses_clflush)
            if cls.needs_calibration:
                # The benign twin: same layout, in-bounds trigger.  Its
                # controller must be fresh (controllers carry per-run
                # state), so snapshot the still-unattached one now; each
                # run() clones the snapshot so repeated runs calibrate
                # with pristine state.
                calib_kwargs = dict(gadget_kwargs, trigger_index=1)
                self._calibration_attack = build_attack(variant,
                                                        **calib_kwargs)
                self._calibration_runahead = copy.deepcopy(self.runahead)
        elif trials != 1:
            raise ValueError("trials > 1 requires a channel receiver")
        self.attack = build_attack(variant, **gadget_kwargs)

    def run(self, max_cycles=3_000_000) -> AttackResult:
        if self.receiver is not None:
            return self._run_channel(max_cycles)
        from ..channel.session import run_victim
        core, _ = run_victim(self.attack, self.runahead, self.config,
                             max_cycles, receiver_name=None, topology=None)
        latencies = self.attack.read_latencies(core)
        report = analyze_probe(latencies)
        return AttackResult(attack=self.attack, report=report,
                            stats=core.stats,
                            runahead_name=self.runahead.name)

    def _run_channel(self, max_cycles) -> AttackResult:
        from ..channel.session import calibrate_receiver, run_channel_attack
        baseline, calibration_cycles = (), 0
        if self._calibration_attack is not None:
            baseline, calibration_cycles = calibrate_receiver(
                self._calibration_attack,
                copy.deepcopy(self._calibration_runahead), self.config,
                self.receiver, self.topology, max_cycles)
        outcome = run_channel_attack(
            self.attack, self.runahead, self.config, self.receiver,
            noise=self.noise, trials=self.trials, seed=self.seed,
            max_cycles=max_cycles, extra_ignore=baseline,
            topology=self.topology)
        outcome.calibration_cycles = calibration_cycles
        return AttackResult(attack=self.attack, report=outcome.report,
                            stats=outcome.stats,
                            runahead_name=self.runahead.name,
                            channel=outcome)


def run_specrun(variant="pht", runahead=None, config=None,
                **kwargs) -> AttackResult:
    """One-shot convenience wrapper around :class:`SpecRunAttack`."""
    return SpecRunAttack(variant=variant, runahead=runahead, config=config,
                         **kwargs).run()
