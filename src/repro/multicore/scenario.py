"""Cross-core and SMT co-runner covert-channel scenarios.

PR 3's receivers measured the *same* hierarchy the victim ran on — the
attacker and victim were one simulated core, and "co-runner noise" was a
measurement overlay (:class:`~repro.channel.noise.NoiseModel`).  This
module runs the real thing:

* the **victim** (the transmit gadget) executes on core 0;
* the **attacker** measures from its own core's view of the shared,
  inclusive L3 — its private L1/L2 never hold the victim's lines, so a
  reload hit is an *LLC* hit and eviction/priming work through L3
  back-invalidation, exactly the cross-core Prime+Probe/Evict+Reload
  mechanism of the Spectre literature;
* optional **co-runners** are real instruction streams (the Fig. 7
  workload generators) interleaved cycle-accurately on further cores —
  or, with ``smt=True``, as a second hardware thread sharing the
  victim's private caches — whose fills and evictions perturb the run
  itself, not just the probe.

A :class:`Topology` names the arrangement with plain data so harness
trials stay JSON-serializable; ``Topology()`` (one core, no co-runner)
is exactly the PR 3 single-core path and is never routed through this
module.

Public contract
---------------
* :class:`Topology` — immutable, data-only placement spec.
  ``from_params`` accepts ``None`` / a ``Topology`` / a params mapping
  and returns ``None`` whenever the arrangement is equivalent to the
  single-core path, so callers can branch on "is this multi-core at
  all" in one place; ``to_spec`` round-trips through JSON.
* :func:`build_attack_system` — assembles the shared hierarchy, the
  cores and the attacker's receiver for one topology.  Its only
  caller is :func:`repro.channel.session.run_victim`, which prepares
  the receiver and runs the system; channel runs, calibration and
  decoding are the session's, whatever the placement.

Invariants: runs are pure functions of ``(attack spec, receiver,
noise spec, seed, topology)`` — deterministic at any harness worker
count — and a ``corunner`` is resolved by *registry name* (including
the ``trace-*`` trace replays), never by live object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from ..channel.receiver import ProbeLayout, Receiver, make_receiver
from ..memory.hierarchy import PHYS_WINDOW_STRIDE, SharedHierarchy
from ..pipeline.config import CoreConfig
from ..pipeline.core import Core
from .system import MultiCoreSystem


@dataclass(frozen=True)
class Topology:
    """Placement of victim, attacker and co-runners on shared hardware.

    cores:
        Physical core count.  Core 0 runs the victim; with ``cores >=
        2`` the attacker measures from the last core's view (it runs no
        instruction stream — its cost is charged as receiver probe
        cycles, as in PR 3); cores ``1 .. cores-2`` run the co-runner
        workload.
    corunner:
        Registry name of the workload run as a real interfering
        instruction stream (``None`` = no co-runner).
    smt:
        Run the co-runner as a second hardware thread of the *victim's*
        core — sharing its private L1I/L1D/L2, maximal interference —
        instead of (or in addition to) dedicated co-runner cores.
    corunner_runahead:
        Runahead controller name for co-runner cores (default: none —
        a plain out-of-order background process).
    restart_corunner:
        Respawn a co-runner whose kernel halts before the victim does
        (a background process loops; a one-shot kernel does not).
    """

    cores: int = 1
    corunner: Optional[str] = None
    smt: bool = False
    corunner_runahead: str = "none"
    restart_corunner: bool = True

    def __post_init__(self):
        # Params arrive from the CLI, JSON and campaign manifests: a
        # float, bool or string must not run (or be cached) as some
        # other placement.
        if isinstance(self.cores, bool) or not isinstance(self.cores, int):
            raise ValueError(f"cores must be an int, got {self.cores!r}")
        if not isinstance(self.smt, bool):
            raise ValueError(f"smt must be a bool, got {self.smt!r}")
        if not isinstance(self.restart_corunner, bool):
            raise ValueError(f"restart_corunner must be a bool, got "
                             f"{self.restart_corunner!r}")
        if self.corunner is not None and not isinstance(self.corunner, str):
            raise ValueError(f"corunner must be a workload name or None, "
                             f"got {self.corunner!r}")
        if not isinstance(self.corunner_runahead, str):
            raise ValueError(f"corunner_runahead must be a controller "
                             f"name, got {self.corunner_runahead!r}")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.smt and self.corunner is None:
            raise ValueError("smt=True needs a corunner workload to run "
                             "on the second thread")
        if self.corunner is not None and not self.smt and self.cores < 3:
            raise ValueError(
                "a dedicated co-runner core needs cores >= 3 (victim + "
                "co-runner + attacker); use smt=True to share the "
                "victim's core instead")

    @property
    def is_multicore(self) -> bool:
        """True when this arrangement differs from the PR 3 single-core
        same-view measurement path."""
        return self.cores > 1 or self.corunner is not None

    @property
    def cross_core(self) -> bool:
        """True when the attacker measures from a different core."""
        return self.cores > 1

    @classmethod
    def from_params(cls, params: Union[None, "Topology", Mapping]) \
            -> Optional["Topology"]:
        """Build from harness trial params; ``None``/defaults mean the
        single-core path (returns ``None``)."""
        if params is None:
            return None
        if isinstance(params, cls):
            return params if params.is_multicore else None
        known = {"cores", "corunner", "smt", "corunner_runahead",
                 "restart_corunner"}
        unknown = set(params) - known
        if unknown:
            raise ValueError(f"unknown topology keys: {sorted(unknown)}")
        topology = cls(**dict(params))
        return topology if topology.is_multicore else None

    def to_spec(self) -> dict:
        return {"cores": self.cores, "corunner": self.corunner,
                "smt": self.smt,
                "corunner_runahead": self.corunner_runahead,
                "restart_corunner": self.restart_corunner}


def build_attack_system(attack, runahead, config: CoreConfig,
                        receiver_name: str, topology: Topology) \
        -> Tuple[MultiCoreSystem, Receiver]:
    """Assemble the shared hierarchy, cores and receiver for one run.

    The victim and the attacker's measurement view share physical
    window 0 (flush+reload's shared-memory assumption: probe lines are
    the same physical lines for both).  Each co-runner stream gets its
    own 1 GiB window so its identically-low virtual addresses occupy
    disjoint lines — set indices are preserved, so its *set pressure*
    on the shared L3 is faithful while false line sharing is not
    possible.
    """
    from ..harness.registry import get_workload, make_controller

    shared = SharedHierarchy(config.hierarchy)
    victim_view = shared.add_core(phys_base=0)
    system = MultiCoreSystem(shared)

    def make_victim():
        return Core(attack.program, memory_image=attack.image,
                    config=config, runahead=runahead,
                    initial_sp=attack.initial_sp, warm_icache=True,
                    hierarchy=victim_view)

    system.add_core(make_victim, name="victim")

    if topology.corunner is not None:
        workload = get_workload(topology.corunner)
        views = []
        window = 1
        if topology.smt:
            views.append(("smt", shared.add_smt_thread(
                victim_view, phys_base=window * PHYS_WINDOW_STRIDE)))
            window += 1
        for index in range(topology.cores - 2):
            views.append((f"corunner{index}", shared.add_core(
                phys_base=window * PHYS_WINDOW_STRIDE)))
            window += 1
        for name, view in views:
            def make_corunner(view=view):
                program, image, sp = workload.materialize()
                return Core(program, memory_image=image, config=config,
                            runahead=make_controller(
                                topology.corunner_runahead),
                            initial_sp=sp, warm_icache=True,
                            hierarchy=view)
            system.add_core(make_corunner, name=name,
                            restart=topology.restart_corunner)

    attacker_view = victim_view if not topology.cross_core \
        else shared.add_core(phys_base=0)
    receiver = make_receiver(receiver_name,
                             ProbeLayout.from_attack(attack),
                             attacker_view)
    if attacker_view is not victim_view:
        receiver.cross_core()
    return system, receiver
