"""Golden-stats recorder for the hot-path refactor safety net.

The optimizations in the simulator hot path (decode-time metadata,
int-opcode dispatch, wakeup-driven scheduling) must be *behaviour
preserving*: the refactored core has to reproduce the exact same
``CoreStats``, cache hit counts, transient-window depths, and trial
payloads as the pre-refactor implementation.  This module defines what
"the same" means:

* :func:`core_record` — one workload × controller run distilled to its
  stats, per-level cache counters, transient-window max, and a hash of
  the architectural end state;
* :func:`preset_records` — every trial of a quick-tier harness preset
  executed through :func:`repro.harness.runner.run_trial`, keyed by the
  trial's spec hash;
* :func:`extract_records` — a small group of one-byte ``extract``
  trials (``secret=[86]``) that decode through every receiver, one
  core and cross-core, with and without calibration and co-runners;
* :func:`nop_record` — one nop-sled run (Fig. 10's window program or
  the ``pht`` gadget padded with nops) under one controller, distilled
  like :func:`core_record` plus the core's dispatch stalls.

``python -m tests.golden.recorder`` regenerates
``tests/golden/golden_stats.json``.  The fixture committed in this repo
was recorded from the pre-refactor implementation; regenerate it only
when a behaviour change is *intended* (and say so in the commit).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

from repro.attack.gadgets import build_attack
from repro.attack.window import window_program
from repro.channel.session import run_victim
from repro.harness import presets
from repro.harness.registry import get_workload, make_controller
from repro.harness.runner import run_trial
from repro.harness.spec import Trial, canonical_json
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from tests.sim import architectural_state

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_stats.json")

#: Fig. 7 kernels the differential cores run: the quick tier's three
#: plus the ``fload``-heavy lbm, wrf and bwaves.
CORE_WORKLOADS = ("zeusmp", "mcf", "gems", "lbm", "wrf", "bwaves")

#: Every runahead controller, including the defenses (which are
#: controllers too): the refactor must preserve all of them.
CORE_CONTROLLERS = ("none", "original", "precise", "vector", "secure",
                    "branch-skip")

#: Nop-sled runs: Fig. 10's window program at each sled length (the
#: 16 KB L1I holds 4096 nops, so 4096 sits on its edge and 4200 and
#: 8192 past it) and the ``pht`` gadget at each nop padding (inside and
#: beyond the ROB), keyed ``window-<sled>`` and ``pht-<padding>``.
NOP_SLEDS = (1024, 2048, 4096, 4200, 8192)
NOP_PADDINGS = (300, 600, 900)
NOP_PROGRAMS = tuple(f"window-{sled}" for sled in NOP_SLEDS) + \
    tuple(f"pht-{padding}" for padding in NOP_PADDINGS)

#: Quick-tier presets to snapshot end to end (trial payload equality).
PRESET_NAMES = ("table1", "fig4", "fig7", "fig9", "fig10", "fig11",
                "fig12", "sec43", "sec6", "ablations",
                # covert-channel read-out: one core, cross-core, co-runners
                "channel_bandwidth", "fig9_noise_sweep", "fig10_cross_core",
                "cross_core_bandwidth", "smt_corunner_sweep",
                "trace_pressure_sweep")

#: Receiver scenarios: prime+probe calibrates, the reload receivers do
#: not; every placement the topology allows.
RECEIVER_SCENARIOS = (
    {"variant": "pht", "receiver": "prime-probe", "trials": 2,
     "noise": {"jitter": 12}},
    {"variant": "pht", "receiver": "prime-probe", "trials": 2, "cores": 2},
    {"variant": "pht", "receiver": "flush-reload", "trials": 2},
    {"variant": "pht", "receiver": "evict-reload", "trials": 2, "cores": 2},
    {"variant": "pht", "receiver": "prime-probe", "runahead": "secure",
     "cores": 2},
    {"variant": "pht", "receiver": "prime-probe", "cores": 3,
     "corunner": "lbm"},
    {"variant": "pht", "receiver": "prime-probe", "cores": 2,
     "corunner": "lbm", "smt": True},
    {"variant": "btb", "receiver": "prime-probe"},
)
#: Each scenario as a one-byte ``extract`` trial.
EXTRACT_PARAMS = tuple(dict(params, secret=[86])
                       for params in RECEIVER_SCENARIOS)


def _arch_state_digest(core) -> str:
    """Stable hash of the architectural end state (registers + memory)."""
    regs, memory = architectural_state(core)
    payload = repr((regs, sorted(memory.items())))
    return hashlib.sha256(payload.encode()).hexdigest()


def distill_core(core) -> dict:
    """Distill everything observable about a finished core into a record."""
    hier = core.hierarchy
    caches = {}
    for label, cache in (("l1i", hier.l1i), ("l1d", hier.l1d),
                         ("l2", hier.l2), ("l3", hier.l3)):
        caches[label] = dataclasses.asdict(cache.stats)
    return {
        "stats": dataclasses.asdict(core.stats),
        "ipc": repr(core.stats.ipc),
        "transient_window_max": core.transient_window_max,
        "caches": caches,
        "hierarchy": dataclasses.asdict(hier.stats),
        "branch": dataclasses.asdict(core.branch_unit.stats),
        "arch_state": _arch_state_digest(core),
    }


def core_record(workload_name: str, controller_name: str) -> dict:
    """Run one workload on one controller; distill everything observable."""
    workload = get_workload(workload_name)
    controller = make_controller(controller_name)
    return distill_core(workload.run(runahead=controller))


def all_core_records() -> dict:
    return {f"{workload}/{controller}": core_record(workload, controller)
            for workload in CORE_WORKLOADS
            for controller in CORE_CONTROLLERS}


def nop_record(program_name: str, controller_name: str) -> dict:
    """Run one nop-sled program on one controller the way its trial
    does (``measure_window`` or ``run_victim``); distill the core and
    its dispatch stalls."""
    kind, _, size = program_name.partition("-")
    controller = make_controller(controller_name)
    config = CoreConfig.paper()
    if kind == "window":
        program, image = window_program(sled=int(size))
        core = Core(program, memory_image=image, config=config,
                    runahead=controller, warm_icache=True)
        core.run(max_cycles=2_000_000)
    else:
        attack = build_attack(kind, nop_padding=int(size))
        core, _ = run_victim(attack, controller, config, 3_000_000, None,
                             None)
    record = distill_core(core)
    stalls = core.dispatch_stalls
    record["dispatch_stalls"] = {"steps": dict(stalls.steps),
                                 "skipped": dict(stalls.skipped)}
    return record


def all_nop_records() -> dict:
    return {f"{program}/{controller}": nop_record(program, controller)
            for program in NOP_PROGRAMS
            for controller in CORE_CONTROLLERS}


def trial_key(trial: Trial) -> str:
    return f"{trial.label}#{trial.spec_hash()[:12]}"


def preset_records(name: str) -> dict:
    """Run every quick-tier trial of a preset; key by trial spec hash."""
    preset = presets.get(name)
    sweep = preset.build(quick=True)
    return {trial_key(trial): run_trial(trial) for trial in sweep.trials}


def extract_trials() -> list:
    return [Trial(kind="extract", params=params) for params in EXTRACT_PARAMS]


def extract_records() -> dict:
    return {trial_key(trial): run_trial(trial) for trial in extract_trials()}


def all_preset_records() -> dict:
    return {name: preset_records(name) for name in PRESET_NAMES}


def build_golden() -> dict:
    return {"cores": all_core_records(), "presets": all_preset_records(),
            "extracts": extract_records(), "nops": all_nop_records()}


def load_golden() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def normalize(value):
    """Round-trip through canonical JSON so float/int representations
    compare the way they are stored in the fixture."""
    return json.loads(canonical_json(value))


def main() -> int:
    golden = build_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=1)
                           + "\n", encoding="utf-8")
    n_presets = sum(len(v) for v in golden["presets"].values())
    print(f"wrote {GOLDEN_PATH}: {len(golden['cores'])} core records, "
          f"{n_presets} preset trials, {len(golden['extracts'])} extract "
          f"trials, {len(golden['nops'])} nop-sled records")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
