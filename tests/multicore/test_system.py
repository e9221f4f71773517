"""Lockstep scheduler: determinism, co-runner restarts, quiescence."""

import dataclasses

import pytest

from repro.harness.registry import get_workload, make_controller
from repro.isa.assembler import assemble
from repro.memory.hierarchy import PHYS_WINDOW_STRIDE, SharedHierarchy
from repro.multicore.system import MultiCoreSystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core

from ..pipeline.test_idle_skip import observed, reference_run

CONFIG = CoreConfig.small()


def make_system(n_workloads, restart=False, max_runs=None):
    shared = SharedHierarchy(CONFIG.hierarchy)
    system = MultiCoreSystem(shared)
    for index, name in enumerate(n_workloads):
        workload = get_workload(name)
        view = shared.add_core(phys_base=index * PHYS_WINDOW_STRIDE)

        def factory(workload=workload, view=view):
            program, image, sp = workload.materialize()
            return Core(program, memory_image=image, config=CONFIG,
                        runahead=make_controller("none"), initial_sp=sp,
                        warm_icache=True, hierarchy=view)

        system.add_core(factory, name=name,
                        restart=restart and index > 0)
    return system


def test_single_core_system_matches_plain_run():
    """One core in the scheduler, and one run by itself, each match the
    independent reference loop cycle for cycle (the clock preserves
    single-core cycle skipping)."""
    reference = make_system(["gems"]).slots[0].core
    reference_run(reference, 5_000_000)
    assert reference.halted
    system = make_system(["gems"])
    primary = system.run(max_cycles=5_000_000)
    assert primary.halted
    assert observed(primary) == observed(reference)
    solo = get_workload("gems").run(runahead=make_controller("none"),
                                    config=CONFIG)
    assert dataclasses.asdict(solo.stats) == \
        dataclasses.asdict(reference.stats)


def test_lockstep_is_deterministic():
    first = make_system(["gems", "lbm"]).run(max_cycles=5_000_000)
    second = make_system(["gems", "lbm"]).run(max_cycles=5_000_000)
    assert first.halted and second.halted
    assert dataclasses.asdict(first.stats) == \
        dataclasses.asdict(second.stats)


def test_corunner_contention_perturbs_the_primary():
    solo = make_system(["gems"]).run(max_cycles=5_000_000)
    paired = make_system(["gems", "lbm"]).run(max_cycles=5_000_000)
    assert paired.halted
    # The shared memory channel queues both cores' misses; a streaming
    # co-runner must cost the primary real cycles.
    assert paired.stats.cycles > solo.stats.cycles


def test_corunner_restarts_until_primary_halts():
    # zeusmp (primary, long compute) vs the short reference kernel: the
    # co-runner must halt and respawn at least once.
    system = make_system(["zeusmp", "reference"], restart=True)
    primary = system.run(max_cycles=5_000_000)
    assert primary.halted
    assert system.slots[1].respawns >= 1


def test_secondary_without_restart_stays_halted():
    system = make_system(["zeusmp", "reference"], restart=False)
    primary = system.run(max_cycles=5_000_000)
    assert primary.halted
    assert system.slots[1].core.halted
    assert system.slots[1].respawns == 0


def test_primary_cannot_be_a_restart_slot():
    system = make_system(["gems", "lbm"], restart=True)
    system.slots[0].restart = True
    with pytest.raises(ValueError, match="primary"):
        system.run()


def test_foreign_core_rejected():
    system = make_system(["gems"])
    workload = get_workload("lbm")

    def foreign():
        program, image, sp = workload.materialize()
        return Core(program, memory_image=image, config=CONFIG,
                    initial_sp=sp)          # its own private hierarchy

    with pytest.raises(ValueError, match="shared hierarchy"):
        system.add_core(foreign)


def test_empty_system_rejected():
    shared = SharedHierarchy(CONFIG.hierarchy)
    with pytest.raises(ValueError, match="no cores"):
        MultiCoreSystem(shared).run()


def test_max_cycles_bounds_a_spinning_system():
    shared = SharedHierarchy(CONFIG.hierarchy)
    view = shared.add_core()
    program = assemble("""
    loop:
        addi r1, r1, 1
        jmp loop
    """)
    system = MultiCoreSystem(shared)
    system.add_core(lambda: Core(program, config=CONFIG, warm_icache=True,
                                 hierarchy=view))
    primary = system.run(max_cycles=2_000)
    assert not primary.halted
    assert system.cycle >= 2_000
