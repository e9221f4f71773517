"""The structural-stall skip is exact: same stats, fewer steps.

After an idle step the run loops used to treat every front-end head as
a wake-up source, so a head held back by a full structure kept the core
stepping every second cycle (the stride-2 floor) until something else
freed it.  The loops now jump straight to the stride step that first
sees the freeing event.  These tests re-implement the old rule as a
reference run loop and assert that both loops produce identical
statistics on the cases where the difference could show: every
controller on a rename-bound kernel, a fence inside a runahead window,
a secure-runahead load blocked by the SL cache, and a co-runner system.
"""

from __future__ import annotations

import dataclasses
import heapq

import pytest

from repro.attack.gadgets import build_attack
from repro.defense.secure import SecureRunahead
from repro.harness.registry import get_workload, make_controller
from repro.isa.assembler import assemble
from repro.isa.memory_image import MemoryImage
from repro.memory.hierarchy import PHYS_WINDOW_STRIDE, SharedHierarchy
from repro.multicore.system import MultiCoreSystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.clock import next_step_cycle
from repro.pipeline.core import MODE_RUNAHEAD, Core
from repro.pipeline.stats import STALL_REASONS, CoreStats
from repro.runahead.original import OriginalRunahead
from tests.sim import architectural_state

CONTROLLERS = ("none", "original", "precise", "vector", "secure",
               "branch-skip")


def old_next_event(core):
    """The pre-skip rule: every front-end head is a wake-up source."""
    completions = core._completions
    while completions and completions[0][2].squashed:
        heapq.heappop(completions)
        core._squashed_completions -= 1
    events = [completions[0][0]] if completions else []
    events.append(core.hierarchy.next_event())
    if core.frontend:
        events.append(core.frontend[0].ready_cycle)
    if not core.fetch_halted and core.fetch_stall_until >= core.cycle:
        events.append(max(core.fetch_stall_until, core.cycle + 1))
    if core.mode == MODE_RUNAHEAD and core.checkpoint is not None:
        events.append(core.checkpoint.stalling_completion)
    events = [event for event in events if event is not None]
    return max(min(events), core.cycle + 1) if events else None


def reference_run(core, max_cycles):
    """``Core.run`` under the old rule."""
    while not core.halted and core.cycle < max_cycles:
        core.step()
        if not core._activity and not core.halted:
            skip_to = old_next_event(core)
            if skip_to is None:
                break
            core.cycle = max(core.cycle, skip_to)
    core.stats.cycles = core.cycle


def reference_system_run(system, max_cycles):
    """``MultiCoreSystem.run`` (primary slot 0) under the old rule."""
    slots, shared = system.slots, system.shared
    now = system.cycle
    while now < max_cycles:
        shared.apply_completed(now)
        active = False
        for slot in slots:
            core = slot.core
            if core.halted:
                if slot is slots[0] or not slot.restart:
                    continue
                core = slot.respawn(now)
                active = True
            core.cycle = now
            core.step()
            active = active or core._activity
        if slots[0].core.halted:
            break
        now += 1
        if active:
            continue
        events = [old_next_event(slot.core) for slot in slots
                  if not slot.core.halted]
        events = [event for event in events if event is not None]
        if not events:
            break
        now = max(now, min(events))
    system.cycle = now
    for slot in slots:
        slot.core.stats.cycles = slot.core.cycle


@pytest.fixture
def steps(monkeypatch):
    """Counts every ``Core.step`` call made while the test runs."""
    counter = {"n": 0}
    step = Core.step

    def counting_step(core):
        counter["n"] += 1
        return step(core)
    monkeypatch.setattr(Core, "step", counting_step)

    def taken(run):
        before = counter["n"]
        run()
        return counter["n"] - before
    return taken


def observed(core):
    """Everything the two loops must agree on."""
    hierarchy = core.hierarchy
    record = {
        "stats": dataclasses.asdict(core.stats),
        "caches": {label: dataclasses.asdict(cache.stats)
                   for label, cache in (("l1i", hierarchy.l1i),
                                        ("l1d", hierarchy.l1d),
                                        ("l2", hierarchy.l2),
                                        ("l3", hierarchy.l3))},
        "hierarchy": dataclasses.asdict(hierarchy.stats),
        "branch": dataclasses.asdict(core.branch_unit.stats),
        "window": core.transient_window_max,
        "arch": architectural_state(core),
    }
    if isinstance(core.runahead, SecureRunahead) and \
            core.runahead.sl is not None:
        sl_stats = core.runahead.sl.stats
        record["sl"] = (sl_stats.usl_waits, sl_stats.timeouts)
    return record


def assert_same_run(make_core, steps, max_cycles=5_000_000):
    """Run a fresh core under each loop; returns (new, old) step counts."""
    new = make_core()
    new_steps = steps(lambda: new.run(max_cycles=max_cycles))
    old = make_core()
    old_steps = steps(lambda: reference_run(old, max_cycles))
    assert observed(new) == observed(old)
    assert new.halted == old.halted
    return new, new_steps, old_steps


def workload_core(name, controller, config=None):
    program, image, sp = get_workload(name).materialize()
    return Core(program, memory_image=image,
                config=config or CoreConfig.paper(),
                runahead=make_controller(controller), initial_sp=sp,
                warm_icache=True)


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_gems_matches_reference_loop_in_fewer_steps(controller, steps):
    core, new_steps, old_steps = assert_same_run(
        lambda: workload_core("gems", controller), steps)
    assert core.halted
    assert new_steps < old_steps
    stalls = core.dispatch_stalls
    # gems is fp-rename bound: the skipped steps are what was saved.
    assert stalls.skipped["rename-fp"] > 0
    assert sum(stalls.skipped.values()) == old_steps - new_steps


def test_fence_inside_runahead_window(steps):
    image = MemoryImage()
    image.alloc_array("x", 2)
    source = """
        li r1, @x
        clflush r1, 0
        fence
        load r2, r1, 0       # stalling load: enters runahead
        .repeat 8, nop
        fence                # runahead cannot pass a serialization point
        .repeat 8, nop
        halt
    """
    program = assemble(source, memory_image=image)

    def make_core():
        return Core(program, memory_image=image, config=CoreConfig.paper(),
                    runahead=OriginalRunahead(), warm_icache=True)

    core, new_steps, old_steps = assert_same_run(make_core, steps)
    assert core.stats.runahead_episodes == 1
    assert new_steps < old_steps
    stalls = core.dispatch_stalls
    assert stalls.skipped["fence"] > 0
    # Every idle or skipped fence-blocked step counted one fence stall.
    assert core.stats.fence_stalls >= \
        stalls.steps["fence"] + stalls.skipped["fence"]


def test_secure_blocked_load_keeps_retrying_on_the_stride(steps):
    """The SL cache holds a quarantined line's load back (``BLOCKED``):
    it retries issue on every step, timing out after the wait limit, so
    a blocked head must not skip its stride while it waits."""
    attack = build_attack("btb")

    def make_core():
        return Core(attack.program, memory_image=attack.image,
                    config=CoreConfig.small(), runahead=SecureRunahead(),
                    initial_sp=attack.initial_sp, warm_icache=True)

    core, _, _ = assert_same_run(make_core, steps, max_cycles=2_000_000)
    assert core.halted
    sl_stats = core.runahead.sl.stats
    assert sl_stats.usl_waits > 0 and sl_stats.timeouts > 0
    assert core.dispatch_stalls.steps["rename-int"] > 0


def corunner_system(config):
    """gems as the primary, two restarting lbm co-runners."""
    shared = SharedHierarchy(config.hierarchy)
    system = MultiCoreSystem(shared)
    for index, name in enumerate(("gems", "lbm", "lbm")):
        view = shared.add_core(phys_base=index * PHYS_WINDOW_STRIDE)

        def factory(name=name, view=view):
            program, image, sp = get_workload(name).materialize()
            return Core(program, memory_image=image, config=config,
                        runahead=make_controller("original"),
                        initial_sp=sp, warm_icache=True, hierarchy=view)
        system.add_core(factory, name=f"{name}{index}", restart=index > 0)
    return system


def test_three_core_corunner_system_matches_reference_loop(steps):
    config = CoreConfig.small()
    new, old = corunner_system(config), corunner_system(config)
    new_steps = steps(lambda: new.run(max_cycles=400_000))
    old_steps = steps(lambda: reference_system_run(old, 400_000))
    assert new.cycle == old.cycle
    assert new_steps < old_steps
    for new_slot, old_slot in zip(new.slots, old.slots):
        assert new_slot.respawns == old_slot.respawns
        assert observed(new_slot.core) == observed(old_slot.core)


def test_dispatch_stall_counters_do_not_touch_stats():
    """Reading the counters is pure observation: the stats of a run
    whose counters were read equal one whose counters were not."""
    unread = workload_core("gems", "original")
    unread.run()
    read = workload_core("gems", "original")
    read.run()
    assert set(read.dispatch_stalls.steps) == set(STALL_REASONS)
    assert sum(read.dispatch_stalls.steps.values()) > 0
    assert not any(field.name == "dispatch_stalls"
                   for field in dataclasses.fields(CoreStats))
    assert dataclasses.asdict(read.stats) == dataclasses.asdict(unread.stats)


class _Recorder:
    def __init__(self):
        self.calls = []

    def _record_stall(self, reason, skipped):
        self.calls.append((reason, skipped))


@pytest.mark.parametrize("event,target", [
    (None, None), (5, 10), (10, 10), (13, 13)])
def test_unblocked_cores_jump_to_the_event(event, target):
    assert next_step_cycle(10, event) == target


@pytest.mark.parametrize("event,target", [
    (5, 10), (10, 10), (11, 12), (12, 12), (13, 14), (20, 20)])
def test_blocked_core_lands_on_the_stride(event, target):
    core = _Recorder()
    assert next_step_cycle(10, event, ((core, "iq"),)) == target
    assert core.calls == [("iq", (target - 10) // 2)]


def test_wedged_core_spins_instead_of_quiescing():
    """A blocked head with nothing else pending must keep stepping (to
    the run's ceiling), never read as a quiescent core."""
    core = _Recorder()
    assert next_step_cycle(10, None, ((core, "rob"),)) == 10
    assert core.calls == [("rob", 0)]


def test_hold_keeps_the_stride():
    core = _Recorder()
    assert next_step_cycle(10, 30, ((core, "fence"),), hold=True) == 10
    assert core.calls == [("fence", 0)]
