"""The core's inline fast paths give way to every overridden hook.

``Core`` runs the common case of several hooks inline and guards each
inline path with a flag from ``HOOK_FLAGS``.  These tests derive each
flag's expected value independently — from the class dictionaries along
the MRO, not from the attribute identity the core compares — for every
registered controller and every direction predictor.  A controller
that overrides every inlined hook (with the default behaviour) turns
every inline path off: its hooks are called as often as the simulator
without inline paths called them, and it runs exactly like the default
controller, whose hooks the inline paths stand in for.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.attack.gadgets import build_attack
from repro.branch.base import DirectionPredictor
from repro.branch.predictors import make_direction_predictor
from repro.harness.registry import CONTROLLERS
from repro.isa.assembler import assemble
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import HOOK_FLAGS, Core
from repro.runahead.original import OriginalRunahead
from tests.sim import architectural_state

PROGRAM = assemble("halt")


def overrides(cls, interface, hook):
    """True if a class between ``cls`` and ``interface`` defines ``hook``."""
    mro = cls.__mro__
    return any(hook in klass.__dict__
               for klass in mro[:mro.index(interface)])


def expected_flag(obj, interface, hooks):
    return not any(overrides(type(obj), interface, hook) for hook in hooks)


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_controller_flags(name):
    core = Core(PROGRAM, config=CoreConfig.small(),
                runahead=CONTROLLERS[name]())
    for flag, (owner, interface, hooks) in HOOK_FLAGS.items():
        if owner == "runahead":
            assert getattr(core, flag) == \
                expected_flag(core.runahead, interface, hooks), flag


@pytest.mark.parametrize("predictor", ["twolevel", "gshare", "bimodal"])
def test_predictor_flags(predictor):
    core = Core(PROGRAM, config=CoreConfig.small(predictor=predictor))
    direction = core.branch_unit.direction
    assert type(direction) is type(make_direction_predictor(predictor))
    for flag, (owner, interface, hooks) in HOOK_FLAGS.items():
        if owner == "direction":
            assert interface is DirectionPredictor
            assert getattr(core, flag) == \
                expected_flag(direction, interface, hooks), flag
    # The branch unit's own guards on its general predict path.
    unit = core.branch_unit
    assert unit._snapshots_history == \
        overrides(type(direction), DirectionPredictor, "snapshot")
    assert unit._shifts_history == \
        overrides(type(direction), DirectionPredictor, "spec_update")
    # gshare keeps a speculative global history; the others keep none.
    assert core._history_free == (predictor != "gshare")


def test_known_overrides_turn_their_paths_off():
    flags = {name: Core(PROGRAM, config=CoreConfig.small(),
                        runahead=CONTROLLERS[name]())
             for name in ("original", "precise", "vector", "secure")}
    assert flags["original"]._load_hooks_are_default
    assert flags["original"]._pseudo_retire_is_default
    assert not flags["precise"]._filter_is_default
    assert flags["original"]._runahead_load_hooks_are_default
    assert flags["precise"]._runahead_load_hooks_are_default
    assert not flags["vector"]._load_hooks_are_default
    assert not flags["vector"]._runahead_load_hooks_are_default
    assert not flags["secure"]._runahead_load_hooks_are_default
    assert not flags["secure"]._load_hooks_are_default
    assert not flags["secure"]._pseudo_retire_is_default
    assert not flags["secure"]._resolve_hook_is_default


class CountingRunahead(OriginalRunahead):
    """Original runahead with every inlined hook overridden to count
    its calls (and to behave as the default)."""

    def __init__(self):
        super().__init__()
        self.calls = dict.fromkeys(
            (hook for owner, _, hooks in HOOK_FLAGS.values()
             if owner == "runahead" for hook in hooks), 0)

    def _count(self, hook):
        self.calls[hook] += 1

    def filter_dispatch(self, core, instr, pc):
        self._count("filter_dispatch")
        return True

    def on_branch_resolved(self, core, entry, mispredicted):
        self._count("on_branch_resolved")

    def normal_load_override(self, core, entry, addr, now):
        self._count("normal_load_override")
        return None

    def on_normal_load(self, core, entry, result):
        self._count("on_normal_load")

    def runahead_load_override(self, core, entry, addr, now):
        self._count("runahead_load_override")
        return None

    def runahead_load_fill(self, core, entry):
        self._count("runahead_load_fill")
        return True

    def on_runahead_load(self, core, entry, result):
        self._count("on_runahead_load")

    def on_pseudo_retire(self, core, entry):
        self._count("on_pseudo_retire")


#: Loads that miss (entering runahead), a loop of loads and branches
#: runahead runs ahead through, and the same loop in normal mode.
RUNAHEAD_LOADS = """
    li   r2, 0x40000
    li   r1, 40
    li   r4, 0x1000
loop:
    load r3, r2, 0
    load r5, r4, 0
    addi r2, r2, 64
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


def test_overridden_hooks_are_all_called():
    controller = CountingRunahead()
    core = Core(assemble(RUNAHEAD_LOADS), config=CoreConfig.small(),
                runahead=controller)
    core.run()
    assert core.halted
    for flag, (owner, _, _) in HOOK_FLAGS.items():
        if owner == "runahead":
            assert getattr(core, flag) is False, flag
    # Recorded from the simulator that called every hook.
    assert controller.calls == {
        "filter_dispatch": 222, "on_branch_resolved": 92,
        "normal_load_override": 108,
        "on_normal_load": 108, "runahead_load_override": 102,
        "runahead_load_fill": 102, "on_runahead_load": 102,
        "on_pseudo_retire": 271}
    assert core.stats.pseudo_retired == 271
    assert core.stats.runahead_episodes == 13


def observed(core):
    hierarchy = core.hierarchy
    return (dataclasses.asdict(core.stats),
            dataclasses.asdict(hierarchy.stats),
            [dataclasses.asdict(cache.stats)
             for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)],
            dataclasses.asdict(core.branch_unit.stats),
            architectural_state(core))


@pytest.mark.parametrize("source", [RUNAHEAD_LOADS, "pht"])
def test_inline_paths_match_the_hooks(source):
    """The default controller (every inline path on) and one that
    overrides each hook with the default behaviour (every inline path
    off) run the same."""
    if source == "pht":
        attack = build_attack("pht")
        make = lambda runahead: Core(  # noqa: E731
            attack.program, memory_image=attack.image,
            config=CoreConfig.paper(), runahead=runahead,
            initial_sp=attack.initial_sp, warm_icache=True)
    else:
        make = lambda runahead: Core(  # noqa: E731
            assemble(source), config=CoreConfig.small(), runahead=runahead)
    inline, general = make(OriginalRunahead()), make(CountingRunahead())
    inline.run()
    general.run()
    assert inline.stats.runahead_episodes
    assert observed(inline) == observed(general)
