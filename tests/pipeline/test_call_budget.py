"""Python calls per simulated cycle stay within a recorded budget.

The host cost of a simulated cycle is mostly Python function calls, not
modelled work.  Each run below counts the Python-level ``call`` events
(function calls and generator resumptions; C calls excluded) that one
``Core.run`` makes, divided by the cycles it simulates, and asserts the
bound recorded when the core's stages were inlined.  A change that puts
a helper call back on a per-instruction path fails here even though
every statistic still matches the golden fixtures.

The counts were measured on CPython 3.11: 9.36 (sled), 12.42 (wait
loop) and 1.89 (pht) calls per cycle.  They were 28.3, 65.0 and 5.04
before the stages were inlined, and 9.36, 25.59 and 2.64 before fetch
re-hit its last L1I line and conditional-branch predict/resolve,
normal-mode integer loads and runahead pseudo-retirement ran inline.
On 3.11 the bound is the measured count plus half a call per fetched
instruction, so one helper call put back on the fetch-to-retire path
fails.  Other versions may count calls differently (3.12 inlines
comprehensions, PEP 709, and runs ``sys.setprofile`` on
``sys.monitoring``), so there the bound is halfway between the counts
before and after the stages were inlined: it still fails if most of
the inlining is undone.  (3.10, 3.12 and 3.13 measured within 0.01
calls per cycle of 3.11 on all three runs.)

The lbm run is a sim-sweep ``ipc`` trial's contender.  It made 6.13
calls per cycle when floating-point ops, ``fload``, stores and
runahead-mode loads went through ``Core._try_issue``, and 4.12 once
they issued inline; its bounds follow the rule above from those two
counts.
"""

from __future__ import annotations

import sys

import pytest

from repro.attack.gadgets import DEFAULT_DELAY_ITERS, build_attack
from repro.harness.registry import get_workload
from repro.isa.assembler import assemble
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.runahead.original import OriginalRunahead


def nop_sled():
    return Core(assemble(".repeat 4096, nop\nhalt"),
                config=CoreConfig.paper(), warm_icache=True)


def wait_loop():
    """The extraction PoC's wait loop (``gadgets._probe_and_support``)."""
    source = f"""
        li   r1, {DEFAULT_DELAY_ITERS}
    delay_loop:
        addi r1, r1, -1
        bne  r1, r0, delay_loop
        fence
        halt
    """
    return Core(assemble(source), config=CoreConfig.paper(),
                warm_icache=True)


def pht_victim():
    attack = build_attack("pht")
    return Core(attack.program, memory_image=attack.image,
                config=CoreConfig.paper(), runahead=OriginalRunahead(),
                initial_sp=attack.initial_sp, warm_icache=True)


def lbm_original():
    """A sim-sweep ``ipc`` trial's contender run: the ``fload``-heavy,
    memory-bound lbm kernel under original runahead."""
    program, image, sp = get_workload("lbm").materialize()
    return Core(program, memory_image=image, config=CoreConfig.paper(),
                runahead=OriginalRunahead(), initial_sp=sp,
                warm_icache=True)


def counted_run(core):
    """Run ``core``; returns the Python calls the run made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        core.run()
    finally:
        sys.setprofile(previous)
    return calls


#: (run, simulated cycles, calls-per-cycle bound on CPython 3.11,
#: bound on other versions)
BUDGETS = {
    "nop-sled": (nop_sled, 1081, 11.3, 18.8),
    "wait-loop": (wait_loop, 962, 13.4, 38.7),
    "pht-victim": (pht_victim, 71655, 2.02, 3.46),
    "lbm-original": (lbm_original, 37289, 4.30, 5.13),
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_calls_per_cycle_within_budget(name):
    make, cycles, bound_311, bound_other = BUDGETS[name]
    bound = bound_311 if sys.version_info[:2] == (3, 11) else bound_other
    core = make()
    calls = counted_run(core)
    assert core.halted
    assert core.stats.cycles == cycles      # the same work as recorded
    assert calls / cycles <= bound, \
        f"{name}: {calls} calls over {cycles} cycles " \
        f"({calls / cycles:.2f}/cycle, budget {bound})"
