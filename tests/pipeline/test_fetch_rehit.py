"""Fetch"s inline L1I re-hit counts exactly what ``access_inst`` counts.

After a taken branch, fetch re-accesses the instruction line.  When
that line is the one it last hit in L1I, nothing has touched L1I since
(``SetAssociativeCache.mutations`` unchanged) and the view has no live
pending fill for it, ``Core._fetch`` counts the hit inline instead of
calling :meth:`MemoryHierarchy.access_inst`.  Each scenario below makes
one of those conditions fail mid-loop and asserts the run"s
``CoreStats``, ``HierarchyStats``, L1I ``CacheStats`` and the order of
``resident_lines(l1i)`` (which records every recency update) against
values recorded from the simulator that always called ``access_inst``.

The loops run on ``CoreConfig.small()``: a 1 KiB two-way L1I, so code
512 bytes apart shares a set.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.assembler import assemble
from repro.memory.hierarchy import PHYS_WINDOW_STRIDE, SharedHierarchy
from repro.multicore.system import MultiCoreSystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.runahead.original import OriginalRunahead
from tests.sim import resident_lines

WAIT_LOOP = """
    li   r1, {iters}
loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""

#: A loop in line 0 that every fourth iteration jumps through lines 512
#: and 1024 — the same two-way set — evicting line 0; the return refills
#: it from L2.
THRASH_LOOP = """
    li   r1, 24
loop:
    addi r1, r1, -1
    andi r3, r1, 3
    bne  r3, r0, skip
    jmp  far1
skip:
    bne  r1, r0, loop
    halt
    .repeat 121, nop
far1:
    jmp  far2
    .repeat 127, nop
far2:
    jmp  skip
"""

#: A loop that ``clflush``es its own code line every iteration.
FLUSH_LOOP = """
    li   r1, 6
    li   r2, 0
loop:
    clflush r2, 0
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""

#: A load that misses to memory, then a wait loop that runahead
#: fetches and pseudo-retires until the load"s data returns.
RUNAHEAD_LOOP = """
    li   r2, 0x40000
    li   r1, 300
    load r3, r2, 0
loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


def nonzero(stats):
    return {name: value for name, value in dataclasses.asdict(stats).items()
            if value}


def observed(core):
    hierarchy = core.hierarchy
    return {"core": nonzero(core.stats),
            "hierarchy": nonzero(hierarchy.stats),
            "l1i": nonzero(hierarchy.l1i.stats),
            "l1i_lines": resident_lines(hierarchy.l1i)}


def small_core(source, **kwargs):
    return Core(assemble(source), config=CoreConfig.small(), **kwargs)


def refilled():
    """(a) The loop"s own fetches evict and refill its line."""
    core = small_core(THRASH_LOOP, warm_icache=True)
    core.run()
    return [observed(core)]


def smt_sibling():
    """(b) An SMT sibling sharing L1I fetches into the same set between
    two of the loop"s fetches (and, through its own thrash loop, evicts
    by the recency the loop"s re-hits must keep)."""
    config = CoreConfig.small()
    shared = SharedHierarchy(config.hierarchy)
    view = shared.add_core()
    sibling_view = shared.add_smt_thread(view, phys_base=PHYS_WINDOW_STRIDE)
    core = Core(assemble(WAIT_LOOP.format(iters=150)), config=config,
                hierarchy=view, warm_icache=True)
    sibling = Core(assemble(THRASH_LOOP), config=config,
                   hierarchy=sibling_view, warm_icache=True)
    system = MultiCoreSystem(shared)
    system.add_core(lambda: core)
    system.add_core(lambda: sibling)
    system.run()
    return [observed(core), observed(sibling)]


def flushed():
    """(c) ``clflush`` removes the loop"s line from L1I every iteration."""
    core = small_core(FLUSH_LOOP, warm_icache=True)
    core.run()
    return [observed(core)]


def data_pending():
    """(d) Mid-loop, the loop"s line leaves L1D/L2/L3 and a data access
    starts a memory fill of it while L1I still holds it."""
    core = small_core(WAIT_LOOP.format(iters=80), warm_icache=True)
    core.run(max_cycles=40)
    hierarchy = core.hierarchy
    for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3):
        cache.invalidate(0)
    hierarchy.access_data(0, core.cycle)
    core.run()
    return [observed(core)]


def in_runahead():
    """(e) The loop is fetched inside a runahead episode."""
    core = small_core(RUNAHEAD_LOOP, warm_icache=True,
                      runahead=OriginalRunahead())
    core.run()
    assert core.stats.runahead_episodes
    return [observed(core)]


SCENARIOS = {"refilled": refilled, "smt-sibling": smt_sibling,
             "flushed": flushed, "data-pending": data_pending,
             "in-runahead": in_runahead}

#: Recorded from the simulator that called ``access_inst`` on every
#: instruction-line access.
EXPECTED = {"data-pending": [{"core": {"cycles": 383,
                            "committed": 162,
                            "fetched": 183,
                            "dispatched": 171,
                            "issued": 162,
                            "squashed": 9,
                            "branch_mispredicts": 6,
                            "transient_executed": 6},
                   "hierarchy": {"data_accesses": 1,
                                 "inst_accesses": 90,
                                 "mem_requests": 1,
                                 "merged_requests": 1},
                   "l1i": {"hits": 89, "fills": 1},
                   "l1i_lines": [0]}],
 "flushed": [{"core": {"cycles": 1525,
                       "committed": 21,
                       "fetched": 38,
                       "dispatched": 32,
                       "issued": 22,
                       "squashed": 11,
                       "branch_mispredicts": 6,
                       "transient_executed": 7},
              "hierarchy": {"inst_accesses": 18,
                            "mem_requests": 7,
                            "flushes": 7,
                            "dropped_fills": 1},
              "l1i": {"hits": 11,
                      "misses": 7,
                      "fills": 7,
                      "invalidations": 6},
              "l1i_lines": [0]}],
 "in-runahead": [{"core": {"cycles": 571,
                           "committed": 604,
                           "fetched": 1034,
                           "dispatched": 1010,
                           "issued": 998,
                           "squashed": 16,
                           "branch_mispredicts": 6,
                           "runahead_episodes": 1,
                           "runahead_cycles": 241,
                           "pseudo_retired": 390,
                           "transient_executed": 400},
                  "hierarchy": {"data_accesses": 2,
                                "inst_accesses": 513,
                                "mem_requests": 1},
                  "l1i": {"hits": 513, "fills": 1},
                  "l1i_lines": [0]}],
 "refilled": [{"core": {"cycles": 417,
                        "committed": 116,
                        "fetched": 196,
                        "dispatched": 148,
                        "issued": 130,
                        "squashed": 32,
                        "branch_mispredicts": 16,
                        "transient_executed": 20},
               "hierarchy": {"inst_accesses": 123},
               "l1i": {"hits": 98,
                       "misses": 25,
                       "fills": 42,
                       "evictions": 26},
               "l1i_lines": [1024, 0, 64, 576, 128, 640, 192, 704,
                             256, 768, 320, 832, 384, 896, 448,
                             960]}],
 "smt-sibling": [{"core": {"cycles": 252,
                           "committed": 302,
                           "fetched": 323,
                           "dispatched": 311,
                           "issued": 302,
                           "squashed": 9,
                           "branch_mispredicts": 6,
                           "transient_executed": 6},
                  "hierarchy": {"inst_accesses": 163},
                  "l1i": {"hits": 180,
                          "misses": 23,
                          "fills": 41,
                          "evictions": 25},
                  "l1i_lines": [0, 1073741824, 1073741888,
                                1073742400, 1073741952, 1073742464,
                                1073742016, 1073742528, 1073742080,
                                1073742592, 1073742144, 1073742656,
                                1073742208, 1073742720, 1073742272,
                                1073742784]},
                 {"core": {"cycles": 253,
                           "committed": 38,
                           "fetched": 53,
                           "dispatched": 49,
                           "issued": 44,
                           "squashed": 11,
                           "branch_mispredicts": 11,
                           "transient_executed": 11},
                  "hierarchy": {"inst_accesses": 40},
                  "l1i": {"hits": 180,
                          "misses": 23,
                          "fills": 41,
                          "evictions": 25},
                  "l1i_lines": [0, 1073741824, 1073741888,
                                1073742400, 1073741952, 1073742464,
                                1073742016, 1073742528, 1073742080,
                                1073742592, 1073742144, 1073742656,
                                1073742208, 1073742720, 1073742272,
                                1073742784]}]}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_rehit_counts_match_access_inst(name):
    assert SCENARIOS[name]() == EXPECTED[name]
