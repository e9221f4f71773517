"""The issue stage's float and runahead-mode paths, pinned end to end.

Each scenario below drives one issue path that the memory-bound Fig. 7
kernels take thousands of times per run: a floating-point load that
forwards from an older store (an ``fstore``, or either lane of a
``vstore``), one that parks behind a store whose address is still being
computed, an ``fdiv`` by zero, runahead-mode loads that lose the MEM
ports to older loads and issue a cycle later, and floating-point ops
whose sources are INV in runahead mode.  The run's ``CoreStats``, its
architectural registers and its memory are asserted against values
recorded from the simulator before these paths were issued inline, and
so, where a path is about timing, are the cycles its loads issued in.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.assembler import assemble
from repro.isa.memory_image import MemoryImage
from repro.isa.registers import reg_name
from repro.obs.events import EV_ISSUE
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.runahead.original import OriginalRunahead
from tests.sim import MemorySink, memory_words

INF = float("inf")


def observed(core, sink, pcs):
    """Nonzero ``CoreStats`` fields and registers (-0.0 reads as zero),
    memory, and the issue cycles of the instructions at ``pcs``."""
    record = {
        "stats": {name: value
                  for name, value in dataclasses.asdict(core.stats).items()
                  if value},
        "regs": {reg_name(reg): value
                 for reg, value in enumerate(core.arch_regs)
                 if value not in (0, (0, 0))},
        "memory": memory_words(core.memory),
    }
    if pcs:
        record["issued"] = sorted(
            (pc, cycle) for cycle, kind, _, pc in sink.events
            if kind == EV_ISSUE and pc in pcs)
    return record


def run(source, image, runahead=None, pcs=()):
    program = assemble(source, memory_image=image)
    core = Core(program, memory_image=image, config=CoreConfig.small(),
                runahead=runahead, warm_icache=True)
    sink = MemorySink()
    core.trace = core.hierarchy.trace = sink
    core.run(max_cycles=100_000)
    assert core.halted
    return observed(core, sink, pcs)


def fstore_forward():
    """An ``fload`` parks behind an ``fstore`` whose value is still
    being computed, then forwards from it; a second reads an integer
    ``store``'s word as a float."""
    image = MemoryImage()
    image.alloc_array("buf", 4)
    return run("""
        li    r1, @buf
        li    r2, 3
        fcvt  f1, r2
        fmul  f2, f1, f1
        fstore f2, r1, 0
        fload f3, r1, 0
        fadd  f4, f3, f1
        li    r3, 11
        store r3, r1, 8
        fload f5, r1, 8
        fsub  f6, f5, f4
        halt
    """, image)


def vstore_lanes():
    """Both lanes of a ``vstore`` forward to ``fload``s."""
    image = MemoryImage()
    src = image.alloc_array("src", 2)
    image.write_words(src, [3, 40])
    image.alloc_array("dst", 2)
    return run("""
        li     r1, @src
        li     r2, @dst
        vload  x1, r1, 0
        vadd   x2, x1, x1
        vstore x2, r2, 0
        fload  f1, r2, 0
        fload  f2, r2, 8
        fdiv   f3, f2, f1
        fmov   f4, f3
        halt
    """, image)


def unknown_store_address():
    """An ``fload`` parks behind a store whose address comes from a
    multiply chain; one to another word reads memory once the address
    is known, one to the same word forwards."""
    image = MemoryImage()
    buf = image.alloc_array("buf", 4)
    image.write_words(buf, [5, 6])
    return run("""
        li    r1, @buf
        li    r2, 9
        muli  r6, r2, 0
        mul   r6, r6, r6
        add   r7, r1, r6
        store r2, r7, 0
        fload f1, r1, 8
        fload f2, r1, 0
        fadd  f3, f1, f2
        halt
    """, image)


def fdiv_by_zero():
    """``fdiv`` by 0.0 and by -0.0 yields +inf, as does 0.0 / 0.0."""
    image = MemoryImage()
    image.alloc_array("buf", 4)
    return run("""
        li    r1, @buf
        li    r2, 7
        li    r3, -1
        fcvt  f1, r2
        fcvt  f2, r0
        fcvt  f3, r3
        fmul  f4, f2, f3
        fdiv  f5, f1, f2
        fdiv  f6, f1, f4
        fdiv  f7, f2, f2
        fstore f5, r1, 0
        fdiv  f8, f3, f1
        fstore f8, r1, 8
        halt
    """, image)


#: pcs of the four loads after the nops in runahead_load_arbitration.
RUNAHEAD_LOAD_PCS = tuple(range(4 * 43, 4 * 47, 4))


def runahead_load_arbitration():
    """Four independent loads dispatch in runahead mode faster than the
    two MEM ports take them: the one that loses arbitration is deferred
    and issues the next cycle (and so again after exit)."""
    image = MemoryImage()
    image.alloc_array("far", 1)
    buf = image.alloc_array("buf", 4)
    image.write_words(buf, [1, 2, 3, 4])
    return run("""
        li   r1, @buf
        li   r2, @far
        load r3, r2, 0
        .repeat 40, nop
        load r4, r1, 0
        load r5, r1, 8
        load r6, r1, 16
        load r7, r1, 24
        halt
    """, image, runahead=OriginalRunahead(), pcs=RUNAHEAD_LOAD_PCS)


def runahead_inv_float():
    """An ``fload`` that misses stalls the window; in runahead its
    consumers issue as INV (no unit), a valid FP op beside them
    executes, and all of them re-execute after exit."""
    image = MemoryImage()
    far = image.alloc_array("far", 1)
    image.write_word(far, 2.5)
    image.alloc_array("buf", 2)
    return run("""
        li    r1, @far
        li    r2, @buf
        li    r3, 4
        fload f1, r1, 0
        fadd  f2, f1, f1
        fmul  f3, f2, f1
        fdiv  f4, f3, f2
        fmov  f5, f4
        fcvt  f6, r3
        fsub  f7, f6, f6
        fmul  f8, f6, f6
        fstore f5, r2, 0
        halt
    """, image, runahead=OriginalRunahead())


SCENARIOS = {"fstore-forward": fstore_forward,
             "vstore-lanes": vstore_lanes,
             "unknown-store-address": unknown_store_address,
             "fdiv-by-zero": fdiv_by_zero,
             "runahead-load-arbitration": runahead_load_arbitration,
             "runahead-inv-float": runahead_inv_float}

#: Recorded from the simulator that issued these instructions through
#: ``Core._try_issue``.
EXPECTED = {"fdiv-by-zero": {"stats": {"cycles": 41,
                                       "committed": 14,
                                       "fetched": 14,
                                       "dispatched": 14,
                                       "issued": 13},
                             "regs": {"r1": 1048576,
                                      "r2": 7,
                                      "r3": 18446744073709551615,
                                      "f1": 7.0,
                                      "f3": -1.0,
                                      "f5": INF,
                                      "f6": INF,
                                      "f7": INF,
                                      "f8": -0.14285714285714285},
                             "memory": {1048576: INF,
                                        1048584: -0.14285714285714285}},
            "fstore-forward": {"stats": {"cycles": 35,
                                         "committed": 12,
                                         "fetched": 12,
                                         "dispatched": 12,
                                         "issued": 11},
                               "regs": {"r1": 1048576,
                                        "r2": 3,
                                        "r3": 11,
                                        "f1": 3.0,
                                        "f2": 9.0,
                                        "f3": 9.0,
                                        "f4": 12.0,
                                        "f5": 11.0,
                                        "f6": -1.0},
                               "memory": {1048576: 9.0, 1048584: 11}},
            "runahead-inv-float": {"stats": {"cycles": 300,
                                             "committed": 13,
                                             "fetched": 23,
                                             "dispatched": 23,
                                             "issued": 21,
                                             "runahead_episodes": 1,
                                             "runahead_cycles": 241,
                                             "pseudo_retired": 10,
                                             "inv_instructions": 5,
                                             "transient_executed": 10},
                                   "regs": {"r1": 1048576,
                                            "r2": 1048640,
                                            "r3": 4,
                                            "f1": 2.5,
                                            "f2": 5.0,
                                            "f3": 12.5,
                                            "f4": 2.5,
                                            "f5": 2.5,
                                            "f6": 4.0,
                                            "f8": 16.0},
                                   "memory": {1048576: 2.5, 1048640: 2.5}},
            "runahead-load-arbitration": {"stats": {"cycles": 284,
                                                    "committed": 48,
                                                    "fetched": 94,
                                                    "dispatched": 94,
                                                    "issued": 12,
                                                    "runahead_episodes": 1,
                                                    "runahead_cycles": 241,
                                                    "pseudo_retired": 46,
                                                    "runahead_prefetches": 8,
                                                    "transient_executed": 46},
                                          "regs": {"r1": 1048640,
                                                   "r2": 1048576,
                                                   "r4": 1,
                                                   "r5": 2,
                                                   "r6": 3,
                                                   "r7": 4},
                                          "memory": {1048640: 1,
                                                     1048648: 2,
                                                     1048656: 3,
                                                     1048664: 4},
                                          "issued": [(172, 26),
                                                     (172, 280),
                                                     (176, 27),
                                                     (176, 280),
                                                     (180, 27),
                                                     (180, 281),
                                                     (184, 28),
                                                     (184, 281)]},
            "unknown-store-address": {"stats": {"cycles": 261,
                                                "committed": 10,
                                                "fetched": 10,
                                                "dispatched": 10,
                                                "issued": 9},
                                      "regs": {"r1": 1048576,
                                               "r2": 9,
                                               "r7": 1048576,
                                               "f1": 6.0,
                                               "f2": 9.0,
                                               "f3": 15.0},
                                      "memory": {1048576: 9, 1048584: 6}},
            "vstore-lanes": {"stats": {"cycles": 278,
                                       "committed": 10,
                                       "fetched": 10,
                                       "dispatched": 10,
                                       "issued": 9},
                             "regs": {"r1": 1048576,
                                      "r2": 1048640,
                                      "f1": 6.0,
                                      "f2": 80.0,
                                      "f3": 13.333333333333334,
                                      "f4": 13.333333333333334,
                                      "x1": (3, 40),
                                      "x2": (6, 80)},
                             "memory": {1048576: 3,
                                        1048584: 40,
                                        1048640: 6,
                                        1048648: 80}}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_issue_path_matches_recording(name):
    assert SCENARIOS[name]() == EXPECTED[name]
