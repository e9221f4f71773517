"""Set-up and inspection helpers that many tests share.

The simulator itself never needs them: every trial builds a fresh
machine, warms code through ``Core(warm_icache=True)`` and reads its
results from the stats.
"""

from repro.memory.hierarchy import LEVEL_L1, LEVEL_L2, LEVEL_L3


def warm(hierarchy, addr, level=LEVEL_L1, inst=False):
    """Install the line holding ``addr`` in one core's view, down from
    L3 to ``level`` (the L1I with ``inst``), with no timing charged."""
    line = hierarchy.line_of(addr)
    hierarchy.l3.fill(line)
    if level == LEVEL_L3:
        return
    hierarchy.l2.fill(line)
    if level == LEVEL_L2:
        return
    (hierarchy.l1i if inst else hierarchy.l1d).fill(line)


def architectural_state(core):
    """``(registers, memory words)`` of a core, for differential tests."""
    return list(core.arch_regs), core.memory.snapshot()
