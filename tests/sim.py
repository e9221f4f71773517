"""Set-up and inspection helpers that many tests share.

The simulator itself never needs them: every trial builds a fresh
machine, warms code through ``Core(warm_icache=True)`` and reads its
results from the stats.  The inspection helpers read the structures'
internals, and :class:`MemorySink` keeps a traced run's events in
memory; no entry point uses them, so they sit here rather than in
``src/``.
"""

from collections import deque

from repro.memory.hierarchy import LEVEL_L1, LEVEL_L2, LEVEL_L3
from repro.obs.sink import TraceSink


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
    return list(core.arch_regs), memory_words(core.memory)


def rsb_peek(rsb):
    """The return address an RSB's next ``pop`` would predict, or None."""
    entries, top, depth = rsb.snapshot()
    return entries[(top - 1) % rsb.capacity] if depth else None


def rsb_depth(rsb):
    """How many return addresses an RSB holds."""
    return rsb.snapshot()[2]


def resident_lines(cache):
    """Every line address a cache holds, set by set, each set from
    eviction candidate to most protected."""
    return [tag << cache._set_shift for ways in cache._sets
            if ways is not None for tag in ways]


def occupancy(cache):
    """How many lines a cache holds."""
    return len(resident_lines(cache))


def present_in(hierarchy, addr, level):
    """Whether one core's view holds ``addr`` at ``level`` (no side
    effects)."""
    cache = {LEVEL_L1: hierarchy.l1d, LEVEL_L2: hierarchy.l2,
             LEVEL_L3: hierarchy.l3}[level]
    return cache.probe(hierarchy.line_of(addr))


def live_views(shared):
    """The core views of a shared L3 still alive, in attach order."""
    return [view for ref in shared._views if (view := ref()) is not None]


def memory_words(memory):
    """A copy of every word main memory stores."""
    return dict(memory._words)


class MemorySink(TraceSink):
    """Keep a run's events in memory: every event, or a ring of the last
    ``capacity`` (a flight recorder)."""

    def __init__(self, capacity=None):
        self._events = deque(maxlen=capacity) if capacity else deque()

    def emit(self, cycle, kind, a=0, b=0):
        self._events.append((cycle, kind, a, b))

    @property
    def events(self):
        return list(self._events)

    def __len__(self):
        return len(self._events)
