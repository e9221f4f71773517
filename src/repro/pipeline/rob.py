"""Reorder buffer entries and the value-based in-flight state.

The core is a value-based Tomasulo machine: every ROB entry carries the
computed result of its instruction, the register alias table maps each
architectural register to its newest in-flight producer, and operands are
read either from a producer entry or from the architectural file.

``inv`` implements the runahead INV bit (Mutlu HPCA'03): results derived
from the stalling load are poisoned and propagate invalidity instead of
values.  An INV *branch* is the SPECRUN attack surface — it is predicted
but never resolved.

Scheduling is wakeup-driven: ``pending_srcs`` counts source producers
whose results are still outstanding, and ``consumers`` is the producer's
wakeup list — when a producer's result arrives, the core decrements each
consumer's counter and queues the ones that reached zero for issue.  The
issue stage therefore never scans the issue queue asking "are your
operands ready yet?".

A run of consecutive nops travels as one :class:`NopRun` record that
carries its count: nops complete at dispatch, read no register and wake
nobody, so one record stands for all of them.  The ROB and the
front-end queue hold records; their bounds count slots (the core keeps
each bound as a record count less the extra slots its runs hold).
"""

from __future__ import annotations

from collections import deque

# Entry lifecycle states.
DISPATCHED = 0   # in the ROB + issue queue, waiting for operands/FU
                 # (before dispatch it sits in the front-end queue)
ISSUED = 1       # executing; result arrives at `completion`
DONE = 2         # result available (or pseudo-value for stores)
NOP_RUN = 3      # a NopRun: done from dispatch, never issued


class RobEntry:
    """One in-flight instruction."""

    __slots__ = (
        "seq", "pc", "instr", "state", "value", "inv", "completion",
        "prediction", "resolved", "actual_taken", "actual_target",
        "mem_addr", "store_value", "mem_level", "squashed",
        "src_producers", "filtered", "taint", "btag",
        "is_branch", "is_load", "is_store",
        "pending_srcs", "consumers", "store_waiters", "ready_cycle",
    )

    def __init__(self, pc, instr, prediction=None, ready_cycle=0):
        self.seq = 0                 # program-order number, set at dispatch
        self.pc = pc
        self.instr = instr
        self.ready_cycle = ready_cycle   # first cycle dispatch may take it
        self.state = DISPATCHED
        self.value = None
        self.inv = False
        self.completion = 0
        self.prediction = prediction     # branch Prediction from fetch
        self.resolved = False
        self.actual_taken = None
        self.actual_target = None
        self.mem_addr = None         # effective address once computed
        self.store_value = None
        self.mem_level = None        # hierarchy level that served a load
        self.squashed = False
        self.src_producers = None    # tuple: RobEntry | None per source
        self.filtered = False        # precise runahead: dropped from slice
        self.taint = None            # defense: taint label set
        self.btag = None             # defense: (branch scope id, m) tag
        # Decode-time classification, copied from the instruction so the
        # commit/queue paths read one attribute instead of two.
        self.is_branch = instr.branch
        self.is_load = instr.pipe_load
        self.is_store = instr.pipe_store
        # Wakeup scheduling state (see module docstring).
        self.pending_srcs = 0        # outstanding source producers
        self.consumers = None        # entries to wake when this completes
        self.store_waiters = None    # loads waiting for this store's address

    def __repr__(self):
        return (f"RobEntry(seq={self.seq}, pc={self.pc:#x}, "
                f"{self.instr.opcode.mnemonic}, state={self.state})")


class NopRun:
    """``count`` consecutive nops as one record.

    ``seq`` and ``pc`` are the first nop's; nop ``i`` of the run has
    ``seq + i`` and ``pc + i * INSTR_BYTES``.  Fetch builds a run,
    dispatch moves some or all of its nops into the ROB (extending a
    run at the ROB tail) and commit takes nops from the head run, each
    advancing ``seq``/``pc`` and lowering ``count`` as nops leave.
    """

    __slots__ = ("seq", "pc", "instr", "count", "ready_cycle", "squashed",
                 "consumers")

    state = NOP_RUN
    is_branch = is_load = is_store = False

    def __init__(self, pc, instr, count, ready_cycle):
        self.seq = 0                 # first nop's seq, set at dispatch
        self.pc = pc
        self.instr = instr
        self.count = count
        self.ready_cycle = ready_cycle
        self.squashed = False
        self.consumers = None        # never set: a nop wakes nobody


class ReorderBuffer:
    """Bounded FIFO of :class:`RobEntry` and :class:`NopRun` records (in
    program order); ``capacity`` counts slots, one per instruction.

    The core appends, pops the head and checks the bound on ``_entries``
    directly (its dispatch and commit loops); the methods here are the
    bulk removals of misprediction recovery and runahead exit.  A
    squashed entry wakes nobody, so both drop each victim's wakeup
    list: that breaks the producer/consumer reference cycles a squash
    would leave, and the victims are freed by reference counting
    instead of waiting for the cyclic garbage collector.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = deque()

    def __len__(self):
        """Records held, not slots: a nop run is one record."""
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def squash_younger(self, seq):
        """Remove every entry younger than ``seq``; returns the victims."""
        victims = []
        entries = self._entries
        # A run is never split by a squash: the squashing entry is not
        # a nop, so each run is wholly older or wholly younger.
        while entries and entries[-1].seq > seq:
            victim = entries.pop()
            victim.squashed = True
            victim.consumers = None
            victims.append(victim)
        return victims

    def clear(self):
        """Remove everything (runahead exit); returns the victims."""
        victims = list(self._entries)
        for victim in victims:
            victim.squashed = True
            victim.consumers = None
        self._entries.clear()
        return victims
