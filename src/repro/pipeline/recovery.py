"""Squashes and mode switches: the core's paths off the per-cycle stages.

Runahead entry (the Fig. 6 trigger, :meth:`RecoveryPaths.
_maybe_enter_runahead`) and exit, the INV poisoning of a stalled head,
branch resolution off the inline path, misprediction recovery and the
hooks mitigations steer it with (:meth:`RecoveryPaths.
force_branch_outcome`, :meth:`RecoveryPaths.stop_runahead_fetch`) are
:class:`RecoveryPaths`, a base class of
:class:`~repro.pipeline.core.Core` in its own module, like
:class:`~repro.pipeline.issue.IssuePaths`: without a bytecode cache
every process compiles ``core.py`` from source, and the compiler's
peak stays in its RSS (``tests/test_parse_peak.py`` bounds it).
"""

from __future__ import annotations

import heapq

from ..isa.instructions import INSTR_BYTES, Opcode
from ..isa.registers import NUM_ARCH_REGS, REG_ZERO
from ..memory.hierarchy import LEVEL_MEM, LEVEL_PENDING
from ..obs.events import (EV_INV as _EV_INV,
                          EV_MISPREDICT as _EV_MISPREDICT,
                          EV_RA_ENTER as _EV_RA_ENTER,
                          EV_RA_EXIT as _EV_RA_EXIT,
                          EV_SQUASH as _EV_SQUASH)
from ..runahead.checkpoint import Checkpoint
from .issue import MODE_NORMAL, MODE_RUNAHEAD, SimulationError
from .rob import DISPATCHED, ISSUED, NOP_RUN

_RET = Opcode.RET
_JR = Opcode.JR


class RecoveryPaths:
    """Runahead entry and exit, and misprediction recovery, of
    :class:`~repro.pipeline.core.Core`."""

    def _poison_stalled_head(self, head):
        """Runahead mode: a memory-level load at the head is INV'd and
        pseudo-retired instead of blocking — its miss continues as a
        prefetch (Mutlu'03)."""
        if not (head.is_load and head.state == ISSUED and
                head.mem_level in (LEVEL_MEM, LEVEL_PENDING)):
            return False
        self._mark_done(head)
        head.inv = True
        if self.trace is not None:
            self.trace.emit(self.cycle, _EV_INV, head.seq, head.pc)
        if head.instr.opcode is _RET:
            head.inv = False
            head.actual_target = None
            self.stats.inv_branches += 1
            self.runahead.on_inv_branch(self, head)
        self.stats.runahead_prefetches += 1
        return True

    def _maybe_enter_runahead(self, head, now):
        """Check the Fig. 6 trigger: memory-level load stalled at ROB head."""
        if not (head.is_load and head.state == ISSUED and
                head.mem_level in (LEVEL_MEM, LEVEL_PENDING)):
            return
        # Track the transient window for Fig. 10 even without runahead.
        if self._stall_base_seq is None:
            self._stall_base_seq = head.seq
            self._stall_open_seq = self.seq
        if not self.runahead.should_enter(self, head):
            return
        self.checkpoint = Checkpoint(
            arch_regs=list(self.arch_regs),
            branch_snapshot=self.branch_unit.snapshot(),
            stalling_pc=head.pc,
            stalling_line=self.hierarchy.line_of(head.mem_addr or 0),
            stalling_completion=head.completion,
            entry_cycle=now,
        )
        self.mode = MODE_RUNAHEAD
        self.stats.runahead_episodes += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_RA_ENTER, head.seq, head.pc)
        # Poison the stalling load: its result is INV, and it pseudo-retires
        # immediately, converting the blocked window into a running one.
        head.inv = True
        self._mark_done(head)
        self.runahead.on_enter(self)
        if head.instr.opcode is _RET:
            # The stack-pointer update is valid; only the return target is
            # unknown, leaving the RSB prediction unresolvable (Fig. 4c).
            head.inv = False
            head.actual_target = None
            self.stats.inv_branches += 1
            self.runahead.on_inv_branch(self, head)

    def _exit_runahead(self, now):
        checkpoint = self.checkpoint
        self.runahead.on_exit(self)
        victims = self.rob.clear()
        # Every slot a run held beyond its first is a squashed nop too.
        extra = self.rob.capacity - self._rob_bound
        self._rob_bound = self.rob.capacity
        for victim in victims:
            if victim.state != DISPATCHED:
                self.stats.transient_executed += 1
        self.stats.transient_executed += extra
        squashed = len(victims) + extra
        self.stats.squashed += squashed
        if self.trace is not None:
            if victims:
                self.trace.emit(now, _EV_SQUASH, squashed,
                                checkpoint.stalling_pc)
            self.trace.emit(now, _EV_RA_EXIT,
                            now - checkpoint.entry_cycle,
                            checkpoint.stalling_pc)
        self.iq_count = 0
        self.lq.clear()
        self.sq.clear()
        self.frontend.clear()
        self._fetch_bound = self.config.fetch_queue
        self._completions = []
        self._squashed_completions = 0
        self._ready = []
        self.arch_regs = list(checkpoint.arch_regs)
        self.arch_inv = [False] * NUM_ARCH_REGS
        self.rat = [None] * NUM_ARCH_REGS
        self._rename_free = {"int": self.config.rename_int,
                             "fp": self.config.rename_fp,
                             "vec": self.config.rename_vec}
        self.branch_unit.restore(checkpoint.branch_snapshot)
        self.runahead_cache.clear()
        self.fetch_pc = checkpoint.stalling_pc
        self.fetch_halted = False
        self.fetch_stall_until = now + self.config.runahead.exit_overhead
        self._last_inst_line = None
        self.mode = MODE_NORMAL
        self.checkpoint = None
        self.stats.runahead_cycles += now - checkpoint.entry_cycle
        if self._stall_base_seq is not None:
            self._close_stall_episode()
        self._activity = True

    def extend_stall(self, completion):
        """Push the runahead exit later (stalling line was flushed in
        flight and must be re-fetched from memory — Fig. 10 case ③)."""
        if self.checkpoint is not None and \
                completion > self.checkpoint.stalling_completion:
            self.checkpoint.stalling_completion = completion

    def _resolve_branch(self, entry, now):
        instr = entry.instr
        unresolvable = entry.inv or entry.actual_target is None and \
            (instr.opcode is _RET or instr.opcode is _JR)
        if self.mode == MODE_RUNAHEAD and unresolvable:
            # The SPECRUN vulnerability: an INV-source branch is predicted
            # but never resolved — the prediction stands for the whole
            # runahead interval (paper §2.1, §4.2 step 3).  Mitigations
            # may override on_inv_branch to skip the branch instead.
            self.stats.inv_branches += 1
            entry.resolved = False
            self.runahead.on_inv_branch(self, entry)
            return
        if entry.inv:
            # INV branch outside runahead mode cannot happen (INV bits only
            # exist in runahead mode).
            raise SimulationError("INV branch in normal mode")
        entry.resolved = True
        train = self.mode == MODE_NORMAL or \
            self.config.runahead.train_in_runahead
        mispredicted = self.branch_unit.resolve(
            entry.pc, instr, entry.actual_taken, entry.actual_target,
            entry.prediction, train=train)
        if not self._resolve_hook_is_default:
            self.runahead.on_branch_resolved(self, entry, mispredicted)
        if not mispredicted:
            return
        self.stats.branch_mispredicts += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_MISPREDICT, entry.seq, entry.pc)
        self._recover_from_branch(entry, now)

    def _squash_younger(self, entry):
        """Remove everything younger than ``entry`` and clean bookkeeping."""
        victims = self.rob.squash_younger(entry.seq)
        squashed_in_heap = 0
        extra = 0       # the victim runs' slots beyond their first
        for victim in victims:
            state = victim.state
            if state == DISPATCHED:
                self.iq_count -= 1
            else:
                self.stats.transient_executed += 1
                if state == ISSUED:
                    # Its completion record is still in the heap; it will
                    # be skipped lazily or compacted away below.
                    squashed_in_heap += 1
                elif state == NOP_RUN:
                    extra += victim.count - 1
            rename = victim.instr.rename_class
            if rename is not None:
                self._rename_free[rename] += 1
        self._rob_bound += extra
        self.stats.transient_executed += extra
        squashed = len(victims) + extra
        self.stats.squashed += squashed
        if victims and self.trace is not None:
            self.trace.emit(self.cycle, _EV_SQUASH, squashed, entry.pc)
        if victims:
            # The victims are the youngest entries: a tail of each queue.
            lq, sq = self.lq, self.sq
            while lq and lq[-1].squashed:
                lq.pop()
            while sq and sq[-1].squashed:
                sq.pop()
            self._squashed_completions += squashed_in_heap
            self._compact_completions()
        # Rebuild the alias table from the surviving entries.
        self.rat = [None] * NUM_ARCH_REGS
        rat = self.rat
        for survivor in self.rob:
            dest = survivor.instr.dest
            if dest is not None and dest != REG_ZERO:
                rat[dest] = survivor
        self.frontend.clear()
        self._fetch_bound = self.config.fetch_queue

    def _compact_completions(self):
        """Drop squashed records once they dominate the completion heap.

        Long misprediction storms can fill ``_completions`` with dead
        entries faster than ``_complete`` pops them; compacting at the
        half-full threshold keeps every heap operation O(log live)
        amortized instead of O(log total-ever-squashed).
        """
        if self._squashed_completions * 2 > len(self._completions):
            self._completions = [record for record in self._completions
                                 if not record[2].squashed]
            heapq.heapify(self._completions)
            self._squashed_completions = 0

    def _recover_from_branch(self, entry, now):
        """Squash the wrong path and redirect fetch."""
        self.branch_unit.restore(entry.prediction.snapshot)
        self.branch_unit.reapply(entry.pc, entry.instr, entry.actual_taken)
        self._squash_younger(entry)
        target = entry.actual_target if entry.actual_taken \
            else entry.pc + INSTR_BYTES
        self.fetch_pc = target
        self.fetch_halted = False
        self.fetch_stall_until = now + 1
        self._last_inst_line = None
        self._activity = True

    def force_branch_outcome(self, entry, taken, target):
        """Mitigation hook: steer an unresolvable branch to a fixed
        outcome (squash its speculative path and redirect fetch)."""
        entry.actual_taken = taken
        entry.actual_target = target
        entry.resolved = True
        self._recover_from_branch(entry, self.cycle)

    def stop_runahead_fetch(self, entry=None):
        """Mitigation hook: kill the speculative path of an unresolvable
        branch and stop fetching for the rest of the runahead interval
        (exit resets fetch state)."""
        if entry is not None:
            self.branch_unit.restore(entry.prediction.snapshot)
            self._squash_younger(entry)
        self.fetch_halted = True
