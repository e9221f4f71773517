"""Secure runahead execution (§6): SL cache + taint tracking + Algorithm 1.

The controller changes exactly three behaviours of original runahead:

1. **Fill redirection** — runahead-mode misses do not install lines into
   the cache hierarchy; the data lands in the SL cache, tagged with the
   fetching load's Btag/IS from the taint tracker.
2. **Scope bookkeeping** — every unresolved (INV-source) branch opens a
   taint scope recording the runahead-time prediction; the scope's
   correctness is judged when the same branch re-executes and resolves
   after exit.
3. **Algorithm 1 on the post-exit load path** — while the SL counter C
   is non-zero, loads consult the SL cache first: safe entries promote
   to L1; USL entries wait for their guarding branch; entries of
   mispredicted scopes (and their nested scopes) are deleted, so the
   secret-dependent line of SPECRUN never becomes probe-visible.

A USL whose guarding branch never re-executes would wait forever;
``usl_wait_limit`` bounds the wait, after which the entry is deleted and
the load refetches from memory — the safe direction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..isa.instructions import Opcode
from ..pipeline.issue import BLOCKED
from ..runahead.original import OriginalRunahead
from .sl_cache import SLCache
from .taint import TaintTracker


class SecureRunahead(OriginalRunahead):
    """The paper's §6 defense as a drop-in runahead controller."""

    name = "secure"

    def __init__(self, untrusted_regs=(), conservative=True,
                 min_stall_latency=0, sl_capacity=None,
                 usl_wait_limit=5000):
        super().__init__(min_stall_latency=min_stall_latency)
        self.tracker = TaintTracker(untrusted_regs=untrusted_regs,
                                    conservative=conservative)
        self._sl_capacity = sl_capacity
        self.sl: Optional[SLCache] = None
        self.usl_wait_limit = usl_wait_limit
        #: Scopes judged correctly predicted (the paper's S[]).
        self.correct_scopes: Set[int] = set()
        #: scope id -> Scope awaiting post-exit resolution, keyed by pc.
        self._pending_scopes: Dict[int, List[int]] = {}
        #: in-flight runahead fills: entry seq -> (line, completion).
        self._inflight: Dict[int, tuple] = {}

    def attach(self, core):
        super().attach(core)
        capacity = self._sl_capacity or \
            core.config.runahead.sl_cache_entries
        self.sl = SLCache(capacity=capacity)
        self._sl_latency = core.config.runahead.sl_cache_latency

    # -- runahead-mode behaviour -----------------------------------------------------

    def on_enter(self, core):
        self.tracker.reset()

    def runahead_load_fill(self, core, entry) -> bool:
        return False    # fills are quarantined, never installed

    def runahead_load_override(self, core, entry, addr, now):
        """Serve runahead loads from already-quarantined lines.

        Without this, every re-entered episode re-requests the same
        lines from memory (the SL cache never feeds the hierarchy) and
        the resulting channel contention makes the defense slower than
        no runahead at all on re-entrant pointer-chase code — measured
        in EXPERIMENTS.md.
        """
        if self.sl is None or self.sl.counter == 0:
            return None
        line = core.hierarchy.line_of(addr)
        sl_entry = self.sl.lookup(line)
        if sl_entry is None:
            return None
        wait = max(sl_entry.ready_cycle - now, 0)
        return self._sl_latency + wait

    def on_runahead_load(self, core, entry, result):
        if result.is_memory_level:
            self._inflight[entry.seq] = (result.line, result.completion)

    def on_pseudo_retire(self, core, entry):
        instr = entry.instr
        pc = entry.pc
        if instr.is_branch() and not entry.resolved and \
                (entry.inv or entry.actual_target is None):
            self._open_scope_for(core, entry)
            return
        info = self.tracker.on_instruction(pc, instr)
        entry.taint = info.is_set
        entry.btag = info.btag
        inflight = self._inflight.pop(entry.seq, None)
        if inflight is not None:
            line, completion = inflight
            self.sl.insert(line, info.btag, info.is_set, completion)

    def _open_scope_for(self, core, entry):
        instr = entry.instr
        prediction = entry.prediction
        if instr.is_conditional_branch():
            if prediction is not None and not prediction.taken:
                end = core.program.scope_end(entry.pc)
                if end is not None:
                    scope = self.tracker.open_scope(
                        entry.pc, end, predicted_taken=False)
                    self._pending_scopes.setdefault(entry.pc, []).append(
                        scope.scope_id)
            # Predicted-taken INV branches skip their body: no scope.
            return
        # Unresolved indirect branch (jr/ret): episode-long scope.
        target = prediction.target if prediction is not None else None
        scope = self.tracker.open_scope(entry.pc, None, predicted_taken=True,
                                        predicted_target=target)
        self._pending_scopes.setdefault(entry.pc, []).append(scope.scope_id)

    # -- post-exit behaviour (Algorithm 1) ----------------------------------------------

    def on_exit(self, core):
        self._inflight.clear()

    def normal_load_override(self, core, entry, addr, now):
        if self.sl is None or self.sl.counter == 0:
            return None
        line = core.hierarchy.line_of(addr)
        sl_entry = self.sl.lookup(line)
        if sl_entry is None:
            return None
        if not sl_entry.is_usl:
            return self._promote(core, line, sl_entry, now)
        scopes = sl_entry.scope_ids
        unresolved = [s for s in scopes if s not in self.correct_scopes]
        if not unresolved:
            return self._promote(core, line, sl_entry, now)
        # Algorithm 1 line 10: wait for the resolution of Bn.
        self.sl.stats.usl_waits += 1
        if sl_entry.first_wait_cycle is None:
            sl_entry.first_wait_cycle = now
        elif now - sl_entry.first_wait_cycle > self.usl_wait_limit:
            # The guarding branch never re-executed: drop the entry and
            # refetch from memory (safe direction).
            self.sl.remove(line)
            self.sl.stats.timeouts += 1
            return None
        return BLOCKED

    def _promote(self, core, line, sl_entry, now):
        ready = max(sl_entry.ready_cycle - now, 0)
        self.sl.promote(line)
        core.hierarchy.l1d.fill(line)
        return self._sl_latency + ready

    def on_branch_resolved(self, core, entry, mispredicted):
        """Judge pending scopes when their branch re-executes (post-exit)."""
        pending = self._pending_scopes.get(entry.pc)
        if not pending:
            return
        scope_ids = list(pending)
        pending.clear()
        for scope_id in scope_ids:
            scope = self.tracker.scopes[scope_id]
            if entry.instr.is_conditional_branch():
                correct = entry.actual_taken == scope.predicted_taken
            else:
                correct = entry.actual_target == scope.predicted_target
            if correct:
                self.correct_scopes.add(scope_id)   # the paper's S[]
            else:
                doomed = self.tracker.descendants(scope_id)
                self.sl.delete_scopes(doomed)
