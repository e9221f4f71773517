"""Cycle-level out-of-order core with pluggable runahead execution.

The machine is a value-based Tomasulo+ROB design (see ``rob.py``) staged
as fetch → (6-cycle front end) → dispatch → issue/execute → complete →
commit, processed in reverse order each cycle so results flow with
realistic timing.  Runahead mode (the paper's Fig. 6) changes three
things, all implemented here with policy delegated to the attached
:class:`~repro.runahead.base.RunaheadController`:

* the stalling load's destination is poisoned (INV) and the load
  pseudo-retires immediately, unblocking the window;
* commit becomes *pseudo-retire*: results update the (checkpointed)
  register file, stores go to the runahead cache, nothing reaches
  architectural memory;
* branches with INV sources are predicted but **never resolved** — the
  SPECRUN attack surface — while valid branches resolve as in normal
  mode.

On exit the checkpoint is restored and fetch resumes at the stalling
load.  The only surviving side effects are cache fills.

Scheduling is *wakeup-driven* (docs/PERFORMANCE.md): every dispatched
instruction knows how many of its source producers are still in flight
(``pending_srcs``), producers carry wakeup lists of their consumers, and
``_ready`` is a seq-ordered heap of instructions whose operands are all
available.  The issue stage pops from that heap instead of scanning the
issue queue, so a cycle's issue work is proportional to what can
actually issue — the behaviour (issue order, FU arbitration, stats) is
bit-identical to the scan it replaced, which the golden-stats tests
(``tests/pipeline/test_golden_stats.py``) pin down.

One :class:`~repro.pipeline.rob.RobEntry` carries an instruction from
fetch to retire: fetch builds it, dispatch stamps its ``seq``.  A run
of consecutive nops is one :class:`~repro.pipeline.rob.NopRun` record
with a count instead: fetch builds one per run, cut at fetch room, at
the next non-nop and at each L1I line (every line is still accessed);
dispatch moves as many nops as width and free ROB slots allow,
extending a run at the ROB tail; commit takes as many from the head
run as width allows.  The ROB and front-end bounds count slots, not
records (``_rob_bound``, ``_fetch_bound``), squashes count every nop
of a run, and a sink still sees one event per nop with its own seq
and pc.  Runs form only while the controller keeps the default
``on_pseudo_retire`` (``secure`` sees every nop).  The issue queue is
an occupancy count (the ROB entries still ``DISPATCHED``), and loads
and stores leave the LQ/SQ from the head.
The common case of every stage runs inline — fetch indexes the
instruction list, re-hits its last L1I line and predicts conditional
branches; issue tests INV sources and the unit, executes integer ALU
ops, conditional branches and floating-point arithmetic, and issues
``load``/``fload`` in one store-queue walk; complete wakes consumers
and resolves correctly predicted conditional branches; commit retires
and pseudo-retires — and the rest goes through one helper per stage.
An inline path that stands in for a controller or predictor hook runs
only while that hook is the default (:data:`HOOK_FLAGS`).  The cost of
a simulated cycle is Python calls, so
``tests/pipeline/test_call_budget.py`` bounds them.

The issue stage's general path — stores, ``clflush``, vector loads,
other control flow, ``fcvt``/vector ops and loads under overridden
hooks — is :class:`~repro.pipeline.issue.IssuePaths`, and runahead
entry/exit and misprediction recovery are
:class:`~repro.pipeline.recovery.RecoveryPaths`: base classes of
:class:`Core`, each in its own module.  Without a bytecode cache every
process compiles this module from source, and the compiler's peak
stays in its RSS, so this module keeps only the per-cycle stages
(``tests/test_parse_peak.py`` bounds that peak).

``Core.run`` steps the core alone on the one clock of
:mod:`repro.pipeline.clock`, which skips the cycles where nothing can
happen (:meth:`Core._wake_up` names the next event).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional

from ..branch.base import DirectionPredictor
from ..branch.btb import BranchTargetBuffer
from ..branch.predictors import make_direction_predictor
from ..branch.rsb import ReturnStackBuffer
from ..branch.unit import BranchUnit, Prediction
from ..isa.instructions import (ALU_EVAL, BRANCH_EVAL, FLOAT_EVAL,
                                INSTR_BYTES, PC_SHIFT, WORD_BYTES, FuKind,
                                Opcode, to_unsigned64)
from ..isa.program import Program
from ..isa.registers import (NUM_ARCH_REGS, REG_SP, REG_ZERO,
                             make_register_file)
from ..memory.hierarchy import (LEVEL_L1, LEVEL_MEM, LEVEL_PENDING,
                                MemoryHierarchy)
from ..memory.main_memory import MainMemory
from ..obs.events import (EV_COMMIT as _EV_COMMIT,
                          EV_DISPATCH as _EV_DISPATCH,
                          EV_FETCH as _EV_FETCH, EV_ISSUE as _EV_ISSUE,
                          EV_PSEUDO_RETIRE as _EV_PSEUDO_RETIRE)
from ..runahead.base import NoRunahead, RunaheadController
from ..runahead.checkpoint import Checkpoint
from ..runahead.runahead_cache import RunaheadCache
from .clock import run_core
from .config import CoreConfig
from .functional_units import FunctionalUnitPool
from .issue import (LEVEL_FORWARD, LEVEL_RUNAHEAD, MODE_NORMAL,
                    MODE_RUNAHEAD, _WAIT, IssuePaths, SimulationError,
                    _as_int, _typed_load_value)
from .recovery import RecoveryPaths
from .rob import (DISPATCHED, DONE, ISSUED, NOP_RUN, NopRun, ReorderBuffer,
                  RobEntry)
from .stats import CoreStats, DispatchStalls

_MASK64 = (1 << 64) - 1

# Hot-path opcode/FU constants (module-level binding beats repeated
# enum-class attribute lookups inside the per-cycle loops).
_HALT = Opcode.HALT
_FENCE = Opcode.FENCE
_NOP = Opcode.NOP
_LOAD = Opcode.LOAD
_FLOAD = Opcode.FLOAD
_VSTORE = Opcode.VSTORE
_FU_MEM = FuKind.MEM

_heappush = heapq.heappush
_heappop = heapq.heappop

_RENAME_STALL = {"int": "rename-int", "fp": "rename-fp", "vec": "rename-vec"}

#: The inline fast paths' guards.  A core sets each flag when it is
#: built: True when its ``runahead`` controller (or its branch unit's
#: ``direction`` predictor) keeps every listed hook as the interface
#: defines it, so the inline path does what the hooks would.  Overriding
#: any listed hook sends that path back through the general helper.
HOOK_FLAGS = {
    # Runahead-mode dispatch skips the slice filter.
    "_filter_is_default":
        ("runahead", RunaheadController, ("filter_dispatch",)),
    # A resolved branch skips the resolve hook (``secure`` overrides it).
    "_resolve_hook_is_default":
        ("runahead", RunaheadController, ("on_branch_resolved",)),
    # ``_issue`` issues normal-mode ``load``/``fload`` inline...
    "_load_hooks_are_default":
        ("runahead", RunaheadController,
         ("normal_load_override", "on_normal_load")),
    # ... and runahead-mode ones.
    "_runahead_load_hooks_are_default":
        ("runahead", RunaheadController,
         ("runahead_load_override", "runahead_load_fill",
          "on_runahead_load")),
    # ``_commit`` pseudo-retires non-stores inline.
    "_pseudo_retire_is_default":
        ("runahead", RunaheadController, ("on_pseudo_retire",)),
    # ``_fetch`` predicts conditional branches inline: no speculative
    # history to snapshot or shift.
    "_history_free":
        ("direction", DirectionPredictor, ("snapshot", "spec_update")),
}


class Core(IssuePaths, RecoveryPaths):
    """The simulated processor."""

    def __init__(self, program: Program, memory_image=None,
                 config: Optional[CoreConfig] = None,
                 runahead: Optional[RunaheadController] = None,
                 initial_sp: Optional[int] = None, warm_icache=False,
                 hierarchy: Optional[MemoryHierarchy] = None):
        self.program = program
        self.config = config or CoreConfig.paper()
        if hierarchy is None:
            hierarchy = MemoryHierarchy(self.config.hierarchy)
        elif hierarchy.config != self.config.hierarchy:
            # A multi-core system hands each core a view of the shared
            # hierarchy; its geometry must be the one the core config
            # describes, else latency bookkeeping silently diverges.
            raise ValueError("hierarchy config disagrees with core config")
        self.hierarchy = hierarchy
        if warm_icache:
            # Steady-state assumption for micro-timing experiments: the
            # code is hot (a real attacker's loop would have warmed it).
            self.hierarchy.warm_code_range(
                0, max(program.end_pc, INSTR_BYTES))
        self.memory = MainMemory(memory_image)
        self.branch_unit = BranchUnit(
            direction=make_direction_predictor(self.config.predictor),
            btb=BranchTargetBuffer(self.config.btb_index_bits,
                                   self.config.btb_tag_bits),
            rsb=ReturnStackBuffer(self.config.rsb_entries))
        self.rob = ReorderBuffer(self.config.rob_size)
        # The hot paths read the ROB's deque directly (it is never
        # replaced: clear and squash mutate it in place).
        self._rob = self.rob._entries
        # The ROB and the front-end queue hold records, and a nop run
        # is one record for ``count`` slots: each is full when it holds
        # this many records, its slot capacity less the slots beyond
        # the first of every run it holds.
        self._rob_bound = self.config.rob_size
        self._fetch_bound = self.config.fetch_queue
        self.fus = FunctionalUnitPool(self.config.functional_units)

        self.arch_regs = make_register_file()
        if initial_sp is not None:
            self.arch_regs[REG_SP] = to_unsigned64(initial_sp)
        self.arch_inv = [False] * NUM_ARCH_REGS
        self.rat: List[Optional[RobEntry]] = [None] * NUM_ARCH_REGS
        self._rename_free = {"int": self.config.rename_int,
                             "fp": self.config.rename_fp,
                             "vec": self.config.rename_vec}

        #: Issue-queue occupancy: the ROB entries still ``DISPATCHED``.
        self.iq_count = 0
        # Load/store queues in program order; entries retire from the
        # head and squashes remove a tail.
        self.lq: Deque[RobEntry] = deque()
        self.sq: Deque[RobEntry] = deque()
        # Front-end queue of fetched entries not yet dispatched.
        self.frontend: Deque[RobEntry] = deque()
        self._instructions = program.instructions
        self._n_instructions = len(program.instructions)
        self.fetch_pc = 0
        self.fetch_stall_until = 0
        self.fetch_halted = False
        self._last_inst_line = None
        # The line fetch last hit in L1I, and L1I's ``mutations`` just
        # after that hit (see ``_fetch``).
        self._rehit_line = None
        self._rehit_mutations = 0

        self.cycle = 0
        self.seq = 0
        self.mode = MODE_NORMAL
        self.halted = False
        self.checkpoint: Optional[Checkpoint] = None
        self.runahead = runahead or NoRunahead()
        self.runahead.attach(self)
        hooked = {"runahead": self.runahead,
                  "direction": self.branch_unit.direction}
        for flag, (owner, interface, hooks) in HOOK_FLAGS.items():
            kind = type(hooked[owner])
            setattr(self, flag, all(getattr(kind, hook) is
                                    getattr(interface, hook)
                                    for hook in hooks))
        # Nops travel as runs (NopRun) only while pseudo-retirement
        # runs inline: an overridden ``on_pseudo_retire`` sees each nop.
        self._nop_runs = program.nop_runs() \
            if self._pseudo_retire_is_default else None
        self.runahead_cache = RunaheadCache(self.config.runahead.cache_entries)

        self.stats = CoreStats()
        #: Why dispatch was blocked on idle steps (not part of the stats).
        self.dispatch_stalls = DispatchStalls()
        #: Observability sink (repro.obs.sink) — ``None`` means tracing
        #: is off and every emit site is a single is-None test.  Sinks
        #: observe only; nothing on the result path reads them.
        self.trace = None
        self._completions = []      # heap of (completion, seq, entry)
        #: Heap records whose entry has been squashed (they stay in
        #: ``_completions`` until popped or compacted away).
        self._squashed_completions = 0
        #: Wakeup-driven scheduler: heap of (seq, entry) whose operands
        #: are all available and which have not issued yet.
        self._ready = []
        self._activity = False
        # Transient-window tracking (Fig. 10): the seq of the load whose
        # memory stall opened the current episode, ``self.seq`` when it
        # opened, and the deepest window of the episodes closed so far.
        self._stall_base_seq = None
        self._stall_open_seq = 0
        self._window_max = 0

    # ------------------------------------------------------------------ utils --

    def reg_read(self, reg):
        """Architectural read honouring the zero register and INV bits."""
        if reg == REG_ZERO:
            return 0, False
        return self.arch_regs[reg], self.arch_inv[reg]

    def _mark_done(self, entry):
        """Complete ``entry`` and wake every consumer waiting on it."""
        entry.state = DONE
        consumers = entry.consumers
        if consumers:
            entry.consumers = None
            ready = self._ready
            for consumer in consumers:
                pending = consumer.pending_srcs - 1
                consumer.pending_srcs = pending
                if pending == 0 and not consumer.squashed and \
                        consumer.state == DISPATCHED:
                    _heappush(ready, (consumer.seq, consumer))

    @property
    def transient_window_max(self):
        """Deepest dispatch behind a memory-stalled load: the largest
        ``seq - base`` of an instruction dispatched while a stall
        episode was open.  Seqs only grow, so an episode's depth is the
        seq watermark minus its base (counted only if it dispatched)."""
        base = self._stall_base_seq
        if base is not None and self.seq > self._stall_open_seq:
            return max(self._window_max, self.seq - base)
        return self._window_max

    def _close_stall_episode(self):
        self._window_max = self.transient_window_max
        self._stall_base_seq = None

    # ------------------------------------------------------------------- step --

    def step(self):
        """Advance one cycle.

        Each stage call is gated on a cheap emptiness check here — with
        cycle skipping active most invocations run only one or two
        stages — and the stages assume their guard holds (``_issue``
        has a ready entry, ``_dispatch`` an eligible front-end head,
        ``_fetch`` room in the front-end queue and no stall).
        """
        now = self.cycle
        self._activity = False
        hierarchy = self.hierarchy
        if now >= hierarchy.next_fill:
            hierarchy.apply_completed(now)

        if self.mode == MODE_RUNAHEAD:
            # Runahead ends when the stalling load's data has returned.
            checkpoint = self.checkpoint
            if checkpoint is not None and \
                    now >= checkpoint.stalling_completion:
                self._exit_runahead(now)

        if self._rob:
            self._commit(now)
            if self.halted:
                self.stats.cycles = now + 1
                return
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._complete(now)
        if self._ready:
            # The FU pool is read only by the issue stage: free every
            # slot for this cycle.
            fus = self.fus
            fus.used = fus._zero.copy()
            self._issue(now)
        frontend = self.frontend
        if frontend and frontend[0].ready_cycle <= now:
            self._dispatch(now)
        if not self.fetch_halted and now >= self.fetch_stall_until and \
                len(frontend) < self._fetch_bound:
            self._fetch(now)
        self.cycle = now + 1

    def run(self, max_cycles=5_000_000):
        """Run to HALT (or quiescence/ceiling) on a one-slot clock;
        returns the stats object."""
        run_core(self, max_cycles)
        return self.stats

    def _wake_up(self):
        """After an idle step: ``(event, reason)``.

        ``event`` is the earliest cycle at which anything can change
        other than a blocked front-end head (None if there is none);
        ``reason`` is the structure blocking that head (one of
        :data:`~repro.pipeline.stats.STALL_REASONS`), or None when the
        head is not blocked.
        """
        best = None
        completions = self._completions
        while completions and completions[0][2].squashed:
            _heappop(completions)
            self._squashed_completions -= 1
        if completions:
            best = completions[0][0]
        event = self.hierarchy.next_event()
        if event is not None and (best is None or event < best):
            best = event
        reason = None
        if self.frontend:
            head = self.frontend[0]
            ready_cycle = head.ready_cycle
            if ready_cycle < self.cycle:
                # Dispatch tried this head in the idle step just taken.
                reason = self._stall_reason(head)
            if reason is None and (best is None or ready_cycle < best):
                best = ready_cycle
        if not self.fetch_halted and self.fetch_stall_until >= self.cycle:
            # A fetch stall lifting exactly at the current cycle must still
            # be a wake-up source, else a skip jumps over the resume point.
            resume = self.fetch_stall_until
            if resume <= self.cycle:
                resume = self.cycle + 1
            if best is None or resume < best:
                best = resume
        if self.mode == MODE_RUNAHEAD and self.checkpoint is not None:
            stall = self.checkpoint.stalling_completion
            if best is None or stall < best:
                best = stall
        return best, reason

    def _stall_reason(self, entry):
        """The structure holding back the eligible front-end ``entry``:
        ``_dispatch``'s checks in its order, or None if none fails."""
        instr = entry.instr
        if instr.opcode is _FENCE and (self._rob or
                                       self.mode == MODE_RUNAHEAD):
            return "fence"
        if len(self._rob) >= self._rob_bound:
            return "rob"
        rename = instr.rename_class
        if rename is not None and self._rename_free[rename] <= 0:
            return _RENAME_STALL[rename]
        config = self.config
        if instr.pipe_load and len(self.lq) >= config.lq_size:
            return "lq"
        if instr.pipe_store and len(self.sq) >= config.sq_size:
            return "sq"
        if not instr.immediate and self.iq_count >= config.iq_size:
            return "iq"
        return None

    def _record_stall(self, reason, skipped):
        """Account one idle step blocked by ``reason`` and the
        ``skipped`` stride steps jumped over (each of which would have
        counted a fence stall)."""
        self.dispatch_stalls.record(reason, skipped)
        if reason == "fence":
            self.stats.fence_stalls += skipped

    # ----------------------------------------------------------------- commit --

    def _commit(self, now):
        committed = 0
        width = self.config.width
        rob = self._rob
        # Normal-mode retirement of anything but HALT and stores runs
        # inline, and so does runahead-mode pseudo-retirement of
        # non-stores when the controller keeps the default
        # ``on_pseudo_retire``; the rest goes through _retire.
        inline = self.mode == MODE_NORMAL
        pseudo = not inline and self._pseudo_retire_is_default
        trace = self.trace
        arch_regs = self.arch_regs
        arch_inv = self.arch_inv
        rat = self.rat
        rename_free = self._rename_free
        lq = self.lq
        stats = self.stats
        while committed < width and rob:
            head = rob[0]
            if head.state != DONE:
                if head.state == NOP_RUN:
                    # As many of the head run's nops as width allows.
                    count = head.count
                    take = width - committed
                    if take > count:
                        take = count
                    committed += take
                    if inline:
                        stats.committed += take
                        event = _EV_COMMIT
                    else:
                        # Runs form only under the default
                        # ``on_pseudo_retire`` (``pseudo`` holds).
                        stats.pseudo_retired += take
                        stats.transient_executed += take
                        event = _EV_PSEUDO_RETIRE
                    if trace is not None:
                        for index in range(take):
                            trace.emit(now, event, head.seq + index,
                                       head.pc + index * INSTR_BYTES)
                    if take == count:
                        rob.popleft()
                        self._rob_bound += count - 1
                    else:
                        head.seq += take
                        head.pc += take * INSTR_BYTES
                        head.count = count - take
                        self._rob_bound += take
                    continue
                if self.mode == MODE_NORMAL:
                    # Inline precondition of _maybe_enter_runahead: most
                    # not-done heads are not memory-stalled loads.
                    if head.is_load and head.state == ISSUED and \
                            (head.mem_level == LEVEL_MEM or
                             head.mem_level == LEVEL_PENDING):
                        self._maybe_enter_runahead(head, now)
                        if self.mode == MODE_RUNAHEAD:
                            inline = False
                            pseudo = self._pseudo_retire_is_default
                            # The hooks may have squashed (new alias table).
                            rat = self.rat
                            continue   # head was poisoned; pseudo-retire it
                elif self._poison_stalled_head(head):
                    rat = self.rat
                    continue           # runahead never stalls on misses
                break
            committed += 1
            instr = head.instr
            if inline and not head.is_store and instr.opcode is not _HALT:
                rob.popleft()
                rename = instr.rename_class
                if rename is not None:       # dest is a real register
                    dest = instr.dest
                    arch_regs[dest] = head.value
                    arch_inv[dest] = False
                    rename_free[rename] += 1
                    if rat[dest] is head:
                        rat[dest] = None
                if head.is_load:
                    if lq and lq[0] is head:
                        lq.popleft()
                    # A stall episode ends when its stalling load commits.
                    if self._stall_base_seq is not None:
                        self._close_stall_episode()
                stats.committed += 1
                if trace is not None:
                    trace.emit(now, _EV_COMMIT, head.seq, head.pc)
                continue
            if pseudo and not head.is_store:
                # _retire's runahead branch, inline (HALT too: a
                # pseudo-retired HALT does not halt).
                rob.popleft()
                rename = instr.rename_class
                if rename is not None:
                    dest = instr.dest
                    inv = head.inv
                    arch_regs[dest] = 0 if inv else head.value
                    arch_inv[dest] = inv
                    rename_free[rename] += 1
                    if rat[dest] is head:
                        rat[dest] = None
                if head.is_load and lq and lq[0] is head:
                    lq.popleft()
                stats.pseudo_retired += 1
                stats.transient_executed += 1
                if trace is not None:
                    trace.emit(now, _EV_PSEUDO_RETIRE, head.seq, head.pc)
                continue
            self._retire(head, now)
            if self.halted:
                break
        if committed:
            self._activity = True

    def _retire(self, head, now):
        """Retire the ROB head off the inline path: runahead-mode
        pseudo-retirement (checkpointed state only, never memory), HALT
        and stores."""
        instr = head.instr
        dest = instr.dest
        stats = self.stats
        if self.mode == MODE_RUNAHEAD:
            if head.is_store and head.mem_addr is not None:
                self.runahead_cache.write(head.mem_addr, head.store_value,
                                          inv=head.inv)
            if dest is not None and dest != REG_ZERO:
                self.arch_regs[dest] = head.value if not head.inv else 0
                self.arch_inv[dest] = head.inv
            self.runahead.on_pseudo_retire(self, head)
            stats.pseudo_retired += 1
            stats.transient_executed += 1
            event = _EV_PSEUDO_RETIRE
        else:
            if instr.opcode is _HALT:
                self.halted = True
            elif head.is_store and head.mem_addr is not None:
                if instr.opcode is _VSTORE:
                    lanes = head.store_value
                    self.memory.write_word(head.mem_addr, lanes[0])
                    self.memory.write_word(head.mem_addr + WORD_BYTES,
                                           lanes[1])
                else:
                    self.memory.write_word(head.mem_addr, head.store_value)
                # Write-allocate at commit; latency absorbed by a write
                # buffer.
                self.hierarchy.access_data(head.mem_addr, now)
            if dest is not None and dest != REG_ZERO:
                self.arch_regs[dest] = head.value
                self.arch_inv[dest] = False
            stats.committed += 1
            event = _EV_COMMIT
        self._rob.popleft()
        rename = instr.rename_class
        if rename is not None:
            self._rename_free[rename] += 1
        if dest is not None and self.rat[dest] is head:
            self.rat[dest] = None
        # A load or store still queued is the queue's oldest entry
        # (filtered runahead entries never joined a queue).
        if head.is_load and self.lq and self.lq[0] is head:
            self.lq.popleft()
        if head.is_store and self.sq and self.sq[0] is head:
            self.sq.popleft()
        if self.trace is not None:
            self.trace.emit(now, event, head.seq, head.pc)

    # ---------------------------------------------------------------- complete --

    def _complete(self, now):
        """Complete every entry due by ``now``: mark it done and wake
        its consumers (:meth:`_mark_done`, inline), then resolve it if
        it is a branch.  A correctly predicted conditional branch
        resolves inline; the rest go through :meth:`_resolve_branch`."""
        completions = self._completions
        ready = self._ready
        train = self.mode == MODE_NORMAL or \
            self.config.runahead.train_in_runahead
        while completions and completions[0][0] <= now:
            entry = _heappop(completions)[2]
            if entry.squashed:
                self._squashed_completions -= 1
                continue
            if entry.state != ISSUED:
                continue
            entry.state = DONE
            consumers = entry.consumers
            if consumers:
                entry.consumers = None
                for consumer in consumers:
                    pending = consumer.pending_srcs - 1
                    consumer.pending_srcs = pending
                    if pending == 0 and not consumer.squashed and \
                            consumer.state == DISPATCHED:
                        _heappush(ready, (consumer.seq, consumer))
            self._activity = True
            if not entry.is_branch or entry.resolved:
                continue
            if entry.instr.cond_branch and not entry.inv:
                prediction = entry.prediction
                taken = entry.actual_taken
                if taken == prediction.taken and \
                        (not taken or entry.actual_target == prediction.target):
                    # _resolve_branch and BranchUnit.resolve of a correct
                    # prediction, inline.
                    entry.resolved = True
                    if train:
                        self.branch_unit.direction.update(
                            entry.pc, taken, prediction.meta)
                    if not self._resolve_hook_is_default:
                        self.runahead.on_branch_resolved(self, entry, False)
                    continue
            self._resolve_branch(entry, now)
            if self.halted:
                return
            # A misprediction's squash may have compacted the heap into
            # a new list.
            completions = self._completions

    # ------------------------------------------------------------------- issue --

    def _issue(self, now):
        """Issue from the wakeup-driven ready heap, oldest first.

        Entries land in ``_ready`` exactly once — at dispatch when their
        operands are already available, or when their last producer
        completes (:meth:`_complete`, :meth:`_mark_done`).  Entries that
        lose FU arbitration are deferred and re-queued for the next
        cycle, preserving the seq-order retry semantics of the scan this
        replaced.

        Integer ALU ops, conditional branches and ``fadd``/``fsub``/
        ``fmul``/``fdiv``/``fmov`` (at most two sources each) read their
        operands and claim their unit here.  Every other instruction is
        tested here for INV sources (runahead mode) and then for a free
        unit; ``load`` and ``fload`` then issue through
        :meth:`_issue_load` while the controller keeps the current
        mode's default load hooks, stores through
        :meth:`~repro.pipeline.issue.IssuePaths._issue_store`, and the
        rest through :meth:`~repro.pipeline.issue.IssuePaths._try_issue`.
        """
        ready = self._ready
        issued = 0
        width = self.config.issue_width
        trace = self.trace
        fus = self.fus
        used = fus.used
        counts = fus.counts
        latencies = fus.latencies
        arch_regs = self.arch_regs
        arch_inv = self.arch_inv
        runahead_mode = self.mode == MODE_RUNAHEAD
        loads_inline = self._runahead_load_hooks_are_default \
            if runahead_mode else self._load_hooks_are_default
        deferred = None
        while ready and issued < width:
            record = _heappop(ready)
            entry = record[1]
            if entry.squashed or entry.state != DISPATCHED:
                continue
            instr = entry.instr
            fu = instr.fu
            alu = ALU_EVAL[instr.op]
            if alu is not None or instr.cond_branch:
                n_srcs = instr.n_srcs
                a, a_inv, b, b_inv = 0, False, None, False
                if n_srcs:
                    producer = entry.src_producers[0]
                    if producer is None:
                        reg = instr.srcs[0]      # r0 reads 0, never INV
                        a, a_inv = arch_regs[reg], arch_inv[reg]
                    else:
                        a, a_inv = producer.value, producer.inv
                    if n_srcs > 1:
                        producer = entry.src_producers[1]
                        if producer is None:
                            reg = instr.srcs[1]
                            b, b_inv = arch_regs[reg], arch_inv[reg]
                        else:
                            b, b_inv = producer.value, producer.inv
                if runahead_mode and (a_inv or b_inv):
                    result = self._issue_inv(entry, now)
                elif used[fu] >= counts[fu]:
                    result = False
                else:
                    used[fu] += 1
                    if n_srcs:
                        a = a & _MASK64 if type(a) is int else _as_int(a)
                        if n_srcs > 1:
                            b = b & _MASK64 if type(b) is int \
                                else _as_int(b)
                    if alu is not None:
                        entry.completion = now + latencies[fu]
                        entry.value = alu(a, b, instr.imm)
                    else:
                        taken = BRANCH_EVAL[instr.op](a, b)
                        entry.actual_taken = taken
                        entry.actual_target = instr.target if taken \
                            else entry.pc + INSTR_BYTES
                        entry.completion = now + 1
                        entry.value = None
                    result = True
            else:
                # In runahead mode an INV-source instruction issues as a
                # one-cycle INV move that claims no unit (Mutlu'03), so
                # that test comes first; every path past the unit test
                # below claims a slot of ``fu``.
                inv = False
                if runahead_mode:
                    srcs = instr.srcs
                    for index, producer in enumerate(entry.src_producers):
                        if producer.inv if producer is not None \
                                else arch_inv[srcs[index]]:
                            inv = True
                            break
                if inv:
                    result = self._issue_inv(entry, now)
                elif used[fu] >= counts[fu]:
                    result = False
                elif (evaluate := FLOAT_EVAL[instr.op]) is not None:
                    used[fu] += 1
                    producer = entry.src_producers[0]
                    a = arch_regs[instr.srcs[0]] if producer is None \
                        else producer.value
                    b = None
                    if instr.n_srcs > 1:
                        producer = entry.src_producers[1]
                        b = arch_regs[instr.srcs[1]] if producer is None \
                            else producer.value
                    entry.completion = now + latencies[fu]
                    entry.value = evaluate(a, b)
                    result = True
                elif loads_inline and (instr.opcode is _LOAD or
                                       instr.opcode is _FLOAD):
                    result = self._issue_load(entry, now)
                elif instr.store:
                    result = self._issue_store(entry, now)
                else:
                    result = self._try_issue(entry, now)
            if result is _WAIT:
                continue    # parked on a store's wakeup list
            if result is False:
                if deferred is None:
                    deferred = [record]
                else:
                    deferred.append(record)
                continue
            self.iq_count -= 1
            entry.state = ISSUED
            _heappush(self._completions,
                      (entry.completion, entry.seq, entry))
            issued += 1
            if trace is not None:
                trace.emit(now, _EV_ISSUE, entry.seq, entry.pc)
            if entry.is_store and entry.store_waiters is not None:
                # This store's address is now known: re-queue the loads
                # that were parked behind it.  Their seqs are larger, so
                # they are popped later in this very loop — preserving
                # the same-cycle, seq-ordered retry the scan used to do.
                waiters = entry.store_waiters
                entry.store_waiters = None
                for waiter in waiters:
                    if not waiter.squashed and waiter.state == DISPATCHED:
                        _heappush(ready, (waiter.seq, waiter))
        if issued:
            self.stats.issued += issued
            self._activity = True
        if deferred is not None:
            for record in deferred:
                _heappush(ready, record)

    def _issue_load(self, entry, now):
        """A ``load`` or ``fload`` with the current mode's default load
        hooks, its sources valid and its FU slot free: ``_issue_mem``
        and ``_load_value`` in one, with one store-queue walk for both
        disambiguation (``_blocking_store``) and forwarding
        (``_forward_from_store``)."""
        instr = entry.instr
        producer = entry.src_producers[0]
        base = self.arch_regs[instr.srcs[0]] if producer is None \
            else producer.value
        base = base & _MASK64 if type(base) is int else _as_int(base)
        addr = (base + instr.imm) & _MASK64 & ~(WORD_BYTES - 1)
        seq = entry.seq
        store = None
        for older in self.sq:
            if older.seq >= seq:
                break
            if older.state == DISPATCHED:
                # _wait_on_store, inline.
                if older.store_waiters is None:
                    older.store_waiters = [entry]
                else:
                    older.store_waiters.append(entry)
                return _WAIT
            mem_addr = older.mem_addr
            if mem_addr is not None and (
                    addr == mem_addr or older.instr.opcode is _VSTORE
                    and addr == mem_addr + WORD_BYTES):
                store = older
        self.fus.used[_FU_MEM] += 1
        entry.mem_addr = addr
        if store is not None:
            entry.mem_level = LEVEL_FORWARD
            entry.completion = now + 1
            if store.inv:
                entry.value = 0
                entry.inv = True
            else:
                entry.value = self._forwarded_value(store, addr,
                                                    instr.load_type)
            return True
        if self.mode == MODE_RUNAHEAD:
            latency = self.config.hierarchy.l1d.latency
            cached = self.runahead_cache.read(addr)
            if cached is not None:
                entry.mem_level = LEVEL_RUNAHEAD
                entry.completion = now + latency
                value, inv = cached
                if inv:
                    entry.value = 0
                    entry.inv = True
                else:
                    entry.value = _typed_load_value(instr.load_type, value)
                return True
            result = self.hierarchy.access_data(addr, now, prefetch=True)
            entry.mem_level = result.level
            if result.level == LEVEL_MEM or result.level == LEVEL_PENDING:
                # Mutlu'03: the miss launches the prefetch and the load
                # returns INV without waiting.
                self.stats.runahead_prefetches += 1
                entry.value = 0
                entry.inv = True
                entry.completion = now + latency
                return True
        else:
            result = self.hierarchy.access_data(addr, now)
            entry.mem_level = result.level
        word = self.memory.read_word(addr)
        if instr.opcode is _LOAD:
            entry.value = word & _MASK64 if type(word) is int \
                else _as_int(word)
        else:
            entry.value = float(word)
        entry.completion = now + result.latency
        return True

    # ---------------------------------------------------------------- dispatch --

    def _dispatch(self, now):
        frontend = self.frontend
        dispatched = 0
        config = self.config
        width = config.width
        lq_size = config.lq_size
        sq_size = config.sq_size
        iq_size = config.iq_size
        rob = self._rob
        rob_bound = self._rob_bound
        lq = self.lq
        sq = self.sq
        rat = self.rat
        rename_free = self._rename_free
        stats = self.stats
        trace = self.trace
        runahead_mode = self.mode == MODE_RUNAHEAD
        filtering = runahead_mode and not self._filter_is_default
        while dispatched < width and frontend:
            entry = frontend[0]
            if entry.ready_cycle > now:
                break
            instr = entry.instr
            opcode = instr.opcode

            if opcode is _FENCE and (rob or runahead_mode):
                # A fence waits for all older loads — including, in
                # runahead mode, the stalling load itself, which by
                # definition completes only at exit: runahead cannot
                # pseudo-retire past a serialization point.
                stats.fence_stalls += 1
                break
            if len(rob) >= rob_bound:
                break
            rename = instr.rename_class
            if rename is not None and rename_free[rename] <= 0:
                break
            is_load = instr.pipe_load
            is_store = instr.pipe_store
            if is_load and len(lq) >= lq_size:
                break
            if is_store and len(sq) >= sq_size:
                break
            immediate = instr.immediate
            if not immediate:
                if self.iq_count >= iq_size:
                    break
            elif entry.state == NOP_RUN:
                # As many of the run's nops as width and free ROB slots
                # allow; they extend a run at the ROB tail.
                count = entry.count
                take = width - dispatched
                if take > rob_bound - len(rob):
                    take = rob_bound - len(rob)
                if take > count:
                    take = count
                seq = self.seq + 1
                pc = entry.pc
                self.seq += take
                tail = rob[-1] if rob else None
                if tail is not None and tail.state == NOP_RUN and \
                        tail.seq + tail.count == seq:
                    tail.count += take
                    rob_bound -= take
                else:
                    if take == count:
                        run = entry
                    else:
                        run = NopRun(pc, instr, take, entry.ready_cycle)
                    run.seq = seq
                    rob.append(run)
                    rob_bound -= take - 1
                self._rob_bound = rob_bound
                if take == count:
                    frontend.popleft()
                    self._fetch_bound += count - 1
                else:
                    entry.pc = pc + take * INSTR_BYTES
                    entry.count = count - take
                    self._fetch_bound += take
                dispatched += take
                if trace is not None:
                    for index in range(take):
                        trace.emit(now, _EV_DISPATCH, seq + index,
                                   pc + index * INSTR_BYTES)
                continue

            frontend.popleft()
            self.seq = entry.seq = self.seq + 1
            # Wakeup registration: count in-flight producers and hook
            # this entry onto their wakeup lists.
            pending = 0
            srcs = instr.srcs
            n_srcs = instr.n_srcs
            if n_srcs == 2:
                producers = (rat[srcs[0]], rat[srcs[1]])
            elif n_srcs == 1:
                producers = (rat[srcs[0]],)
            elif n_srcs:
                producers = tuple([rat[src] for src in srcs])
            else:
                producers = ()
            entry.src_producers = producers
            for producer in producers:
                if producer is not None and producer.state != DONE:
                    pending += 1
                    if producer.consumers is None:
                        producer.consumers = [entry]
                    else:
                        producer.consumers.append(entry)
            entry.pending_srcs = pending
            dest = instr.dest
            if rename is not None:           # dest is a real register
                rat[dest] = entry
                rename_free[rename] -= 1
            rob.append(entry)
            dispatched += 1
            if trace is not None:
                trace.emit(now, _EV_DISPATCH, entry.seq, entry.pc)

            if immediate:
                entry.state = DONE
                continue
            if filtering and \
                    not self.runahead.filter_dispatch(self, instr, entry.pc):
                # Precise runahead: outside the stall slice — complete
                # immediately with an INV result, using no backend resources.
                entry.filtered = True
                entry.inv = True
                entry.value = 0
                entry.state = ISSUED
                entry.completion = now + 1
                _heappush(self._completions,
                          (entry.completion, entry.seq, entry))
                stats.filtered_instructions += 1
                continue
            self.iq_count += 1
            if pending == 0:
                _heappush(self._ready, (entry.seq, entry))
            if is_load:
                lq.append(entry)
            if is_store:
                sq.append(entry)
        if dispatched:
            stats.dispatched += dispatched
            self._activity = True

    # ------------------------------------------------------------------- fetch --

    def _fetch(self, now):
        """Fetch up to ``width`` instructions into the front-end queue,
        each as the :class:`RobEntry` that will carry it to retire.

        Instructions after the first in a line cost no access.  A
        re-access of the line last hit in L1I (after a taken branch)
        counts that hit inline while L1I's ``mutations`` are unchanged
        — the line is still resident and most recent in its set, so
        the lookup would hit and its recency update do nothing — and
        the view has no live pending fill for the line.  ``step``
        installed the fills due by ``now`` before fetch, so
        :meth:`MemoryHierarchy.access_inst`'s ``apply_completed`` would
        do nothing either.
        """
        config = self.config
        room = self._fetch_bound - len(self.frontend)
        if room > config.width:
            room = config.width
        ready_cycle = now + config.frontend_depth
        frontend = self.frontend
        instructions = self._instructions
        n_instructions = self._n_instructions
        hierarchy = self.hierarchy
        phys_base = hierarchy.phys_base
        line_mask = hierarchy.line_mask
        l1i = hierarchy.l1i
        last_line = self._last_inst_line
        rehit_line = self._rehit_line
        branch_unit = self.branch_unit
        trace = self.trace
        nop_runs = self._nop_runs
        pc = self.fetch_pc
        fetched = 0
        while fetched < room:
            # Program.fetch and MemoryHierarchy.line_of, inline.
            if pc & (INSTR_BYTES - 1):
                raise ValueError(f"misaligned pc: {pc:#x}")
            index = pc >> PC_SHIFT
            if not 0 <= index < n_instructions:
                self.fetch_halted = True     # ran off the program
                break
            instr = instructions[index]
            line = (pc + phys_base) & line_mask
            if line != last_line:
                if line == rehit_line and \
                        l1i.mutations == self._rehit_mutations and \
                        ((fill := hierarchy._pending.get(line)) is None
                         or fill.dropped):
                    hierarchy.stats.inst_accesses += 1
                    l1i.stats.hits += 1
                else:
                    result = hierarchy.access_inst(pc, now)
                    if result.level != LEVEL_L1:
                        self.fetch_stall_until = result.completion
                        break
                    rehit_line = line
                    self._rehit_mutations = l1i.mutations
                last_line = line
            if instr.opcode is _NOP and nop_runs is not None:
                # One record for the nops from here, cut at fetch room,
                # at the next non-nop and at the end of this L1I line
                # (``-line_mask`` is the line size).
                count = nop_runs[index]
                if count > room - fetched:
                    count = room - fetched
                in_line = (line - line_mask - phys_base - pc) >> PC_SHIFT
                if count > in_line:
                    count = in_line
                frontend.append(NopRun(pc, instr, count, ready_cycle))
                self._fetch_bound -= count - 1
                fetched += count
                if trace is not None:
                    for nop_pc in range(pc, pc + count * INSTR_BYTES,
                                        INSTR_BYTES):
                        trace.emit(now, _EV_FETCH, nop_pc)
                pc += count * INSTR_BYTES
                continue
            prediction = None
            if instr.branch:
                if instr.cond_branch and self._history_free:
                    # BranchUnit.predict of a conditional branch, inline;
                    # the snapshot's RSB half is the RSB's immutable
                    # state (ReturnStackBuffer.snapshot).
                    branch_unit.stats.predictions += 1
                    taken, meta = branch_unit.direction.predict(pc)
                    prediction = Prediction(
                        taken, instr.target if taken else pc + INSTR_BYTES,
                        meta, (None, branch_unit.rsb._state))
                else:
                    prediction = branch_unit.predict(pc, instr)
            frontend.append(RobEntry(pc, instr, prediction, ready_cycle))
            fetched += 1
            if trace is not None:
                trace.emit(now, _EV_FETCH, pc)
            if instr.opcode is _HALT:
                self.fetch_halted = True
                break
            if prediction is not None and prediction.taken:
                pc = prediction.target
                last_line = None
                break
            pc += INSTR_BYTES
        self.fetch_pc = pc
        self._last_inst_line = last_line
        self._rehit_line = rehit_line
        if fetched:
            self.stats.fetched += fetched
            self._activity = True
