"""The leak checker: architectural walk plus bounded transient windows.

The engine interprets a program concretely (the *architectural walk*,
mirroring :mod:`repro.isa.interpreter`) while tracking taint, cache
warmth and predictor state, and at each point where the pipeline would
execute transiently it forks a bounded *window* and keeps interpreting
under that window's semantics:

**Speculation windows** open at control decisions whose resolution is
delayed by a memory-level miss — a conditional branch with a ``slow``
source, an indirect jump with a trained BTB target that differs from
the actual one, a return whose stack slot disagrees with the RSB.  The
window follows the *not-architecturally-taken* path for at most
``spec_depth`` instructions (the reorder-buffer bound: once the miss
resolves, everything younger is squashed).  Warm-operand branches do
not fork: they resolve within a few cycles, far too fast for a
dependent transmit load to issue, and flagging them would accuse the
simulator of leaks it cannot reproduce.

**Runahead windows** open at every load from a cold line — the Fig. 6
trigger (memory-level miss at the head of the ROB).  The stalled load's
result goes INV and pseudo-execution continues for up to
``runahead_len`` instructions with the pipeline's runahead semantics:
INV propagates through the ALU, INV-source stores are dropped (the
stale-store gadget lives here), clean stores forward through a window-
local buffer (the runahead cache), in-window misses return INV, and an
INV-source branch falls back to its prediction — which the checker
explores in *both* directions, because the attacker trains the
predictor.  A leak found beyond such a predicted branch is attributed
to the ``speculation`` window (branch restrictions suppress it); a leak
on the un-predicted pseudo-execution path is attributed to
``runahead`` — SPECRUN's novel surface.

Defense models mirror :mod:`repro.defense` by name:

========== =========================================================
defense     model
========== =========================================================
original    both windows, nothing suppressed (also precise/vector)
none        runahead disabled — a no-runahead machine (no-runahead)
secure      runahead-window reports quarantined (SL-cache: runahead
            fills never become architecturally visible)
branch-skip speculation suppressed; INV forward conditionals are
            forced to skip their body, INV indirect control stops
            fetch (the restricted controller's two rules)
========== =========================================================

The checker is deliberately *conservative under defenses*: ``secure``
still reports speculation-window leaks it cannot always reproduce
empirically (on the secure machine, runahead entry preempts the normal-
mode wrong path).  The cross-check contract therefore runs one
direction per verdict: a flag under ``original`` must leak in the
simulator; a *clean* verdict under any defense must extract nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import INSTR_BYTES, WORD_BYTES, Opcode
from ..isa.registers import REG_SP
from .machine import (LINE_BYTES, PathState, alu_result, as_int,
                      branch_taken, line_of, mem_addr)
from .report import (WINDOW_RUNAHEAD, WINDOW_SPECULATION, WINDOWS,
                     LeakReport, VerifyResult, merge_reports)
from .taint import AbsValue, cap_chain, clean

#: Defense models, mirroring the controller names in
#: :data:`repro.harness.registry.CONTROLLERS` (validated by test).
DEFENSES = ("none", "no-runahead", "original", "precise", "vector",
            "secure", "branch-skip")

#: Defenses under which the runahead machinery never runs.
_NO_RUNAHEAD = ("none", "no-runahead")


class VerifyError(ValueError):
    """Bad checker configuration (unknown defense/window names...)."""


@dataclass
class VerifyOptions:
    """Exploration bounds (defaults mirror the paper core's geometry)."""

    #: Max instructions per speculation window (the 256-entry ROB).
    spec_depth: int = 256
    #: Max pseudo-executed instructions per runahead window — well
    #: under the real interval (a ~250-cycle memory stall at 4-wide
    #: pseudo-retire), so every flagged leak fits in the actual window.
    runahead_len: int = 512
    #: Architectural walk budget.
    max_arch_steps: int = 250_000
    #: Max predicted-branch forks inside one window (both-direction
    #: exploration of INV branches is exponential without this).
    max_window_forks: int = 6


#: pc -> instruction-index shift (INSTR_BYTES is a power of two).
_PC_SHIFT = INSTR_BYTES.bit_length() - 1


class Checker:
    """One check run over one program.  Use :func:`check_program`."""

    def __init__(self, program, image=None, *,
                 secret_addrs: Sequence[int],
                 initial_sp: Optional[int] = None,
                 defense: Optional[str] = None,
                 windows: Sequence[str] = WINDOWS,
                 options: Optional[VerifyOptions] = None,
                 fork_filter: Optional[Callable[[int], bool]] = None):
        self.program = program
        self.image = image
        if not secret_addrs:
            raise VerifyError("secret_addrs must name at least one "
                              "secret word")
        self.secrets: Dict[int, str] = {}
        for addr in secret_addrs:
            self.secrets[int(addr)] = self._secret_label(int(addr))
        self.initial_sp = initial_sp
        defense = defense or "original"
        if defense not in DEFENSES:
            raise VerifyError(
                f"unknown defense {defense!r}; expected one of "
                f"{', '.join(DEFENSES)}")
        self.defense = defense
        for window in windows:
            if window not in WINDOWS:
                raise VerifyError(
                    f"unknown window {window!r}; expected one of "
                    f"{', '.join(WINDOWS)}")
        self.explore_spec = WINDOW_SPECULATION in windows and \
            defense != "branch-skip"
        self.explore_runahead = WINDOW_RUNAHEAD in windows and \
            defense not in _NO_RUNAHEAD
        self.windows = tuple(w for w in WINDOWS if w in windows)
        self.options = options or VerifyOptions()
        self.fork_filter = fork_filter
        # Predictor state, trained by the architectural walk only.
        self.bhist: Dict[int, bool] = {}
        self.btb: Dict[int, int] = {}
        # Results.
        self.reports: List[LeakReport] = []
        self.suppressed = 0
        self.arch_steps = 0
        self.window_steps = 0
        self.spec_forks = 0
        self.runahead_forks = 0
        self._fork_index = 0

    def _secret_label(self, addr: int) -> str:
        image = self.image
        if image is not None:
            for name, value in getattr(image, "symbols", {}).items():
                if value == addr:
                    return name
        return f"{addr:#x}"

    # -- fork bookkeeping --------------------------------------------------

    def _next_fork(self) -> Tuple[int, bool]:
        """Allocate a deterministic fork ordinal; second element tells
        whether this shard explores it (fork indices are stable across
        any sharding, so merged shard results are byte-identical)."""
        index = self._fork_index
        self._fork_index += 1
        explore = self.fork_filter is None or self.fork_filter(index)
        return index, explore

    # -- architectural walk ------------------------------------------------

    def run(self) -> VerifyResult:
        state = PathState.initial(self.image, self.initial_sp)
        instructions = self.program.instructions
        count = len(instructions)
        limit = self.options.max_arch_steps
        while self.arch_steps < limit:
            pc = state.pc
            if pc & (INSTR_BYTES - 1):
                raise ValueError(f"misaligned pc: {pc:#x}")
            index = pc >> _PC_SHIFT
            if not 0 <= index < count:
                break
            instr = instructions[index]
            self.arch_steps += 1
            opcode = instr.opcode
            if instr.branch:
                if instr.cond_branch:
                    self._arch_cond_branch(state, instr)
                elif opcode is Opcode.JMP:
                    state.pc = instr.target
                elif opcode is Opcode.JR:
                    self._arch_jr(state, instr)
                elif opcode is Opcode.CALL:
                    self._arch_call(state, instr)
                else:
                    self._arch_ret(state, instr)
            elif instr.load:
                self._arch_load(state, instr)
            elif instr.store:
                self._arch_store(state, instr)
            elif opcode is Opcode.CLFLUSH:
                addr = mem_addr(instr, state)
                state.flush(as_int(addr.val))
                state.pc += INSTR_BYTES
            elif opcode is Opcode.HALT:
                break
            elif opcode is Opcode.NOP or opcode is Opcode.FENCE:
                state.pc += INSTR_BYTES
            else:
                value = alu_result(instr, state, self.arch_steps)
                if instr.dest is not None:
                    state.write_reg(instr.dest, value)
                state.pc += INSTR_BYTES
        reports = merge_reports(self.reports)
        return VerifyResult(
            reports=reports, defense=self.defense, windows=self.windows,
            arch_steps=self.arch_steps, window_steps=self.window_steps,
            spec_forks=self.spec_forks, runahead_forks=self.runahead_forks,
            suppressed=self.suppressed)

    def _arch_cond_branch(self, state: PathState, instr) -> None:
        a = state.read_reg(instr.srcs[0])
        b = state.read_reg(instr.srcs[1])
        taken = branch_taken(instr, a, b)
        if self.explore_spec and (a.slow or b.slow):
            # Resolution waits on a memory-level miss: the wrong path
            # runs for the stall.  The attacker trains the predictor, so
            # the non-architectural direction is the reachable one.
            index, explore = self._next_fork()
            self.spec_forks += 1
            if explore:
                wrong = state.fork()
                wrong.pc = (state.pc + INSTR_BYTES) if taken \
                    else instr.target
                self._explore(wrong, mode="spec", fork_pc=state.pc,
                              fork_index=index, crossed=True)
        self.bhist[state.pc] = taken
        state.pc = instr.target if taken else state.pc + INSTR_BYTES
        if instr.dest is not None:
            state.write_reg(instr.dest, clean(0))

    def _arch_jr(self, state: PathState, instr) -> None:
        src = state.read_reg(instr.srcs[0])
        target = as_int(src.val) & ~3
        if self.explore_spec and src.slow:
            predicted = self.btb.get(state.pc)
            if predicted is not None and predicted != target:
                index, explore = self._next_fork()
                self.spec_forks += 1
                if explore:
                    wrong = state.fork()
                    wrong.pc = predicted
                    self._explore(wrong, mode="spec", fork_pc=state.pc,
                                  fork_index=index, crossed=True)
        self.btb[state.pc] = target
        state.pc = target

    def _arch_call(self, state: PathState, instr) -> None:
        sp = state.read_reg(REG_SP)
        new_sp = (as_int(sp.val) - WORD_BYTES) & ~(WORD_BYTES - 1)
        state.write_word(new_sp, clean(state.pc + INSTR_BYTES))
        state.touch(new_sp, self.arch_steps)
        state.write_reg(REG_SP, clean(new_sp))
        state.rsb.append(state.pc + INSTR_BYTES)
        state.pc = instr.target

    def _arch_ret(self, state: PathState, instr) -> None:
        sp = state.read_reg(REG_SP)
        addr = as_int(sp.val) & ~(WORD_BYTES - 1)
        cold = not state.is_warm(addr, self.arch_steps)
        if self.explore_runahead and cold:
            # Fig. 4c: the ret itself is the stalling load — runahead
            # enters with the return target unresolvable.
            index, explore = self._next_fork()
            self.runahead_forks += 1
            if explore:
                self._runahead_window(state, fork_pc=state.pc,
                                      fork_index=index)
        slot = state.read_word(addr)
        target = as_int(slot.val) & ~3
        predicted = state.rsb[-1] if state.rsb else None
        if self.explore_spec and predicted is not None and \
                predicted != target and (slot.slow or cold):
            index, explore = self._next_fork()
            self.spec_forks += 1
            if explore:
                wrong = state.fork()
                wrong.pc = predicted
                self._explore(wrong, mode="spec", fork_pc=state.pc,
                              fork_index=index, crossed=True)
        if state.rsb:
            state.rsb.pop()
        state.touch(addr, self.arch_steps)
        state.write_reg(REG_SP, clean(as_int(sp.val) + WORD_BYTES))
        state.pc = target

    def _arch_load(self, state: PathState, instr) -> None:
        addr_v = mem_addr(instr, state)
        addr = as_int(addr_v.val)
        cold = not state.is_warm(addr, self.arch_steps)
        if self.explore_runahead and cold:
            index, explore = self._next_fork()
            self.runahead_forks += 1
            if explore:
                self._runahead_window(state, fork_pc=state.pc,
                                      fork_index=index)
        value = self._load_word(state, instr, addr, slow=cold)
        state.touch(addr, self.arch_steps)
        if instr.opcode is Opcode.VLOAD:
            state.touch(addr + WORD_BYTES, self.arch_steps)
        if instr.dest is not None:
            state.write_reg(instr.dest, value)
        state.pc += INSTR_BYTES

    def _load_word(self, state: PathState, instr, addr: int,
                   slow: bool) -> AbsValue:
        """Read memory, applying secret taint at the source address."""
        if instr.opcode is Opcode.VLOAD:
            lane0 = state.read_word(addr)
            lane1 = state.read_word(addr + WORD_BYTES)
            taint = lane0.taint | lane1.taint
            chain = cap_chain(lane0.chain + lane1.chain)
            value = AbsValue((as_int(lane0.val), as_int(lane1.val)), taint,
                             False, slow, chain)
            for word in (addr, addr + WORD_BYTES):
                value = self._apply_secret(value, word, state.pc)
            return value
        stored = state.read_word(addr)
        val = stored.val
        if instr.opcode is Opcode.FLOAD:
            val = float(val or 0)
        else:
            val = as_int(val)
        value = AbsValue(val, stored.taint, stored.inv,
                         slow or stored.slow, stored.chain)
        return self._apply_secret(value, addr, state.pc)

    def _apply_secret(self, value: AbsValue, addr: int, pc: int) -> AbsValue:
        label = self.secrets.get(addr)
        if label is None:
            return value
        return AbsValue(value.val, value.taint | {label}, value.inv,
                        value.slow, cap_chain(value.chain + (pc,)))

    def _arch_store(self, state: PathState, instr) -> None:
        addr_v = mem_addr(instr, state)
        addr = as_int(addr_v.val)
        data = state.read_reg(instr.srcs[0])
        if instr.opcode is Opcode.VSTORE:
            lanes = data.val if isinstance(data.val, tuple) \
                else (as_int(data.val), as_int(data.val))
            for off, lane in zip((0, WORD_BYTES), lanes):
                state.write_word(addr + off,
                                 AbsValue(as_int(lane), data.taint, False,
                                          data.slow, data.chain))
                state.touch(addr + off, self.arch_steps)
        else:
            val = float(data.val or 0) if instr.opcode is Opcode.FSTORE \
                else as_int(data.val)
            state.write_word(addr, AbsValue(val, data.taint, False,
                                            data.slow, data.chain))
            state.touch(addr, self.arch_steps)
        state.pc += INSTR_BYTES

    # -- transient windows -------------------------------------------------

    def _runahead_window(self, state: PathState, fork_pc: int,
                         fork_index: int) -> None:
        """Fork pseudo-execution at a stalling load (Fig. 6 entry)."""
        window = state.fork()
        # The stalling load executes first under window semantics: its
        # line is pending for the whole interval, so its result is INV
        # (or, for a ret, its target is unresolvable).
        self._explore(window, mode="runahead", fork_pc=fork_pc,
                      fork_index=fork_index, crossed=False)

    def _explore(self, state: PathState, mode: str, fork_pc: int,
                 fork_index: int, crossed: bool) -> None:
        """Interpret one window path; recurses on INV-branch forks."""
        # Fills do not settle inside a window: warmth is judged at the
        # clock the window opened on (a real fill outlasts the window).
        now = self.arch_steps
        budget = self.options.runahead_len if mode == "runahead" \
            else self.options.spec_depth
        # Predicted-branch fork allowance, shared by every path in this
        # window (per-path budgets compound exponentially).
        forks = {"left": self.options.max_window_forks}
        # Window-local store buffer: addresses written by non-dropped
        # in-window stores are readable even on cold lines (the
        # runahead cache / store-queue forwarding).
        stored = set()
        work = [(state, crossed)]
        instructions = self.program.instructions
        count = len(instructions)
        steps = 0
        while work:
            state, crossed = work.pop()
            while state.steps < budget:
                pc = state.pc
                if pc & (INSTR_BYTES - 1):
                    raise ValueError(f"misaligned pc: {pc:#x}")
                index = pc >> _PC_SHIFT
                if not 0 <= index < count:
                    break
                instr = instructions[index]
                state.steps += 1
                steps += 1
                opcode = instr.opcode
                if instr.branch:
                    if instr.cond_branch:
                        outcome = self._window_cond_branch(
                            state, instr, forks, work)
                        if outcome is None:
                            break
                        crossed = crossed or outcome
                    elif opcode is Opcode.JMP:
                        state.pc = instr.target
                    elif opcode is Opcode.JR:
                        src = state.read_reg(instr.srcs[0])
                        if src.inv:
                            if self.defense == "branch-skip":
                                break   # stop fetch on INV indirect control
                            predicted = self.btb.get(state.pc)
                            if predicted is None:
                                break
                            crossed = True
                            state.pc = predicted
                        else:
                            state.pc = as_int(src.val) & ~3
                    elif opcode is Opcode.CALL:
                        # The return-address store forwards through the
                        # store queue in-window — no cache fill involved.
                        sp = state.read_reg(REG_SP)
                        new_sp = (as_int(sp.val) - WORD_BYTES) & \
                            ~(WORD_BYTES - 1)
                        state.write_word(new_sp,
                                         clean(state.pc + INSTR_BYTES))
                        stored.add(new_sp)
                        state.write_reg(REG_SP, clean(new_sp))
                        state.rsb.append(state.pc + INSTR_BYTES)
                        state.pc = instr.target
                    else:
                        outcome = self._window_ret(
                            state, instr, mode, fork_pc, fork_index,
                            crossed, stored, now)
                        if outcome is None:
                            break
                        crossed = crossed or outcome
                elif instr.load:
                    self._window_load(state, instr, mode, fork_pc,
                                      fork_index, crossed, stored, now)
                elif instr.store:
                    self._window_store(state, instr, stored)
                elif opcode is Opcode.CLFLUSH:
                    addr_v = mem_addr(instr, state)
                    if not addr_v.inv:
                        state.flush(as_int(addr_v.val))
                    state.pc += INSTR_BYTES
                elif opcode is Opcode.HALT:
                    break
                elif opcode is Opcode.NOP or opcode is Opcode.FENCE:
                    state.pc += INSTR_BYTES
                else:
                    value = alu_result(instr, state, state.steps)
                    if instr.dest is not None:
                        state.write_reg(instr.dest, value)
                    state.pc += INSTR_BYTES
        self.window_steps += steps

    def _window_cond_branch(self, state, instr, forks, work):
        """Returns True if a prediction was crossed, None to stop."""
        a = state.read_reg(instr.srcs[0])
        b = state.read_reg(instr.srcs[1])
        if not (a.inv or b.inv):
            taken = branch_taken(instr, a, b)
            state.pc = instr.target if taken else state.pc + INSTR_BYTES
            return False
        # INV-source branch: never resolves inside the window.
        if self.defense == "branch-skip":
            if instr.target > state.pc:
                # Forward conditional: forced to skip its body.
                state.pc = instr.target
                return False
            return None     # backward INV conditional: stop fetch
        # The prediction stands for the whole interval and the attacker
        # trains it — explore both directions.
        pc = state.pc
        if forks["left"] > 0:
            forks["left"] -= 1
            other = state.fork()
            other.steps = state.steps
            other.pc = instr.target
            work.append((other, True))
            state.pc = pc + INSTR_BYTES
            return True
        predicted = self.bhist.get(pc, False)
        state.pc = instr.target if predicted else pc + INSTR_BYTES
        return True

    def _window_ret(self, state, instr, mode, fork_pc, fork_index,
                    crossed, stored, now):
        sp = state.read_reg(REG_SP)
        if sp.inv:
            return None
        addr = as_int(sp.val) & ~(WORD_BYTES - 1)
        self._check_leak(state, sp, instr, mode, fork_pc, fork_index,
                         crossed)
        available = addr in stored or \
            (state.is_warm(addr, now) and line_of(addr) not in state.pending)
        state.write_reg(REG_SP, clean(as_int(sp.val) + WORD_BYTES))
        if available:
            slot = state.read_word(addr)
            target = as_int(slot.val) & ~3
            if state.rsb:
                state.rsb.pop()
            state.pc = target
            return False
        # Unresolvable return: the target is INV — branch restrictions
        # stop fetch; otherwise the RSB prediction stands (Fig. 4c).
        state.pending.add(line_of(addr))
        if self.defense == "branch-skip" or not state.rsb:
            return None
        state.pc = state.rsb.pop()
        return True

    def _window_load(self, state, instr, mode, fork_pc, fork_index,
                     crossed, stored, now):
        addr_v = mem_addr(instr, state)
        if addr_v.inv:
            # INV address: the access is dropped entirely — no fill, no
            # footprint, no leak (the pipeline's _issue_inv path).
            if instr.dest is not None:
                state.write_reg(instr.dest,
                                AbsValue(0, addr_v.taint, True, False,
                                         addr_v.chain))
            state.pc += INSTR_BYTES
            return
        addr = as_int(addr_v.val)
        self._check_leak(state, addr_v, instr, mode, fork_pc, fork_index,
                         crossed)
        available = addr in stored or \
            (state.is_warm(addr, now) and line_of(addr) not in state.pending)
        if available:
            value = self._load_word(state, instr, addr, slow=False)
        else:
            # In-window miss: the fill will not return inside the
            # window; the access still warms the line (prefetch), which
            # is exactly the footprint the leak check just examined.
            state.pending.add(line_of(addr))
            value = AbsValue(0, frozenset(), True, False, ())
        if instr.dest is not None:
            state.write_reg(instr.dest, value)
        state.pc += INSTR_BYTES

    def _window_store(self, state, instr, stored):
        addr_v = mem_addr(instr, state)
        data = state.read_reg(instr.srcs[0])
        if addr_v.inv or data.inv:
            # Dropped: never reaches the runahead cache / store queue.
            # A later load sees the *stale* memory value — the
            # stale-store gadget's enabling semantics.
            state.pc += INSTR_BYTES
            return
        addr = as_int(addr_v.val)
        if instr.opcode is Opcode.VSTORE:
            lanes = data.val if isinstance(data.val, tuple) \
                else (as_int(data.val), as_int(data.val))
            for off, lane in zip((0, WORD_BYTES), lanes):
                state.write_word(addr + off,
                                 AbsValue(as_int(lane), data.taint, False,
                                          False, data.chain))
                stored.add(addr + off)
        else:
            val = float(data.val or 0) if instr.opcode is Opcode.FSTORE \
                else as_int(data.val)
            state.write_word(addr, AbsValue(val, data.taint, False, False,
                                            data.chain))
            stored.add(addr)
        state.pc += INSTR_BYTES

    def _check_leak(self, state, addr_v: AbsValue, instr, mode,
                    fork_pc, fork_index, crossed) -> None:
        if not addr_v.taint:
            return
        window = WINDOW_SPECULATION if (mode == "spec" or crossed) \
            else WINDOW_RUNAHEAD
        if self.defense == "secure" and window == WINDOW_RUNAHEAD:
            # SL-cache quarantine: the fill never becomes visible.
            self.suppressed += 1
            return
        addr = None if addr_v.val is None else as_int(addr_v.val)
        self.reports.append(LeakReport(
            pc=state.pc, window=window,
            taint=tuple(sorted(addr_v.taint)),
            chain=cap_chain(addr_v.chain + (state.pc,)),
            fork_pc=fork_pc, fork_index=fork_index,
            depth=state.steps, addr=addr))


def check_program(program, image=None, *, secret_addrs,
                  initial_sp=None, defense=None, windows=WINDOWS,
                  options=None, fork_filter=None) -> VerifyResult:
    """Statically check one program for transient secret leaks.

    Returns a :class:`~repro.verify.report.VerifyResult` whose
    ``reports`` name every load address that carries secret taint
    inside a speculation or runahead window, under the given defense
    model.  See the module docstring for window and defense semantics.
    """
    checker = Checker(program, image, secret_addrs=secret_addrs,
                      initial_sp=initial_sp, defense=defense,
                      windows=windows, options=options,
                      fork_filter=fork_filter)
    return checker.run()
