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
from typing import Dict, List, Optional, Sequence

from ..harness.registry import CONTROLLERS
from ..isa.instructions import (ALU_EVAL, BRANCH_EVAL, INSTR_BYTES,
                                PC_SHIFT, WORD_BYTES, Opcode)
from ..isa.registers import REG_SP, REG_ZERO
from .machine import (_MASK64, FILL_SETTLE_STEPS, LINE_BYTES, PathState,
                      alu_result, as_int, branch_taken, line_of, mem_addr)
from .report import (WINDOW_RUNAHEAD, WINDOW_SPECULATION, WINDOWS,
                     LeakReport, VerifyResult, merge_reports)
from .taint import AbsValue, cap_chain, clean, combine

#: Defense models: the controller names of
#: :data:`repro.harness.registry.CONTROLLERS`.
DEFENSES = tuple(CONTROLLERS)

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


def _check_bounds(options: VerifyOptions) -> None:
    """Reject a bound that would silently shrink the exploration: a
    zero-length window explores nothing and reports a leaking gadget
    clean."""
    for field, least in (("spec_depth", 1), ("runahead_len", 1),
                         ("max_arch_steps", 1), ("max_window_forks", 0)):
        value = getattr(options, field)
        if type(value) is not int or value < least:
            kind = "a positive int" if least else "an int >= 0"
            raise VerifyError(f"{field} must be {kind}, got {value!r}")


#: Effective address of ``base + imm``: wrapped to 64 bits, word-aligned.
_ADDR_MASK = _MASK64 & ~(WORD_BYTES - 1)
_LINE_MASK = ~(LINE_BYTES - 1)
#: An in-window miss: the value will not arrive before the window ends.
_INV_MISS = AbsValue(0, frozenset(), True, False, ())

# Kinds of the decoded table (see :func:`decode`).
(_ALU1, _ALU2, _CONST, _COND, _LOAD, _NOP, _JMP, _RDTSC, _CLFLUSH, _HALT,
 _OTHER) = range(11)

_KIND_OF = {Opcode.NOP: _NOP, Opcode.FENCE: _NOP, Opcode.JMP: _JMP,
            Opcode.RDTSC: _RDTSC, Opcode.CLFLUSH: _CLFLUSH,
            Opcode.HALT: _HALT}


def decode(program) -> list:
    """Decode a program once into the table both walks index by pc.

    Row ``(kind, fn, a, b, imm, dest, target, instr)``: ``a``/``b`` are
    the source registers (for a load or ``clflush``, ``a`` is the base),
    ``dest`` is None when nothing is written (no dest, or ``r0``), ``fn``
    is the ``ALU_EVAL`` / ``BRANCH_EVAL`` entry.  A source-free integer
    op (``li``) is ``_CONST``, its result precomputed into ``imm``.
    Everything the window walk does not finish inline — ``jr``,
    ``call``/``ret``, stores, fp and vector ops — is ``_OTHER`` and
    steps through ``instr``.
    """
    table = []
    for instr in program.instructions:
        op = instr.op
        srcs = instr.srcs
        a = srcs[0] if srcs else None
        b = srcs[1] if len(srcs) > 1 else None
        dest = None if instr.dest in (None, REG_ZERO) else instr.dest
        fn = ALU_EVAL[op] or BRANCH_EVAL[op]
        imm = instr.imm
        if ALU_EVAL[op] is not None:
            if not srcs:
                kind, imm = _CONST, AbsValue(fn(0, None, imm))
            else:
                kind = _ALU1 if b is None else _ALU2
        elif instr.cond_branch:
            kind = _COND
        elif instr.load:
            kind = _LOAD
        else:
            kind = _KIND_OF.get(instr.opcode, _OTHER)
        table.append((kind, fn, a, b, imm, dest, instr.target, instr))
    return table


class Checker:
    """One check run over one program.  Use :func:`check_program`."""

    def __init__(self, program, image=None, *,
                 secret_addrs: Sequence[int],
                 initial_sp: Optional[int] = None,
                 defense: Optional[str] = None,
                 windows: Sequence[str] = WINDOWS,
                 options: Optional[VerifyOptions] = None):
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
        _check_bounds(self.options)
        self._table = decode(program)
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

    def _next_fork(self) -> int:
        """Allocate a deterministic fork ordinal (the report's
        ``fork_index``, which :func:`merge_reports` orders by)."""
        index = self._fork_index
        self._fork_index += 1
        return index

    # -- architectural walk ------------------------------------------------

    def run(self) -> VerifyResult:
        state = PathState.initial(self.image, self.initial_sp)
        table = self._table
        count = len(table)
        limit = self.options.max_arch_steps
        while self.arch_steps < limit:
            pc = state.pc
            if pc & (INSTR_BYTES - 1):
                raise ValueError(f"misaligned pc: {pc:#x}")
            index = pc >> PC_SHIFT
            if not 0 <= index < count:
                break
            kind, _, _, _, _, dest, target, instr = table[index]
            self.arch_steps += 1
            if kind == _COND:
                self._arch_cond_branch(state, instr)
            elif kind == _LOAD:
                self._arch_load(state, instr)
            elif kind == _JMP:
                state.pc = target
            elif kind == _NOP:
                state.pc += INSTR_BYTES
            elif kind == _HALT:
                break
            elif kind == _CLFLUSH:
                addr = mem_addr(instr, state)
                state.flush(as_int(addr.val))
                state.pc += INSTR_BYTES
            elif instr.branch:
                opcode = instr.opcode
                if opcode is Opcode.JR:
                    self._arch_jr(state, instr)
                elif opcode is Opcode.CALL:
                    self._arch_call(state, instr)
                else:
                    self._arch_ret(state, instr)
            elif instr.store:
                self._arch_store(state, instr)
            else:
                value = alu_result(instr, state, self.arch_steps)
                if dest is not None:
                    state.regs[dest] = value
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
            index = self._next_fork()
            self.spec_forks += 1
            wrong = state.fork()
            wrong.pc = (state.pc + INSTR_BYTES) if taken else instr.target
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
                index = self._next_fork()
                self.spec_forks += 1
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
            index = self._next_fork()
            self.runahead_forks += 1
            self._runahead_window(state, fork_pc=state.pc, fork_index=index)
        slot = state.read_word(addr)
        target = as_int(slot.val) & ~3
        predicted = state.rsb[-1] if state.rsb else None
        if self.explore_spec and predicted is not None and \
                predicted != target and (slot.slow or cold):
            index = self._next_fork()
            self.spec_forks += 1
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
            index = self._next_fork()
            self.runahead_forks += 1
            self._runahead_window(state, fork_pc=state.pc, fork_index=index)
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
        """Interpret one window path; recurses on INV-branch forks.

        Integer ops, ``rdtsc``, ``nop``/``fence``, ``jmp``, non-INV
        conditionals, loads and ``clflush`` finish inline from the
        decoded table; an integer op with an annotated source (taint,
        INV or slow) takes the :func:`~repro.verify.taint.combine` join.
        Every other step goes through :meth:`_window_step`.
        """
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
        table = self._table
        count = len(table)
        steps = 0
        while work:
            state, crossed = work.pop()
            regs = state.regs
            fills = state.fills
            pc = state.pc
            n = start = state.steps
            while n < budget:
                if pc & (INSTR_BYTES - 1):
                    raise ValueError(f"misaligned pc: {pc:#x}")
                index = pc >> PC_SHIFT
                if not 0 <= index < count:
                    break
                n += 1
                kind, fn, a, b, imm, dest, target, instr = table[index]
                if kind == _ALU2 or kind == _ALU1:
                    x = regs[a]
                    v = x.val
                    v = v & _MASK64 if type(v) is int else as_int(v)
                    if kind == _ALU2:
                        y = regs[b]
                        w = y.val
                        w = w & _MASK64 if type(w) is int else as_int(w)
                        val = fn(v, w, imm)
                        if x.taint or x.inv or x.slow or \
                                y.taint or y.inv or y.slow:
                            value = combine(val, (x, y), pc)
                        else:
                            value = AbsValue(val)
                    else:
                        val = fn(v, None, imm)
                        if x.taint or x.inv or x.slow:
                            value = combine(val, (x,), pc)
                        else:
                            value = AbsValue(val)
                    if dest is not None:
                        regs[dest] = value
                    pc += INSTR_BYTES
                elif kind == _CONST:
                    if dest is not None:
                        regs[dest] = imm
                    pc += INSTR_BYTES
                elif kind == _COND and not (regs[a].inv or regs[b].inv):
                    v = regs[a].val
                    w = regs[b].val
                    if fn(v & _MASK64 if type(v) is int else as_int(v),
                          w & _MASK64 if type(w) is int else as_int(w)):
                        pc = target
                    else:
                        pc += INSTR_BYTES
                elif kind == _LOAD:
                    base = regs[a]
                    if base.inv:
                        # INV address: the access is dropped entirely —
                        # no fill, no footprint, no leak (the pipeline's
                        # _issue_inv path).
                        value = AbsValue(0, base.taint, True, False,
                                         base.chain)
                    else:
                        addr = (as_int(base.val) + imm) & _ADDR_MASK
                        state.pc = pc
                        if base.taint:
                            state.steps = n
                            self._check_leak(
                                state, AbsValue(addr, base.taint, False,
                                                base.slow, base.chain),
                                instr, mode, fork_pc, fork_index, crossed)
                        line = addr & _LINE_MASK
                        started = fills.get(line)
                        if addr in stored or (
                                started is not None
                                and now - started >= FILL_SETTLE_STEPS
                                and line not in state.pending):
                            value = self._load_word(state, instr, addr,
                                                    False)
                        else:
                            # In-window miss: the fill will not return
                            # inside the window; the access still warms
                            # the line (prefetch), which is exactly the
                            # footprint the leak check just examined.
                            state.pending.add(line)
                            value = _INV_MISS
                    if dest is not None:
                        regs[dest] = value
                    pc += INSTR_BYTES
                elif kind == _NOP:
                    pc += INSTR_BYTES
                elif kind == _JMP:
                    pc = target
                elif kind == _RDTSC:
                    if dest is not None:
                        regs[dest] = AbsValue(n)
                    pc += INSTR_BYTES
                elif kind == _CLFLUSH:
                    base = regs[a]
                    if not base.inv:
                        fills.pop((as_int(base.val) + imm) & _ADDR_MASK
                                  & _LINE_MASK, None)
                    pc += INSTR_BYTES
                elif kind == _HALT:
                    break
                else:
                    state.pc = pc
                    state.steps = n
                    outcome = self._window_step(
                        state, instr, mode, fork_pc, fork_index, crossed,
                        stored, now, forks, work)
                    pc = state.pc
                    if outcome is None:
                        break
                    crossed = crossed or outcome
            state.pc = pc
            state.steps = n
            steps += n - start
        self.window_steps += steps

    def _window_step(self, state, instr, mode, fork_pc, fork_index,
                     crossed, stored, now, forks, work):
        """One window step the decoded walk does not finish inline.

        Returns None to end the path, else whether a prediction was
        crossed.
        """
        opcode = instr.opcode
        if instr.cond_branch:
            return self._window_cond_branch(state, instr, forks, work)
        if opcode is Opcode.JR:
            src = state.read_reg(instr.srcs[0])
            if not src.inv:
                state.pc = as_int(src.val) & ~3
                return False
            if self.defense == "branch-skip":
                return None     # stop fetch on INV indirect control
            predicted = self.btb.get(state.pc)
            if predicted is None:
                return None
            state.pc = predicted
            return True
        if opcode is Opcode.CALL:
            # The return-address store forwards through the store queue
            # in-window — no cache fill involved.
            sp = state.read_reg(REG_SP)
            new_sp = (as_int(sp.val) - WORD_BYTES) & ~(WORD_BYTES - 1)
            state.write_word(new_sp, clean(state.pc + INSTR_BYTES))
            stored.add(new_sp)
            state.write_reg(REG_SP, clean(new_sp))
            state.rsb.append(state.pc + INSTR_BYTES)
            state.pc = instr.target
            return False
        if opcode is Opcode.RET:
            return self._window_ret(state, instr, mode, fork_pc,
                                    fork_index, crossed, stored, now)
        if instr.store:
            self._window_store(state, instr, stored)
        else:
            value = alu_result(instr, state, state.steps)
            if instr.dest is not None:
                state.write_reg(instr.dest, value)
            state.pc += INSTR_BYTES
        return False

    def _window_cond_branch(self, state, instr, forks, work):
        """An INV-source branch: it never resolves inside the window.

        Returns True if a prediction was crossed, None to stop.
        """
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
                  options=None) -> VerifyResult:
    """Statically check one program for transient secret leaks.

    Returns a :class:`~repro.verify.report.VerifyResult` whose
    ``reports`` name every load address that carries secret taint
    inside a speculation or runahead window, under the given defense
    model.  See the module docstring for window and defense semantics.
    """
    checker = Checker(program, image, secret_addrs=secret_addrs,
                      initial_sp=initial_sp, defense=defense,
                      windows=windows, options=options)
    return checker.run()

