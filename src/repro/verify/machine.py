"""Abstract machine state for the leak checker.

A :class:`PathState` is everything one execution path owns: the
register file (of :class:`~repro.verify.taint.AbsValue`), a concrete
memory overlay, the warm-line set standing in for the cache hierarchy,
and the return-stack. Forking a window copies the state, so windows
never perturb the architectural walk — the same isolation the pipeline
gets from its checkpoint/squash machinery, for the price of a dict copy.

The cache model is three-state per line: *cold* (never filled, or
evicted), *pending* (an access started the fill fewer than
:data:`FILL_SETTLE_STEPS` architectural steps ago — the memory latency,
in instruction-count units), and *warm* (fill settled; loads hit).  A
load from a cold or pending line is a memory-level miss: it stalls —
opening a runahead window and making its result ``slow`` — and its
value is unavailable (INV) inside a transient window.  The pending
state matters: a flushed line written by a store (write-allocate) and
read moments later is still a miss — exactly how the rsb-flush gadget
turns a ``ret`` into the stalling load even though the ``call`` just
wrote the line.  ``clflush`` evicts.  The model has no sets, ways, or
inclusion — the cycle simulator owns that fidelity, and the cross-check
harness (:mod:`repro.verify.crosscheck`) keeps the two honest against
each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..isa.instructions import (ALU_EVAL, FLOAT_EVAL, WORD_BYTES, Opcode,
                                eval_branch, to_signed64, to_unsigned64)
from ..isa.registers import NUM_ARCH_REGS, REG_SP, REG_ZERO
from .taint import AbsValue, ZERO, clean, combine

#: Cache-line granularity of the warm/cold model (the hierarchy's line).
LINE_BYTES = 64

#: Architectural steps a fill stays *pending* before the line is warm —
#: the memory latency in instruction-count units.  Any value above the
#: few-instruction flush/store/ret gaps the gadgets use and below the
#: shortest settle sled (the attacks' delay loops run ~1800 steps)
#: reproduces the simulator's hit/miss decisions.
FILL_SETTLE_STEPS = 100


def line_of(addr: int) -> int:
    return addr & ~(LINE_BYTES - 1)


class PathState:
    """Register file, memory overlay, fill map and RSB for one path."""

    __slots__ = ("regs", "mem", "fills", "pending", "rsb", "pc", "steps")

    def __init__(self, regs: List[AbsValue], mem: Dict[int, AbsValue],
                 fills: Dict[int, int], rsb: List[int], pc: int = 0):
        self.regs = regs
        self.mem = mem
        #: line -> architectural step its fill started (see module doc).
        self.fills = fills
        #: Lines whose fill is in flight inside this window — reads stay
        #: INV for the remainder of the window (the stalling line and
        #: every runahead prefetch it shadows).
        self.pending: Set[int] = set()
        self.rsb = rsb
        self.pc = pc
        self.steps = 0

    @classmethod
    def initial(cls, image=None,
                initial_sp: Optional[int] = None) -> "PathState":
        regs = [ZERO] * NUM_ARCH_REGS
        if initial_sp is not None:
            regs[REG_SP] = clean(to_unsigned64(initial_sp))
        mem: Dict[int, AbsValue] = {}
        if image is not None:
            for addr, value in image.initial_words().items():
                mem[addr] = clean(value)
        return cls(regs=regs, mem=mem, fills={}, rsb=[], pc=0)

    def fork(self) -> "PathState":
        """Copy-on-fork snapshot for a transient window."""
        child = PathState(regs=list(self.regs), mem=dict(self.mem),
                          fills=dict(self.fills), rsb=list(self.rsb),
                          pc=self.pc)
        child.pending = set(self.pending)
        return child

    # -- registers ---------------------------------------------------------

    def read_reg(self, reg: int) -> AbsValue:
        if reg == REG_ZERO:
            return ZERO
        return self.regs[reg]

    def write_reg(self, reg: int, value: AbsValue) -> None:
        if reg != REG_ZERO:
            self.regs[reg] = value

    # -- memory ------------------------------------------------------------

    def read_word(self, addr: int) -> AbsValue:
        value = self.mem.get(addr)
        return value if value is not None else ZERO

    def write_word(self, addr: int, value: AbsValue) -> None:
        self.mem[addr] = value

    def is_warm(self, addr: int, now: int) -> bool:
        """Fill settled: a load at arch step ``now`` hits."""
        started = self.fills.get(line_of(addr))
        return started is not None and now - started >= FILL_SETTLE_STEPS

    def touch(self, addr: int, now: int) -> None:
        """Record an access: starts a fill on a cold line (re-touching
        a pending or warm line does not restart its fill)."""
        self.fills.setdefault(line_of(addr), now)

    def flush(self, addr: int) -> None:
        self.fills.pop(line_of(addr), None)


#: Unsigned 64-bit wrap, inlined for the int case of :func:`as_int`.
_MASK64 = (1 << 64) - 1


def as_int(value) -> int:
    if type(value) is int:
        return value & _MASK64
    if isinstance(value, float):
        return to_unsigned64(int(value))
    if isinstance(value, tuple):
        return to_unsigned64(int(value[0]))
    return to_unsigned64(int(value or 0))


def alu_result(instr, state: PathState, step_count: int) -> AbsValue:
    """Evaluate a non-memory, non-branch instruction: the lattice join
    of its sources' annotations (:func:`~repro.verify.taint.combine`)."""
    sources = [state.read_reg(r) for r in instr.srcs]
    fn = ALU_EVAL[instr.op]
    if fn is not None:
        a = as_int(sources[0].val) if sources else 0
        b = as_int(sources[1].val) if len(sources) > 1 else None
        return combine(fn(a, b, instr.imm), sources, state.pc)
    opcode = instr.opcode
    if opcode is Opcode.RDTSC:
        return clean(step_count)
    fn = FLOAT_EVAL[instr.op]
    if fn is not None:
        a = sources[0].val or 0
        b = (sources[1].val or 0) if len(sources) > 1 else None
        return combine(fn(a, b), sources, state.pc)
    if opcode is Opcode.FCVT:
        return combine(float(to_signed64(as_int(sources[0].val))), sources,
                       state.pc)
    if opcode in (Opcode.VADD, Opcode.VMUL):
        a = _as_vec(sources[0].val)
        b = _as_vec(sources[1].val)
        if opcode is Opcode.VADD:
            val = (to_unsigned64(a[0] + b[0]), to_unsigned64(a[1] + b[1]))
        else:
            val = (to_unsigned64(a[0] * b[0]), to_unsigned64(a[1] * b[1]))
        return combine(val, sources, state.pc)
    if opcode is Opcode.VSPLAT:
        lane = as_int(sources[0].val)
        return combine((lane, lane), sources, state.pc)
    if opcode is Opcode.VEXTRACT:
        return combine(_as_vec(sources[0].val)[instr.imm & 1], sources,
                       state.pc)
    # Unreachable from the walks, which step nop/fence/halt themselves.
    return ZERO


def _as_vec(value):
    if isinstance(value, tuple):
        return value
    return (as_int(value), as_int(value))


def mem_addr(instr, state: PathState) -> AbsValue:
    """Effective address value (base + imm) with annotations joined."""
    if instr.store:
        base = state.read_reg(instr.srcs[1])
    else:
        base = state.read_reg(instr.srcs[0])
    val = to_unsigned64(as_int(base.val) + instr.imm) & ~(WORD_BYTES - 1)
    return AbsValue(val, base.taint, base.inv, base.slow, base.chain)


def branch_taken(instr, a: AbsValue, b: AbsValue) -> bool:
    return eval_branch(instr.opcode, as_int(a.val), as_int(b.val))
