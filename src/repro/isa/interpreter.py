"""Functional reference interpreter (golden model).

Executes a :class:`~repro.isa.program.Program` with simple sequential
semantics and no timing.  The out-of-order core, with or without runahead,
must always produce the same *architectural* end state as this
interpreter — the property-based differential tests in
``tests/pipeline/test_differential.py`` assert exactly that.

Timing-dependent results are implementation-defined: ``rdtsc`` here
returns the executed-instruction count, so differential tests exclude it.
``clflush`` and ``fence`` are architectural no-ops.

Execution dispatches through a flat handler table indexed by the integer
opcode (one list index per step instead of a ~25-arm ``elif`` chain),
which matters because differential tests interpret millions of steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .instructions import (ALU_EVAL, FLOAT_EVAL, INSTR_BYTES, NUM_OPCODES,
                           WORD_BYTES, Instruction, Opcode, eval_branch,
                           eval_int_alu, to_signed64, to_unsigned64)
from .program import Program
from .registers import (FP_CLASS, INT_CLASS, NUM_ARCH_REGS, REG_SP, REG_ZERO,
                        VEC_CLASS, make_register_file, reg_class)


class InterpreterError(RuntimeError):
    """Raised on invalid execution (misalignment, runaway programs...)."""


@dataclass
class InterpreterResult:
    """Architectural end state of an interpreted run."""

    registers: List[object]
    memory: Dict[int, object]
    steps: int
    halted: bool
    pc: int
    trace: List[int] = field(default_factory=list)
    #: Data addresses touched, in order (loads, stores, call/ret stack
    #: traffic) — only populated when run with ``record_accesses=True``.
    accesses: List[int] = field(default_factory=list)

    def reg(self, index):
        return self.registers[index]


def _read_word(memory, addr):
    if addr % WORD_BYTES:
        raise InterpreterError(f"misaligned load address: {addr:#x}")
    return memory.get(addr, 0)


def _write_word(memory, addr, value):
    if addr % WORD_BYTES:
        raise InterpreterError(f"misaligned store address: {addr:#x}")
    memory[addr] = value


def _as_int(value):
    if type(value) is int:
        return to_unsigned64(value)
    return to_unsigned64(int(value))


def _as_float(value):
    return float(value)


class Interpreter:
    """Stepwise functional executor; use :func:`run_program` for one-shots."""

    def __init__(self, program: Program, memory_image=None, initial_sp=None,
                 record_accesses=False):
        self.program = program
        self.registers = make_register_file()
        self.memory: Dict[int, object] = {}
        if memory_image is not None:
            self.memory.update(memory_image.initial_words())
        if initial_sp is not None:
            self.registers[REG_SP] = to_unsigned64(initial_sp)
        self.pc = 0
        self.steps = 0
        self.halted = False
        #: Ordered data addresses, or None when recording is off — the
        #: footprint oracle in repro.verify.crosscheck diffs these
        #: against the simulator's cache state to spot transient fills.
        self.accesses: List[int] = [] if record_accesses else None

    # -- register access ------------------------------------------------------

    def read_reg(self, reg):
        if reg == REG_ZERO:
            return 0
        return self.registers[reg]

    def write_reg(self, reg, value):
        if reg == REG_ZERO:
            return
        cls = reg_class(reg)
        if cls == INT_CLASS:
            value = to_unsigned64(int(value))
        elif cls == FP_CLASS:
            value = float(value)
        self.registers[reg] = value

    # -- execution -------------------------------------------------------------

    def step(self):
        """Execute one instruction; returns False once halted/off the end."""
        if self.halted:
            return False
        instr = self.program.fetch(self.pc)
        if instr is None:
            self.halted = True
            return False
        self.steps += 1
        if instr.op == _OP_HALT:
            self.halted = True
            self.pc += INSTR_BYTES
            return False
        self.pc = _HANDLERS[instr.op](self, instr)
        return True

    def run(self, max_steps=1_000_000):
        """Run until halt or ``max_steps``; returns an InterpreterResult."""
        while self.steps < max_steps:
            if not self.step():
                break
        else:
            raise InterpreterError(
                f"program did not halt within {max_steps} steps")
        return InterpreterResult(
            registers=list(self.registers),
            memory=dict(self.memory),
            steps=self.steps,
            halted=self.halted,
            pc=self.pc,
            accesses=self.accesses if self.accesses is not None else [],
        )


# -- opcode handlers (each returns the next pc) --------------------------------

_OP_HALT = int(Opcode.HALT)


def _op_nop(interp, instr):
    return interp.pc + INSTR_BYTES


def _op_rdtsc(interp, instr):
    interp.write_reg(instr.dest, interp.steps)
    return interp.pc + INSTR_BYTES


def _op_load(interp, instr):
    addr = to_unsigned64(interp.read_reg(instr.srcs[0]) + instr.imm)
    if interp.accesses is not None:
        interp.accesses.append(addr)
    interp.write_reg(instr.dest, _as_int(_read_word(interp.memory, addr)))
    return interp.pc + INSTR_BYTES


def _op_fload(interp, instr):
    addr = to_unsigned64(interp.read_reg(instr.srcs[0]) + instr.imm)
    if interp.accesses is not None:
        interp.accesses.append(addr)
    interp.write_reg(instr.dest, _as_float(_read_word(interp.memory, addr)))
    return interp.pc + INSTR_BYTES


def _op_vload(interp, instr):
    addr = to_unsigned64(interp.read_reg(instr.srcs[0]) + instr.imm)
    if interp.accesses is not None:
        interp.accesses.extend((addr, addr + WORD_BYTES))
    lane0 = _as_int(_read_word(interp.memory, addr))
    lane1 = _as_int(_read_word(interp.memory, addr + WORD_BYTES))
    interp.write_reg(instr.dest, (lane0, lane1))
    return interp.pc + INSTR_BYTES


def _op_store(interp, instr):
    value = interp.read_reg(instr.srcs[0])
    addr = to_unsigned64(interp.read_reg(instr.srcs[1]) + instr.imm)
    if interp.accesses is not None:
        interp.accesses.append(addr)
    _write_word(interp.memory, addr, _as_int(value))
    return interp.pc + INSTR_BYTES


def _op_fstore(interp, instr):
    value = interp.read_reg(instr.srcs[0])
    addr = to_unsigned64(interp.read_reg(instr.srcs[1]) + instr.imm)
    if interp.accesses is not None:
        interp.accesses.append(addr)
    _write_word(interp.memory, addr, _as_float(value))
    return interp.pc + INSTR_BYTES


def _op_vstore(interp, instr):
    lanes = interp.read_reg(instr.srcs[0])
    addr = to_unsigned64(interp.read_reg(instr.srcs[1]) + instr.imm)
    if interp.accesses is not None:
        interp.accesses.extend((addr, addr + WORD_BYTES))
    _write_word(interp.memory, addr, _as_int(lanes[0]))
    _write_word(interp.memory, addr + WORD_BYTES, _as_int(lanes[1]))
    return interp.pc + INSTR_BYTES


def _op_fcvt(interp, instr):
    interp.write_reg(instr.dest,
                     float(to_signed64(interp.read_reg(instr.srcs[0]))))
    return interp.pc + INSTR_BYTES


def _op_vadd(interp, instr):
    a = interp.read_reg(instr.srcs[0])
    b = interp.read_reg(instr.srcs[1])
    interp.write_reg(instr.dest, (to_unsigned64(a[0] + b[0]),
                                  to_unsigned64(a[1] + b[1])))
    return interp.pc + INSTR_BYTES


def _op_vmul(interp, instr):
    a = interp.read_reg(instr.srcs[0])
    b = interp.read_reg(instr.srcs[1])
    interp.write_reg(instr.dest, (to_unsigned64(a[0] * b[0]),
                                  to_unsigned64(a[1] * b[1])))
    return interp.pc + INSTR_BYTES


def _op_vsplat(interp, instr):
    value = _as_int(interp.read_reg(instr.srcs[0]))
    interp.write_reg(instr.dest, (value, value))
    return interp.pc + INSTR_BYTES


def _op_vextract(interp, instr):
    lanes = interp.read_reg(instr.srcs[0])
    interp.write_reg(instr.dest, _as_int(lanes[instr.imm & 1]))
    return interp.pc + INSTR_BYTES


def _op_cond_branch(interp, instr):
    a = _as_int(interp.read_reg(instr.srcs[0]))
    b = _as_int(interp.read_reg(instr.srcs[1]))
    if eval_branch(instr.opcode, a, b):
        return instr.target
    return interp.pc + INSTR_BYTES


def _op_jmp(interp, instr):
    return instr.target


def _op_jr(interp, instr):
    return _as_int(interp.read_reg(instr.srcs[0]))


def _op_call(interp, instr):
    sp = to_unsigned64(_as_int(interp.read_reg(REG_SP)) - WORD_BYTES)
    if interp.accesses is not None:
        interp.accesses.append(sp)
    _write_word(interp.memory, sp, interp.pc + INSTR_BYTES)
    interp.write_reg(REG_SP, sp)
    return instr.target


def _op_ret(interp, instr):
    sp = _as_int(interp.read_reg(REG_SP))
    if interp.accesses is not None:
        interp.accesses.append(sp)
    next_pc = _as_int(_read_word(interp.memory, sp))
    interp.write_reg(REG_SP, to_unsigned64(sp + WORD_BYTES))
    return next_pc


def _op_float(interp, instr):
    srcs = instr.srcs
    a = interp.read_reg(srcs[0])
    b = interp.read_reg(srcs[1]) if len(srcs) > 1 else None
    interp.write_reg(instr.dest, FLOAT_EVAL[instr.op](a, b))
    return interp.pc + INSTR_BYTES


def _op_int_alu(interp, instr):
    srcs = instr.srcs
    a = _as_int(interp.read_reg(srcs[0])) if srcs else 0
    b = _as_int(interp.read_reg(srcs[1])) if len(srcs) > 1 else None
    interp.write_reg(instr.dest, ALU_EVAL[instr.op](a, b, instr.imm))
    return interp.pc + INSTR_BYTES


_HANDLERS = [None] * NUM_OPCODES
for _op in Opcode:
    if ALU_EVAL[_op] is not None:
        _HANDLERS[_op] = _op_int_alu
    elif FLOAT_EVAL[_op] is not None:
        _HANDLERS[_op] = _op_float
_HANDLERS[Opcode.NOP] = _op_nop
_HANDLERS[Opcode.FENCE] = _op_nop
_HANDLERS[Opcode.CLFLUSH] = _op_nop
_HANDLERS[Opcode.RDTSC] = _op_rdtsc
_HANDLERS[Opcode.LOAD] = _op_load
_HANDLERS[Opcode.FLOAD] = _op_fload
_HANDLERS[Opcode.VLOAD] = _op_vload
_HANDLERS[Opcode.STORE] = _op_store
_HANDLERS[Opcode.FSTORE] = _op_fstore
_HANDLERS[Opcode.VSTORE] = _op_vstore
_HANDLERS[Opcode.FCVT] = _op_fcvt
_HANDLERS[Opcode.VADD] = _op_vadd
_HANDLERS[Opcode.VMUL] = _op_vmul
_HANDLERS[Opcode.VSPLAT] = _op_vsplat
_HANDLERS[Opcode.VEXTRACT] = _op_vextract
for _op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU,
            Opcode.BGEU):
    _HANDLERS[_op] = _op_cond_branch
_HANDLERS[Opcode.JMP] = _op_jmp
_HANDLERS[Opcode.JR] = _op_jr
_HANDLERS[Opcode.CALL] = _op_call
_HANDLERS[Opcode.RET] = _op_ret


def run_program(program, memory_image=None, initial_sp=None,
                max_steps=1_000_000, record_accesses=False):
    """Interpret a program and return its architectural end state."""
    interp = Interpreter(program, memory_image=memory_image,
                         initial_sp=initial_sp,
                         record_accesses=record_accesses)
    return interp.run(max_steps=max_steps)
