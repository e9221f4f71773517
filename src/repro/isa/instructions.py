"""Instruction set definition.

A deliberately small RISC-style ISA that is nonetheless rich enough to
express every gadget in the paper (Figs. 3, 8, 10 and 12):

* integer/floating/vector ALU operations with the Table-1 functional-unit
  classes,
* loads/stores on a byte-addressed memory (8-byte aligned words),
* conditional branches, direct/indirect jumps, and ``call``/``ret`` that go
  through an in-memory stack (so SpectreRSB stack-overwrite and stack-flush
  variants are expressible),
* ``clflush`` (evict a line from the whole hierarchy), ``rdtsc`` (read the
  cycle counter) and ``fence`` (drain serialization), which together form
  the flush+reload timing probe of Fig. 8 lines 17-22.

Instructions are immutable; a :class:`~repro.isa.program.Program` is a list
of them with all branch targets resolved to instruction addresses.

Everything the cycle simulator asks about an instruction every cycle is
decided here, *once*, at decode time: :class:`Opcode` and :class:`FuKind`
are ``IntEnum`` s with contiguous values so they index flat dispatch
tables, and :class:`Instruction` precomputes its classification flags
(``branch``/``load``/``store``/...), functional-unit class, rename class
and load type into plain ``__slots__`` attributes.  The hot path reads
attributes and indexes lists — no properties, no ``enum`` hashing, no
set-membership tests.
"""

from __future__ import annotations

import enum

from .registers import reg_class

INSTR_BYTES = 4
#: pc -> instruction-index shift (INSTR_BYTES is a power of two).
PC_SHIFT = INSTR_BYTES.bit_length() - 1
WORD_BYTES = 8


class FuKind(enum.IntEnum):
    """Functional-unit classes, matching Table 1 of the paper.

    Values are contiguous so unit pools can be flat lists indexed by
    kind; ``label`` carries the Table-1 name for reports.
    """

    def __new__(cls, value, label):
        obj = int.__new__(cls, value)
        obj._value_ = value
        obj.label = label
        return obj

    INT_ALU = (0, "int_alu")
    INT_MUL = (1, "int_mult")
    INT_DIV = (2, "int_div")
    FP_ADD = (3, "fp_add")
    FP_MUL = (4, "fp_mult")
    FP_DIV = (5, "fp_div")
    MEM = (6, "mem_port")
    BRANCH = (7, "branch")
    NONE = (8, "none")


NUM_FU_KINDS = len(FuKind)


class Opcode(enum.IntEnum):
    """Opcodes with contiguous integer values (table-dispatch friendly).

    ``mnemonic`` is the assembly spelling; the integer value is an
    implementation detail and never serialized.
    """

    def __new__(cls, value, mnemonic):
        obj = int.__new__(cls, value)
        obj._value_ = value
        obj.mnemonic = mnemonic
        return obj

    # Integer ALU (1 cycle).
    LI = (0, "li")
    MOV = (1, "mov")
    ADD = (2, "add")
    SUB = (3, "sub")
    AND = (4, "and")
    OR = (5, "or")
    XOR = (6, "xor")
    SLL = (7, "sll")
    SRL = (8, "srl")
    SLT = (9, "slt")
    SLTU = (10, "sltu")
    ADDI = (11, "addi")
    ANDI = (12, "andi")
    ORI = (13, "ori")
    XORI = (14, "xori")
    SLLI = (15, "slli")
    SRLI = (16, "srli")
    SLTI = (17, "slti")
    # Integer multiply (2 cycles) / divide (5 cycles).
    MUL = (18, "mul")
    MULI = (19, "muli")
    DIV = (20, "div")
    REM = (21, "rem")
    # Floating point: add-class (5), mul (10), div (15).
    FADD = (22, "fadd")
    FSUB = (23, "fsub")
    FCVT = (24, "fcvt")
    FMOV = (25, "fmov")
    FMUL = (26, "fmul")
    FDIV = (27, "fdiv")
    # Vector (two 64-bit lanes; mapped onto the fp units).
    VADD = (28, "vadd")
    VMUL = (29, "vmul")
    VSPLAT = (30, "vsplat")
    VEXTRACT = (31, "vextract")
    # Memory.
    LOAD = (32, "load")
    STORE = (33, "store")
    FLOAD = (34, "fload")
    FSTORE = (35, "fstore")
    VLOAD = (36, "vload")
    VSTORE = (37, "vstore")
    CLFLUSH = (38, "clflush")
    # Control flow.
    BEQ = (39, "beq")
    BNE = (40, "bne")
    BLT = (41, "blt")
    BGE = (42, "bge")
    BLTU = (43, "bltu")
    BGEU = (44, "bgeu")
    JMP = (45, "jmp")
    JR = (46, "jr")
    CALL = (47, "call")
    RET = (48, "ret")
    # Misc.
    RDTSC = (49, "rdtsc")
    FENCE = (50, "fence")
    NOP = (51, "nop")
    HALT = (52, "halt")


NUM_OPCODES = len(Opcode)

#: Mnemonic → opcode (assembler front end).
OPCODES_BY_MNEMONIC = {op.mnemonic: op for op in Opcode}

#: Opcodes computed on the integer ALU.
INT_ALU_OPS = frozenset({
    Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SLT, Opcode.SLTU,
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
    Opcode.SRLI, Opcode.SLTI,
})

CONDITIONAL_BRANCHES = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU, Opcode.BGEU,
})

BRANCH_OPS = CONDITIONAL_BRANCHES | {Opcode.JMP, Opcode.JR, Opcode.CALL,
                                     Opcode.RET}

MEM_OPS = frozenset({
    Opcode.LOAD, Opcode.STORE, Opcode.FLOAD, Opcode.FSTORE, Opcode.VLOAD,
    Opcode.VSTORE, Opcode.CLFLUSH,
})

LOAD_OPS = frozenset({Opcode.LOAD, Opcode.FLOAD, Opcode.VLOAD})
STORE_OPS = frozenset({Opcode.STORE, Opcode.FSTORE, Opcode.VSTORE})

_FU_BY_OPCODE = {}
for _op in INT_ALU_OPS:
    _FU_BY_OPCODE[_op] = FuKind.INT_ALU
for _op in (Opcode.MUL, Opcode.MULI):
    _FU_BY_OPCODE[_op] = FuKind.INT_MUL
for _op in (Opcode.DIV, Opcode.REM):
    _FU_BY_OPCODE[_op] = FuKind.INT_DIV
for _op in (Opcode.FADD, Opcode.FSUB, Opcode.FCVT, Opcode.FMOV, Opcode.VADD,
            Opcode.VSPLAT, Opcode.VEXTRACT):
    _FU_BY_OPCODE[_op] = FuKind.FP_ADD
for _op in (Opcode.FMUL, Opcode.VMUL):
    _FU_BY_OPCODE[_op] = FuKind.FP_MUL
for _op in (Opcode.FDIV,):
    _FU_BY_OPCODE[_op] = FuKind.FP_DIV
for _op in MEM_OPS:
    _FU_BY_OPCODE[_op] = FuKind.MEM
for _op in BRANCH_OPS:
    _FU_BY_OPCODE[_op] = FuKind.BRANCH
for _op in (Opcode.RDTSC, Opcode.FENCE, Opcode.NOP, Opcode.HALT):
    _FU_BY_OPCODE[_op] = FuKind.NONE

#: Flat decode tables indexed by integer opcode.
FU_OF = [_FU_BY_OPCODE[op] for op in Opcode]
IS_BRANCH = [op in BRANCH_OPS for op in Opcode]
IS_COND_BRANCH = [op in CONDITIONAL_BRANCHES for op in Opcode]
IS_MEM = [op in MEM_OPS for op in Opcode]
IS_LOAD = [op in LOAD_OPS for op in Opcode]
IS_STORE = [op in STORE_OPS for op in Opcode]
#: What the pipeline treats as a load/store: ``ret`` pops and ``call``
#: pushes the return address through the in-memory stack.
IS_PIPE_LOAD = [op in LOAD_OPS or op is Opcode.RET for op in Opcode]
IS_PIPE_STORE = [op in STORE_OPS or op is Opcode.CALL for op in Opcode]
#: Dispatch-immediate opcodes (complete at dispatch, no backend use).
IS_IMMEDIATE = [op in (Opcode.NOP, Opcode.HALT, Opcode.FENCE)
                for op in Opcode]
#: Value type a load produces ("int" / "float" / "vec"), else None.
LOAD_TYPE = [None] * NUM_OPCODES
LOAD_TYPE[Opcode.LOAD] = "int"
LOAD_TYPE[Opcode.FLOAD] = "float"
LOAD_TYPE[Opcode.VLOAD] = "vec"


class Instruction:
    """One decoded instruction.

    ``dest`` and ``srcs`` are flat register indices (see
    :mod:`repro.isa.registers`); ``imm`` is an integer or float immediate;
    ``target`` is a resolved instruction address for direct control flow.

    Construction precomputes everything the per-cycle pipeline loops ask
    about — classification flags, functional-unit class, rename class of
    the destination — into plain read-only-by-convention attributes, so
    dispatch/issue/commit never pay for a property call or a frozenset
    membership test.  The predicate *methods* (``is_branch()`` & co.)
    are kept as the stable API for code off the hot path.
    """

    __slots__ = ("opcode", "dest", "srcs", "imm", "target",
                 "op", "fu", "branch", "cond_branch", "mem", "load",
                 "store", "pipe_load", "pipe_store", "immediate",
                 "rename_class", "load_type", "n_srcs")

    def __init__(self, opcode, dest=None, srcs=(), imm=None, target=None):
        self.opcode = opcode
        self.dest = dest
        self.srcs = tuple(srcs)
        self.imm = imm
        self.target = target
        # -- decode-time static metadata (the per-cycle fast path) --
        op = int(opcode)
        self.op = op
        self.fu = FU_OF[op]
        self.branch = IS_BRANCH[op]
        self.cond_branch = IS_COND_BRANCH[op]
        self.mem = IS_MEM[op]
        self.load = IS_LOAD[op]
        self.store = IS_STORE[op]
        self.pipe_load = IS_PIPE_LOAD[op]
        self.pipe_store = IS_PIPE_STORE[op]
        self.immediate = IS_IMMEDIATE[op]
        self.load_type = LOAD_TYPE[op]
        self.n_srcs = len(self.srcs)
        if dest is None or dest == 0:        # REG_ZERO writes rename nothing
            self.rename_class = None
        else:
            self.rename_class = reg_class(dest)

    # -- stable predicate API (off the hot path) ------------------------------

    def is_branch(self):
        return self.branch

    def is_conditional_branch(self):
        return self.cond_branch

    def is_load(self):
        return self.load

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        return (self.opcode is other.opcode and self.dest == other.dest and
                self.srcs == other.srcs and self.imm == other.imm and
                self.target == other.target)

    def __hash__(self):
        return hash((self.op, self.dest, self.srcs, self.imm, self.target))

    def __repr__(self):
        return f"Instruction({self})"

    def __str__(self):
        from .registers import reg_name

        parts = [self.opcode.mnemonic]
        operands = []
        if self.dest is not None:
            operands.append(reg_name(self.dest))
        operands.extend(reg_name(src) for src in self.srcs)
        if self.imm is not None:
            operands.append(str(self.imm))
        if self.target is not None:
            operands.append(f"-> {self.target:#x}")
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)


_MASK64 = (1 << 64) - 1


def to_unsigned64(value):
    """Wrap a Python int to an unsigned 64-bit value."""
    return value & _MASK64


def to_signed64(value):
    """Interpret a Python int as a signed 64-bit value."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def _div64(a, b):
    if b == 0:
        return _MASK64
    sa, sb = to_signed64(a), to_signed64(b)
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & _MASK64


def _rem64(a, b):
    if b == 0:
        return a
    sa, sb = to_signed64(a), to_signed64(b)
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return remainder & _MASK64


#: Integer ALU/MUL/DIV dispatch table: ``fn(a, b, imm) -> u64``.
#: Indexed by integer opcode; None marks non-ALU opcodes.
ALU_EVAL = [None] * NUM_OPCODES
ALU_EVAL[Opcode.LI] = lambda a, b, imm: imm & _MASK64
ALU_EVAL[Opcode.MOV] = lambda a, b, imm: a
ALU_EVAL[Opcode.ADD] = lambda a, b, imm: (a + b) & _MASK64
ALU_EVAL[Opcode.ADDI] = lambda a, b, imm: (a + imm) & _MASK64
ALU_EVAL[Opcode.SUB] = lambda a, b, imm: (a - b) & _MASK64
ALU_EVAL[Opcode.AND] = lambda a, b, imm: a & b
ALU_EVAL[Opcode.ANDI] = lambda a, b, imm: a & (imm & _MASK64)
ALU_EVAL[Opcode.OR] = lambda a, b, imm: a | b
ALU_EVAL[Opcode.ORI] = lambda a, b, imm: a | (imm & _MASK64)
ALU_EVAL[Opcode.XOR] = lambda a, b, imm: a ^ b
ALU_EVAL[Opcode.XORI] = lambda a, b, imm: a ^ (imm & _MASK64)
ALU_EVAL[Opcode.SLL] = lambda a, b, imm: (a << (b & 63)) & _MASK64
ALU_EVAL[Opcode.SLLI] = lambda a, b, imm: (a << (imm & 63)) & _MASK64
ALU_EVAL[Opcode.SRL] = lambda a, b, imm: a >> (b & 63)
ALU_EVAL[Opcode.SRLI] = lambda a, b, imm: a >> (imm & 63)
ALU_EVAL[Opcode.SLT] = \
    lambda a, b, imm: 1 if to_signed64(a) < to_signed64(b) else 0
ALU_EVAL[Opcode.SLTI] = lambda a, b, imm: 1 if to_signed64(a) < imm else 0
ALU_EVAL[Opcode.SLTU] = lambda a, b, imm: 1 if a < b else 0
ALU_EVAL[Opcode.MUL] = \
    lambda a, b, imm: (to_signed64(a) * to_signed64(b)) & _MASK64
ALU_EVAL[Opcode.MULI] = lambda a, b, imm: (to_signed64(a) * imm) & _MASK64
ALU_EVAL[Opcode.DIV] = lambda a, b, imm: _div64(a, b)
ALU_EVAL[Opcode.REM] = lambda a, b, imm: _rem64(a, b)


def _fdiv(a, b):
    a, b = float(a), float(b)
    return a / b if b else float("inf")


#: Floating-point dispatch table: ``fn(a, b) -> float`` of the raw source
#: values (``b`` is None for ``fmov``).  Indexed by integer opcode; None
#: marks the rest, ``fcvt`` included: each caller coerces its integer
#: source its own way.
FLOAT_EVAL = [None] * NUM_OPCODES
FLOAT_EVAL[Opcode.FADD] = lambda a, b: float(a) + float(b)
FLOAT_EVAL[Opcode.FSUB] = lambda a, b: float(a) - float(b)
FLOAT_EVAL[Opcode.FMUL] = lambda a, b: float(a) * float(b)
FLOAT_EVAL[Opcode.FDIV] = _fdiv
FLOAT_EVAL[Opcode.FMOV] = lambda a, b: float(a)


def eval_int_alu(opcode, a, b, imm):
    """Evaluate an integer ALU/MUL/DIV opcode.

    ``a`` and ``b`` are unsigned 64-bit source values (``b`` may be None for
    immediate forms).  Returns the unsigned 64-bit result.
    """
    fn = ALU_EVAL[opcode]
    if fn is None:
        raise ValueError(f"not an integer ALU opcode: {opcode!r}")
    return fn(a, b, imm)


#: Conditional-branch dispatch table: ``fn(a, b) -> bool``.
BRANCH_EVAL = [None] * NUM_OPCODES
BRANCH_EVAL[Opcode.BEQ] = lambda a, b: a == b
BRANCH_EVAL[Opcode.BNE] = lambda a, b: a != b
BRANCH_EVAL[Opcode.BLT] = lambda a, b: to_signed64(a) < to_signed64(b)
BRANCH_EVAL[Opcode.BGE] = lambda a, b: to_signed64(a) >= to_signed64(b)
BRANCH_EVAL[Opcode.BLTU] = lambda a, b: a < b
BRANCH_EVAL[Opcode.BGEU] = lambda a, b: a >= b


def eval_branch(opcode, a, b):
    """Evaluate a conditional branch predicate on unsigned 64-bit values."""
    fn = BRANCH_EVAL[opcode]
    if fn is None:
        raise ValueError(f"not a conditional branch: {opcode!r}")
    return fn(a, b)
