"""Architectural register file layout.

The ISA exposes three register classes, mirroring Table 1 of the paper
(integer, floating point, and xmm/vector):

* ``r0`` .. ``r31`` — 64-bit integer registers.  ``r0`` is hardwired to
  zero (reads return 0, writes are discarded).  By software convention
  ``r29`` is the stack pointer used by ``call``/``ret``.
* ``f0`` .. ``f15`` — 64-bit floating-point registers.
* ``x0`` .. ``x7``  — 128-bit vector registers, modeled as two 64-bit lanes.

Internally every register is a small integer index into one flat space so
the pipeline's rename table is a plain list.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 16
NUM_VEC_REGS = 8

INT_BASE = 0
FP_BASE = NUM_INT_REGS
VEC_BASE = NUM_INT_REGS + NUM_FP_REGS
NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS + NUM_VEC_REGS

#: Index of the hardwired-zero integer register.
REG_ZERO = 0
#: Software-convention stack pointer (used implicitly by call/ret).
REG_SP = 29
#: Software-convention link register (available to hand-written code).
REG_LINK = 30

INT_CLASS = "int"
FP_CLASS = "fp"
VEC_CLASS = "vec"


def int_reg(n):
    """Return the flat index of integer register ``r<n>``."""
    if not 0 <= n < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {n}")
    return INT_BASE + n


def reg_class(reg):
    """Return the register class ("int", "fp" or "vec") of a flat index."""
    if INT_BASE <= reg < FP_BASE:
        return INT_CLASS
    if FP_BASE <= reg < VEC_BASE:
        return FP_CLASS
    if VEC_BASE <= reg < NUM_ARCH_REGS:
        return VEC_CLASS
    raise ValueError(f"register index out of range: {reg}")


def reg_name(reg):
    """Return the assembly name of a flat register index."""
    cls = reg_class(reg)
    if cls == INT_CLASS:
        return f"r{reg - INT_BASE}"
    if cls == FP_CLASS:
        return f"f{reg - FP_BASE}"
    return f"x{reg - VEC_BASE}"


#: Every register name -> flat index, the one table ``parse_reg`` reads.
_REG_INDEX = {**{f"r{n}": INT_BASE + n for n in range(NUM_INT_REGS)},
              **{f"f{n}": FP_BASE + n for n in range(NUM_FP_REGS)},
              **{f"x{n}": VEC_BASE + n for n in range(NUM_VEC_REGS)},
              "sp": REG_SP, "lr": REG_LINK}


def parse_reg(name):
    """Parse an assembly register name ("r5", "f3", "x1", "sp") to an index."""
    index = _REG_INDEX.get(name)
    if index is None:
        index = _REG_INDEX.get(name.strip().lower())
        if index is None:
            raise ValueError(f"not a register name: {name!r}")
    return index


def zero_value(reg):
    """Return the reset value appropriate for a register's class."""
    cls = reg_class(reg)
    if cls == INT_CLASS:
        return 0
    if cls == FP_CLASS:
        return 0.0
    return (0, 0)


def make_register_file():
    """Return a list holding the reset value of every architectural register."""
    return [zero_value(reg) for reg in range(NUM_ARCH_REGS)]
