"""The window walk's inline steps agree with the general lattice join.

The checker's window walk (``Checker._explore``) finishes an integer
ALU step inline when no source carries an annotation, and hands every
annotated step to :func:`repro.verify.machine.alu_result`, the general
join.  These tests run each integer opcode through the walk on random
operands — including values at and above 2**63 and float or vector
register contents that reach ``as_int`` — and require the walk's result
to equal ``alu_result``'s, field by field.  A shortcut that drops an
annotation (taint, INV, slow or the provenance chain) fails here.
"""

from __future__ import annotations

import random

import pytest

from repro.isa.assembler import assemble
from repro.isa.instructions import ALU_EVAL, Instruction, Opcode
from repro.isa.memory_image import MemoryImage
from repro.isa.program import Program
from repro.verify import check_program
from repro.verify.engine import Checker
from repro.verify.machine import PathState, alu_result
from repro.verify.taint import AbsValue, cap_chain, combine

NO_SRC = {Opcode.LI}
TWO_SRC = {Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
           Opcode.SLL, Opcode.SRL, Opcode.SLT, Opcode.SLTU, Opcode.MUL,
           Opcode.DIV, Opcode.REM}
INT_OPS = [op for op in Opcode if ALU_EVAL[op] is not None]

#: The ALU instruction sits at this pc (after one nop), so a join that
#: used the wrong pc shows up in the chain.
OP_PC = 4
DEST, SRC_A, SRC_B = 3, 1, 2


def _n_srcs(op):
    if op in NO_SRC:
        return 0
    return 2 if op in TWO_SRC else 1


def _random_val(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randrange(1 << 63, 1 << 64)
    if kind == 1:
        return rng.randrange(0, 1 << 63)
    if kind == 2:
        return rng.randrange(0, 64)
    if kind == 3:
        return rng.uniform(-1e18, 1.5e19)
    if kind == 4:
        return (rng.randrange(1 << 64), rng.randrange(1 << 64))
    return 0


def _fields(value):
    return (value.val, value.taint, value.inv, value.slow, value.chain)


def _walk_one(instr, sources):
    """Run ``instr`` through the window walk; return its dest value."""
    program = Program([Instruction(Opcode.NOP), instr,
                       Instruction(Opcode.HALT)])
    checker = Checker(program, None, secret_addrs=(0x1000,))
    state = PathState.initial()
    for reg, value in zip((SRC_A, SRC_B), sources):
        state.regs[reg] = value
    state.pc = OP_PC
    checker._explore(state, mode="runahead", fork_pc=0, fork_index=0,
                     crossed=False)
    assert state.pc == OP_PC + 4, "walk did not stop at the halt"
    return state.regs[DEST]


def _general(instr, sources):
    state = PathState.initial()
    for reg, value in zip((SRC_A, SRC_B), sources):
        state.regs[reg] = value
    state.pc = OP_PC
    return alu_result(instr, state, 0)


def _instr(op, rng):
    srcs = (SRC_A, SRC_B)[:_n_srcs(op)]
    return Instruction(op, dest=DEST, srcs=srcs,
                       imm=rng.randrange(-(1 << 40), 1 << 40))


def test_every_int_opcode_is_classified():
    assert set(INT_OPS) >= NO_SRC | TWO_SRC
    for op in INT_OPS:
        source = {0: f"{op.mnemonic} r3, 5",
                  1: f"{op.mnemonic} r3, r1" + (", 5" if op is not
                                                Opcode.MOV else ""),
                  2: f"{op.mnemonic} r3, r1, r2"}[_n_srcs(op)]
        assert assemble(source).instructions[0].srcs == \
            (SRC_A, SRC_B)[:_n_srcs(op)]


@pytest.mark.parametrize("op", INT_OPS, ids=lambda op: op.mnemonic)
def test_unannotated_inline_step_matches_alu_result(op):
    rng = random.Random(int(op))
    for _ in range(200):
        instr = _instr(op, rng)
        sources = [AbsValue(_random_val(rng)) for _ in range(2)]
        got = _walk_one(instr, sources)
        want = _general(instr, sources)
        assert _fields(got) == _fields(want), (instr, sources)
        assert not (got.taint or got.inv or got.slow or got.chain)


def _annotations(rng):
    """Source annotations: each single bit alone, then random mixes."""
    fixed = [dict(taint=frozenset({"k"}), chain=(40, 44)),
             dict(inv=True), dict(slow=True)]
    for ann in fixed:
        yield ann
    for _ in range(40):
        taint = frozenset(rng.sample(["k", "s", "t"], rng.randrange(3)))
        chain = tuple(rng.randrange(0, 400, 4)
                      for _ in range(rng.randrange(12))) if taint else ()
        yield dict(taint=taint, inv=rng.random() < 0.3,
                   slow=rng.random() < 0.3, chain=chain)


@pytest.mark.parametrize("op", [op for op in INT_OPS if _n_srcs(op)],
                         ids=lambda op: op.mnemonic)
def test_annotated_operands_take_the_join(op):
    rng = random.Random(1000 + int(op))
    for ann in _annotations(rng):
        instr = _instr(op, rng)
        annotated = AbsValue(_random_val(rng), **ann)
        for sources in ([annotated, AbsValue(_random_val(rng))],
                        [AbsValue(_random_val(rng)), annotated]):
            n = _n_srcs(op)
            read = sources[:n]
            if not any(s.taint or s.inv or s.slow for s in read):
                continue
            got = _walk_one(instr, sources)
            want = _general(instr, sources)
            assert _fields(got) == _fields(want), (instr, sources, ann)
            # The join itself: unions, and the chain grows by the pc.
            assert _fields(got) == _fields(combine(want.val, read, OP_PC))
            assert got.taint == frozenset().union(*(s.taint for s in read))
            assert got.inv == any(s.inv for s in read)
            assert got.slow == any(s.slow for s in read)
            tainted = tuple(pc for s in read if s.taint for pc in s.chain)
            assert got.chain == (cap_chain(tainted + (OP_PC,))
                                 if got.taint else ())


INV_BRANCH_SOURCE = """
    li   r5, @secret_word
    load r6, r5, 0          # warm the secret's line (arch read)
    li   r7, @probe
    li   r1, @cold
    clflush r1, 0
    fence
    .repeat 120, nop
    load r2, r1, 0          # stalling load: INV in the window
    li   r3, 3
loop:
    addi r3, r3, -1
    bne  r2, r0, skip       # INV conditional: both directions explored
    slli r8, r6, 6
    add  r8, r8, r7
    load r9, r8, 0          # secret-dependent address
skip:
    bne  r3, r0, loop
    halt
"""

#: defense -> (window_steps, spec_forks, runahead_forks, reports),
#: recorded with the instruction-object walk the decoded table replaced.
INV_BRANCH_PINNED = {
    "original": (290, 3, 5, 2),
    "secure": (290, 3, 5, 1),
    "branch-skip": (176, 0, 5, 1),
    "no-runahead": (24, 3, 0, 1),
}


@pytest.mark.parametrize("defense", sorted(INV_BRANCH_PINNED))
def test_inv_conditional_program_keeps_its_exploration(defense):
    image = MemoryImage()
    image.alloc_array("cold", 2)
    secret = image.alloc("secret_word", 8, align=64)
    image.write_word(secret, 5)
    image.alloc("probe", 16 * 64)
    program = assemble(INV_BRANCH_SOURCE, memory_image=image)
    result = check_program(program, image, secret_addrs=(secret,),
                           defense=defense)
    assert result.arch_steps == 147
    assert (result.window_steps, result.spec_forks, result.runahead_forks,
            len(result.reports)) == INV_BRANCH_PINNED[defense]
    for report in result.reports:
        assert report.chain == (4, 520, 524, 528)
