"""Unit tests for the two-pass assembler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (AssemblyError, MemoryImage, Opcode, assemble, int_reg,
                       REG_SP)
from repro.isa.assembler import labels


class TestBasicParsing:
    def test_empty_source(self):
        program = assemble("")
        assert len(program) == 0

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("""
        # a comment

            nop   # trailing comment
        """)
        assert len(program) == 1
        assert program.instructions[0].opcode is Opcode.NOP

    def test_li_immediate_forms(self):
        program = assemble("""
            li r1, 42
            li r2, 0x10
            li r3, -7
        """)
        assert [i.imm for i in program] == [42, 16, -7]

    def test_three_reg_op(self):
        program = assemble("add r3, r1, r2")
        instr = program.instructions[0]
        assert instr.opcode is Opcode.ADD
        assert instr.dest == int_reg(3)
        assert instr.srcs == (int_reg(1), int_reg(2))

    def test_load_offset_defaults_to_zero(self):
        program = assemble("load r1, r2")
        assert program.instructions[0].imm == 0

    def test_store_has_no_dest(self):
        program = assemble("store r1, r2, 8")
        instr = program.instructions[0]
        assert instr.dest is None
        assert instr.srcs == (int_reg(1), int_reg(2))
        assert instr.imm == 8

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frobnicate r1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError, match="expects"):
            assemble("add r1, r2")


class TestLabels:
    def test_forward_and_backward_targets(self):
        program = assemble("""
        top:
            beq r1, r0, done
            jmp top
        done:
            halt
        """)
        beq, jmp, halt = program.instructions
        assert beq.target == program.labels["done"] == 8
        assert jmp.target == program.labels["top"] == 0
        assert halt.opcode is Opcode.HALT

    def test_label_on_same_line_as_instruction(self):
        program = assemble("start: nop")
        assert program.labels["start"] == 0
        assert len(program) == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble("a:\na:\nnop")

    def test_unknown_label_rejected(self):
        with pytest.raises(AssemblyError, match="unknown label"):
            assemble("jmp nowhere")


class TestSymbols:
    def test_symbol_resolution(self):
        image = MemoryImage()
        addr = image.alloc_array("array1", 4)
        program = assemble("li r1, @array1", memory_image=image)
        assert program.instructions[0].imm == addr

    def test_symbol_with_offset(self):
        image = MemoryImage()
        addr = image.alloc_array("buf", 4)
        program = assemble("li r1, @buf+16", memory_image=image)
        assert program.instructions[0].imm == addr + 16

    def test_unknown_symbol(self):
        with pytest.raises(AssemblyError, match="unknown symbol"):
            assemble("li r1, @missing", symbols={})

    def test_symbols_and_image_are_exclusive(self):
        with pytest.raises(ValueError):
            assemble("nop", symbols={}, memory_image=MemoryImage())


class TestDirectives:
    def test_repeat_expands(self):
        program = assemble(".repeat 5, nop\nhalt")
        assert len(program) == 6
        assert all(i.opcode is Opcode.NOP for i in program.instructions[:5])

    def test_repeat_zero(self):
        program = assemble(".repeat 0, nop\nhalt")
        assert len(program) == 1

    def test_repeat_preserves_label_addresses(self):
        program = assemble("""
            .repeat 3, nop
        after:
            halt
        """)
        assert program.labels["after"] == 12

    def test_bad_repeat_count(self):
        with pytest.raises(AssemblyError):
            assemble(".repeat x, nop")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError, match="unknown directive"):
            assemble(".align 8")


class TestRepeatParsesOnce:
    """``.repeat N, X`` parses X once; the Program equals N explicit
    lines, labels included."""

    FORMS = ("nop", "addi r1, r1, 1", "load r2, r1, 8", "li r3, @buf",
             "bne r1, r0, top", "jmp end", "call top", "ret",
             "fadd f1, f2, f3", "clflush r1")

    @given(st.sampled_from(FORMS), st.integers(min_value=0, max_value=300),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_repeat_equals_explicit_lines(self, form, count, pad_before,
                                          pad_after):
        before = "    li r1, 8\n" * pad_before
        after = "    addi r2, r2, 1\n" * pad_after
        repeated = (f"top:\n{before}    .repeat {count}, {form}\n"
                    f"mid:\n{after}end: halt\n")
        explicit = (f"top:\n{before}" + f"    {form}\n" * count +
                    f"mid:\n{after}end: halt\n")
        symbols = {"buf": 0x4000}
        got = assemble(repeated, symbols=symbols)
        want = assemble(explicit, symbols=symbols)
        assert got.instructions == want.instructions
        assert got.labels == want.labels
        assert labels(repeated) == got.labels
        assert got.labels["mid"] == (pad_before + count) * 4

    def test_repeat_slots_share_one_instruction(self):
        program = assemble(".repeat 4, addi r1, r1, 1\nhalt")
        first = program.instructions[0]
        assert all(instr is first for instr in program.instructions[:4])

    def test_repeat_zero_never_parses_its_body(self):
        program = assemble(".repeat 0, bogus r99\nhalt")
        assert [i.opcode for i in program] == [Opcode.HALT]

    def test_repeat_body_error_carries_line_number(self):
        with pytest.raises(AssemblyError, match="line 2: unknown mnemonic"):
            assemble("nop\n.repeat 3, bogus")


class TestLabelsOnly:
    def test_matches_assemble_without_symbols(self):
        source = "jmp main\nf: ret\nmain: li r1, @later\n.repeat 7, nop\nx: halt"
        assert labels(source) == assemble(
            source, symbols={"later": 0}).labels
        assert labels(source) == {"f": 4, "main": 8, "x": 40}

    def test_reports_pass_one_errors(self):
        with pytest.raises(AssemblyError, match="duplicate label"):
            labels("a: nop\na: nop")


class TestCallRet:
    def test_call_and_ret_use_stack_pointer(self):
        program = assemble("call f\nf: ret")
        call, ret = program.instructions
        assert call.dest == REG_SP
        assert call.srcs == (REG_SP,)
        assert call.target == 4
        assert ret.dest == REG_SP
        assert ret.srcs == (REG_SP,)


class TestScopeMetadata:
    def test_forward_branch_scope_is_fallthrough_body(self):
        program = assemble("""
            bge r1, r2, end
            nop
            nop
        end:
            halt
        """)
        assert program.scope_end(0) == program.labels["end"]

    def test_backward_branch_has_no_scope(self):
        program = assemble("""
        top:
            nop
            bne r1, r0, top
            halt
        """)
        assert program.scope_end(4) is None

    def test_non_branch_has_no_scope(self):
        program = assemble("nop")
        assert program.scope_end(0) is None
