"""Unit tests for the functional reference interpreter."""

import pytest

from repro.isa import (MemoryImage, assemble, int_reg, parse_reg,
                       run_program, to_unsigned64)
from repro.isa.interpreter import InterpreterError


def run_source(source, image=None, **kwargs):
    program = assemble(source, memory_image=image)
    return run_program(program, memory_image=image, **kwargs)


class TestArithmetic:
    def test_li_add(self):
        result = run_source("""
            li r1, 5
            li r2, 7
            add r3, r1, r2
            halt
        """)
        assert result.reg(int_reg(3)) == 12

    def test_sub_wraps_unsigned(self):
        result = run_source("""
            li r1, 0
            li r2, 1
            sub r3, r1, r2
            halt
        """)
        assert result.reg(int_reg(3)) == to_unsigned64(-1)

    def test_signed_comparison(self):
        result = run_source("""
            li r1, -5
            li r2, 3
            slt r3, r1, r2
            sltu r4, r1, r2
            halt
        """)
        assert result.reg(int_reg(3)) == 1   # -5 < 3 signed
        assert result.reg(int_reg(4)) == 0   # huge unsigned vs 3

    def test_mul_div_rem(self):
        result = run_source("""
            li r1, 17
            li r2, 5
            mul r3, r1, r2
            div r4, r1, r2
            rem r5, r1, r2
            halt
        """)
        assert result.reg(int_reg(3)) == 85
        assert result.reg(int_reg(4)) == 3
        assert result.reg(int_reg(5)) == 2

    def test_div_by_zero_saturates(self):
        result = run_source("""
            li r1, 9
            div r2, r1, r0
            rem r3, r1, r0
            halt
        """)
        assert result.reg(int_reg(2)) == to_unsigned64(-1)
        assert result.reg(int_reg(3)) == 9

    def test_shifts(self):
        result = run_source("""
            li r1, 1
            slli r2, r1, 10
            srli r3, r2, 3
            halt
        """)
        assert result.reg(int_reg(2)) == 1024
        assert result.reg(int_reg(3)) == 128

    def test_zero_register_is_immutable(self):
        result = run_source("""
            li r0, 99
            mov r1, r0
            halt
        """)
        assert result.reg(int_reg(0)) == 0
        assert result.reg(int_reg(1)) == 0


class TestFloatingPoint:
    def test_fp_pipeline(self):
        result = run_source("""
            li r1, 3
            fcvt f1, r1
            fcvt f2, r1
            fadd f3, f1, f2
            fmul f4, f3, f1
            fdiv f5, f4, f2
            halt
        """)
        assert result.reg(parse_reg("f3")) == 6.0
        assert result.reg(parse_reg("f4")) == 18.0
        assert result.reg(parse_reg("f5")) == 6.0

    def test_fp_memory(self):
        image = MemoryImage()
        image.alloc_array("buf", 2)
        result = run_source("""
            li r1, 7
            fcvt f1, r1
            li r2, @buf
            fstore f1, r2, 0
            fload f2, r2, 0
            halt
        """, image)
        assert result.reg(parse_reg("f2")) == 7.0


class TestVector:
    def test_splat_add_extract(self):
        result = run_source("""
            li r1, 4
            vsplat x1, r1
            vadd x2, x1, x1
            vextract r2, x2, 0
            vextract r3, x2, 1
            halt
        """)
        assert result.reg(int_reg(2)) == 8
        assert result.reg(int_reg(3)) == 8

    def test_vector_memory_round_trip(self):
        image = MemoryImage()
        addr = image.alloc_array("v", 4)
        image.write_words(addr, [10, 20])
        result = run_source("""
            li r1, @v
            vload x1, r1, 0
            vstore x1, r1, 16
            load r2, r1, 16
            load r3, r1, 24
            halt
        """, image)
        assert result.reg(int_reg(2)) == 10
        assert result.reg(int_reg(3)) == 20


class TestMemory:
    def test_load_uses_image_values(self):
        image = MemoryImage()
        addr = image.alloc_array("data", 2)
        image.write_word(addr + 8, 123)
        result = run_source("""
            li r1, @data
            load r2, r1, 8
            halt
        """, image)
        assert result.reg(int_reg(2)) == 123

    def test_uninitialized_memory_reads_zero(self):
        result = run_source("""
            li r1, 0x200000
            load r2, r1, 0
            halt
        """)
        assert result.reg(int_reg(2)) == 0

    def test_store_then_load(self):
        result = run_source("""
            li r1, 0x200000
            li r2, 55
            store r2, r1, 0
            load r3, r1, 0
            halt
        """)
        assert result.reg(int_reg(3)) == 55

    def test_misaligned_access_raises(self):
        with pytest.raises(InterpreterError, match="misaligned"):
            run_source("""
                li r1, 3
                load r2, r1, 0
                halt
            """)


class TestControlFlow:
    def test_loop_sums(self):
        result = run_source("""
            li r1, 0      # sum
            li r2, 5      # counter
        loop:
            add r1, r1, r2
            addi r2, r2, -1
            bne r2, r0, loop
            halt
        """)
        assert result.reg(int_reg(1)) == 15

    def test_branch_not_taken_falls_through(self):
        result = run_source("""
            li r1, 1
            beq r1, r0, skip
            li r2, 42
        skip:
            halt
        """)
        assert result.reg(int_reg(2)) == 42

    def test_jr_indirect(self):
        result = run_source("""
            li r1, 12
            jr r1
            li r2, 1     # skipped
            li r3, 2
            halt
        """)
        assert result.reg(int_reg(2)) == 0
        assert result.reg(int_reg(3)) == 2

    def test_call_ret_through_stack(self):
        image = MemoryImage()
        sp = image.alloc_stack(16)
        result = run_source("""
            call fn
            li r2, 2
            halt
        fn:
            li r1, 1
            ret
        """, image, initial_sp=sp)
        assert result.reg(int_reg(1)) == 1
        assert result.reg(int_reg(2)) == 2
        assert result.reg(int_reg(29)) == sp  # balanced stack

    def test_ret_follows_overwritten_stack_slot(self):
        # The architectural behaviour the SpectreRSB "direct overwrite"
        # variant relies on: ret jumps wherever the stack says.
        image = MemoryImage()
        sp = image.alloc_stack(16)
        result = run_source("""
            call fn
            li r2, 2       # the "expected" return point, must be skipped
            halt
        fn:
            li r1, @gadget_pc   # placeholder, patched below
            store r1, sp, 0
            ret
        gadget:
            li r3, 3
            halt
        """, _image_with_gadget(image), initial_sp=sp)
        assert result.reg(int_reg(2)) == 0
        assert result.reg(int_reg(3)) == 3

    def test_runs_off_end_without_halt(self):
        result = run_source("nop")
        assert not result.halted or result.pc == 4


def _image_with_gadget(image):
    # The gadget label address is 6 instructions in: 6 * 4 = 24.
    image.symbols["gadget_pc"] = 24
    return image


class TestLimits:
    def test_runaway_raises(self):
        with pytest.raises(InterpreterError, match="did not halt"):
            run_source("""
            spin:
                jmp spin
            """, max_steps=100)

    def test_rdtsc_monotone(self):
        result = run_source("""
            rdtsc r1
            rdtsc r2
            sltu r3, r1, r2
            halt
        """)
        assert result.reg(int_reg(3)) == 1
