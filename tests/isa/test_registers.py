"""Unit tests for the register-file layout."""

import pytest

from repro.isa import registers as R


class TestLayout:
    def test_flat_space_is_contiguous(self):
        assert R.INT_BASE == 0
        assert R.FP_BASE == R.NUM_INT_REGS
        assert R.VEC_BASE == R.NUM_INT_REGS + R.NUM_FP_REGS
        assert R.NUM_ARCH_REGS == 56

    def test_int_reg_range(self):
        assert R.int_reg(0) == 0
        assert R.int_reg(31) == 31
        with pytest.raises(ValueError):
            R.int_reg(32)
        with pytest.raises(ValueError):
            R.int_reg(-1)

    def test_fp_and_vec_offsets(self):
        assert R.parse_reg("f0") == R.FP_BASE
        assert R.parse_reg("x7") == R.NUM_ARCH_REGS - 1
        with pytest.raises(ValueError):
            R.parse_reg("f16")
        with pytest.raises(ValueError):
            R.parse_reg("x8")


class TestClassification:
    def test_reg_class_by_range(self):
        assert R.reg_class(R.int_reg(5)) == R.INT_CLASS
        assert R.reg_class(R.parse_reg("f5")) == R.FP_CLASS
        assert R.reg_class(R.parse_reg("x5")) == R.VEC_CLASS

    def test_reg_class_out_of_range(self):
        with pytest.raises(ValueError):
            R.reg_class(R.NUM_ARCH_REGS)

    def test_zero_values_match_class(self):
        assert R.zero_value(R.int_reg(1)) == 0
        assert R.zero_value(R.parse_reg("f1")) == 0.0
        assert R.zero_value(R.parse_reg("x1")) == (0, 0)


class TestNames:
    def test_round_trip_every_register(self):
        for reg in range(R.NUM_ARCH_REGS):
            assert R.parse_reg(R.reg_name(reg)) == reg

    def test_aliases(self):
        assert R.parse_reg("sp") == R.REG_SP
        assert R.parse_reg("lr") == R.REG_LINK

    def test_case_insensitive(self):
        assert R.parse_reg("R5") == R.int_reg(5)
        assert R.parse_reg("F3") == R.parse_reg("f3")

    @pytest.mark.parametrize("bad", ["", "q1", "r", "r99", "rx", "f16", "x8"])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ValueError):
            R.parse_reg(bad)

    def test_register_file_reset(self):
        regs = R.make_register_file()
        assert len(regs) == R.NUM_ARCH_REGS
        assert regs[R.int_reg(3)] == 0
        assert regs[R.parse_reg("x0")] == (0, 0)
