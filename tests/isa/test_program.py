"""Program container tests."""

import pytest

from repro.isa import INSTR_BYTES, Opcode, assemble


@pytest.fixture
def program():
    return assemble("""
    start:
        li r1, 1
        bge r1, r0, end
        nop
    end:
        halt
    """)


class TestFetch:
    def test_fetch_by_address(self, program):
        assert program.fetch(0).opcode is Opcode.LI
        assert program.fetch(12).opcode is Opcode.HALT

    def test_fetch_past_end_returns_none(self, program):
        assert program.fetch(program.end_pc) is None
        assert program.fetch(0x1000) is None

    def test_misaligned_fetch_rejected(self, program):
        with pytest.raises(ValueError):
            program.fetch(2)

    def test_end_pc(self, program):
        assert program.end_pc == 4 * INSTR_BYTES

    def test_iteration_and_len(self, program):
        assert len(program) == 4
        assert len(list(program)) == 4


class TestMetadata:
    def test_address_of(self, program):
        assert program.labels["start"] == 0
        assert program.labels["end"] == 12

    def test_scope_end_of_forward_branch(self, program):
        assert program.scope_end(4) == 12

    def test_scope_end_none_for_non_branch(self, program):
        assert program.scope_end(0) is None
        assert program.scope_end(program.end_pc) is None

    def test_disassemble_includes_labels_and_targets(self, program):
        text = program.disassemble()
        assert "start:" in text
        assert "end:" in text
        assert "bge" in text
        assert "0x000c" in text

    def test_instruction_str_renders_operands(self, program):
        text = str(program.fetch(0))
        assert text.startswith("li")
        assert "r1" in text
