"""ProgramBuilder tests: the fluent API shares the assembler path."""

import pytest

from repro.isa import (MemoryImage, Opcode, ProgramBuilder, assemble,
                       run_program)


class TestEmission:
    def test_mnemonic_methods(self):
        b = ProgramBuilder()
        b.li("r1", 5)
        b.addi("r2", "r1", 3)
        b.halt()
        program = b.build()
        assert [i.opcode for i in program] == \
            [Opcode.LI, Opcode.ADDI, Opcode.HALT]

    def test_keyword_shadowing_wrappers(self):
        b = ProgramBuilder()
        b.li("r1", 6)
        b.li("r2", 3)
        b.emit("and", "r3", "r1", "r2")
        b.emit("or", "r4", "r1", "r2")
        b.halt()
        result = run_program(b.build())
        assert result.reg(3) == 2
        assert result.reg(4) == 7

    def test_unknown_mnemonic_fails_fast(self):
        b = ProgramBuilder()
        with pytest.raises(AttributeError):
            b.frobnicate("r1")
        with pytest.raises(AttributeError):
            b.emit("frobnicate", "r1")

    def test_raw_and_comment_lines(self):
        b = ProgramBuilder()
        b.comment("a note")
        b.nop()
        b.halt()
        assert len(b.build()) == 2

    def test_source_is_reassemblable(self):
        b = ProgramBuilder()
        b.li("r1", 9)
        b.halt()
        text = b.source()
        assert len(assemble(text)) == 2


class TestLabels:
    def test_mark_and_branch(self):
        b = ProgramBuilder()
        b.li("r1", 3)
        b.mark("loop")
        b.addi("r1", "r1", -1)
        b.bne("r1", "r0", "loop")
        b.halt()
        result = run_program(b.build())
        assert result.reg(1) == 0

    def test_label_context_manager(self):
        b = ProgramBuilder()
        b.li("r1", 2)
        top = b.fresh_label("top")
        b.mark(top)
        b.addi("r1", "r1", -1)
        b.bne("r1", "r0", top)
        b.halt()
        result = run_program(b.build())
        assert result.reg(1) == 0

    def test_fresh_labels_are_unique(self):
        b = ProgramBuilder()
        names = {b.fresh_label() for _ in range(100)}
        assert len(names) == 100


class TestHelpers:
    def test_nops_sled(self):
        assert len(assemble(".repeat 25, nop\nhalt")) == 26

    def test_repeat_arbitrary_instruction(self):
        result = run_program(assemble(
            "li r1, 0\n.repeat 5, addi r1, r1, 2\nhalt"))
        assert result.reg(1) == 10

    def test_symbols_resolve_through_image(self):
        image = MemoryImage()
        addr = image.alloc_array("buf", 2)
        image.write_word(addr, 77)
        b = ProgramBuilder(image)
        b.li("r1", "@buf")
        b.load("r2", "r1", 0)
        b.halt()
        result = run_program(b.build(), memory_image=image)
        assert result.reg(2) == 77
