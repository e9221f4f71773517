"""MemoryImage layout tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import AssemblyError, MemoryImage, WORD_BYTES, assemble


class TestAllocation:
    def test_alignment_default_is_line(self):
        image = MemoryImage()
        a = image.alloc("a", 10)
        b = image.alloc("b", 10)
        assert a % 64 == 0
        assert b % 64 == 0
        assert b >= a + 10

    def test_custom_alignment(self):
        image = MemoryImage()
        addr = image.alloc("x", 8, align=8)
        assert addr % 8 == 0

    def test_duplicate_symbol_rejected(self):
        image = MemoryImage()
        image.alloc("x", 8)
        with pytest.raises(ValueError, match="already"):
            image.alloc("x", 8)

    def test_bad_sizes_and_alignment(self):
        image = MemoryImage()
        with pytest.raises(ValueError):
            image.alloc("x", 0)
        with pytest.raises(ValueError):
            image.alloc("y", 8, align=3)

    def test_misaligned_base_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage(base=0x1001)

    def test_size_of(self):
        image = MemoryImage()
        addr = image.alloc("x", 24, align=8)
        assert image.alloc("y", 8, align=8) == addr + 24

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        image = MemoryImage()
        spans = []
        for i, words in enumerate(sizes):
            addr = image.alloc_array(f"s{i}", words)
            spans.append((addr, addr + words * WORD_BYTES))
        spans.sort()
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b


class TestContents:
    def test_fill_and_element_access(self):
        image = MemoryImage()
        addr = image.alloc_array("arr", 4, fill=9)
        image.write_word(addr + 2 * WORD_BYTES, 42)
        words = image.initial_words()
        assert words[addr] == 9
        assert words[addr + 16] == 42

    def test_write_words(self):
        image = MemoryImage()
        addr = image.alloc_array("arr", 3)
        image.write_words(addr, [1, 2, 3])
        assert image.initial_words()[addr + 8] == 2

    def test_misaligned_write_rejected(self):
        image = MemoryImage()
        with pytest.raises(ValueError):
            image.write_word(0x100001, 1)

    def test_initial_words_is_a_copy(self):
        image = MemoryImage()
        addr = image.alloc_array("arr", 1, fill=5)
        snapshot = image.initial_words()
        image.write_word(addr, 6)
        assert snapshot[addr] == 5


class TestStackAndResolve:
    def test_stack_grows_down_from_top(self):
        image = MemoryImage()
        sp = image.alloc_stack(16)
        base = image.address_of("stack")
        assert sp == base + 16 * WORD_BYTES

    def test_resolve_expressions(self):
        image = MemoryImage()
        addr = image.alloc_array("buf", 4)
        program = assemble("li r1, @buf\nli r2, @buf+8\nli r3, @buf-8",
                           memory_image=image)
        assert [i.imm for i in program] == [addr, addr + 8, addr - 8]

    def test_resolve_errors(self):
        image = MemoryImage()
        with pytest.raises(AssemblyError, match="unknown symbol"):
            assemble("li r1, @nope", memory_image=image)
        with pytest.raises(AssemblyError, match="bad symbol"):
            assemble("li r1, @", memory_image=image)
