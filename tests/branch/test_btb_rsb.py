"""Unit tests for the BTB and the return stack buffer."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import BranchTargetBuffer, ReturnStackBuffer
from tests.sim import rsb_depth, rsb_peek


class TestBtb:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer()
        assert btb.lookup(0x100) is None
        btb.update(0x100, 0x500)
        assert btb.lookup(0x100) == 0x500

    def test_aliasing_without_tags(self):
        """With zero tag bits, congruent PCs share an entry — the
        SpectreBTB training primitive (Fig. 4a)."""
        btb = BranchTargetBuffer(index_bits=8, tag_bits=0)
        victim_pc = 0x100
        attacker_pc = victim_pc + (1 << (8 + 2))   # one index period on
        btb.update(attacker_pc, 0xBAD)
        assert btb.lookup(victim_pc) == 0xBAD

    def test_tags_prevent_aliasing(self):
        btb = BranchTargetBuffer(index_bits=8, tag_bits=8)
        pc = 0x100
        other = pc + (1 << 10)   # same index, different tag
        btb.update(other, 0xBAD)
        assert btb.lookup(pc) is None

    def test_congruent_pc_respects_tags(self):
        """With tags, a congruent pc lies one index *and* tag period away."""
        btb = BranchTargetBuffer(index_bits=8, tag_bits=4)
        pc = 0x200
        btb.update(pc + (1 << (8 + 2)), 0xBAD)         # tag differs
        assert btb.lookup(pc) is None
        btb.update(pc + (1 << (8 + 2 + 4)), 0xBAD)     # tag wraps around
        assert btb.lookup(pc) == 0xBAD


class TestRsb:
    def test_push_pop_lifo(self):
        rsb = ReturnStackBuffer(capacity=4)
        rsb.push(0x10)
        rsb.push(0x20)
        assert rsb.pop() == 0x20
        assert rsb.pop() == 0x10

    def test_underflow_returns_none(self):
        rsb = ReturnStackBuffer(capacity=4)
        assert rsb.pop() is None
        assert rsb.underflows == 1

    def test_overflow_wraps_and_clobbers_oldest(self):
        rsb = ReturnStackBuffer(capacity=2)
        rsb.push(1)
        rsb.push(2)
        rsb.push(3)        # clobbers 1
        assert rsb.pop() == 3
        assert rsb.pop() == 2
        # Entry 1 was clobbered; deeper returns underflow to the fallback.
        assert rsb.pop() is None

    def test_peek_does_not_pop(self):
        rsb = ReturnStackBuffer()
        rsb.push(0x44)
        assert rsb_peek(rsb) == 0x44
        assert rsb_depth(rsb) == 1

    def test_snapshot_restore(self):
        rsb = ReturnStackBuffer(capacity=4)
        rsb.push(1)
        rsb.push(2)
        snap = rsb.snapshot()
        rsb.pop()
        rsb.push(99)
        rsb.restore(snap)
        assert rsb.pop() == 2
        assert rsb.pop() == 1

    def test_snapshot_survives_interleaved_updates(self):
        """A snapshot restores the exact predictions it was taken at,
        after pushes, pops, an underflow and a wrap-around — and taking
        a second snapshot leaves the first unchanged."""
        capacity = 4

        def predictions(rsb):
            # Drains the stack one past underflow: (peek, pop) per step.
            return [(rsb_peek(rsb), rsb.pop()) for _ in range(capacity + 1)]

        rsb = ReturnStackBuffer(capacity=capacity)
        for value in (0x10, 0x20, 0x30):
            rsb.push(value)
        first = rsb.snapshot()
        first_copy = copy.deepcopy(first)
        expected_first = predictions(rsb)
        rsb.restore(first)

        assert rsb.pop() == 0x30
        for value in (0x40, 0x50, 0x60, 0x70, 0x80):   # wraps twice
            rsb.push(value)
        assert rsb.pop() == 0x80
        second = rsb.snapshot()
        expected_second = predictions(rsb)             # ends in underflow
        rsb.restore(second)
        rsb.push(0x90)
        for _ in range(capacity + 2):
            rsb.pop()
        assert rsb.underflows >= 3

        assert first == first_copy
        rsb.restore(first)
        assert predictions(rsb) == expected_first
        rsb.restore(second)
        assert predictions(rsb) == expected_second
        assert expected_second[:3] == [(0x70, 0x70), (0x60, 0x60),
                                       (0x50, 0x50)]
        assert expected_first[:4] == [(0x30, 0x30), (0x20, 0x20),
                                      (0x10, 0x10), (None, None)]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReturnStackBuffer(capacity=0)

    @given(st.lists(st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1 << 32)),
        st.tuples(st.just("pop"), st.none())), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_behaves_like_bounded_stack(self, ops):
        """Within capacity, the RSB is exactly a LIFO stack."""
        capacity = 8
        rsb = ReturnStackBuffer(capacity=capacity)
        model = []
        for op, value in ops:
            if op == "push":
                rsb.push(value)
                model.append(value)
                if len(model) > capacity:
                    model.pop(0)
            else:
                predicted = rsb.pop()
                expected = model.pop() if model else None
                assert predicted == expected
