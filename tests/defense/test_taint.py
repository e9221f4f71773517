"""Taint tracker unit tests, including the Fig. 12 table cell-for-cell."""

import pytest

from repro.defense import TaintTracker
from repro.isa import Instruction, Opcode, int_reg


def load(dest, addr_reg):
    return Instruction(Opcode.LOAD, dest=int_reg(dest),
                       srcs=(int_reg(addr_reg),), imm=0)


def alu(dest, *src_regs):
    return Instruction(Opcode.ADD, dest=int_reg(dest),
                       srcs=tuple(int_reg(s) for s in src_regs))


class TestBasics:
    def test_untrusted_propagates_through_alu(self):
        tracker = TaintTracker(untrusted_regs=(int_reg(1),))
        tracker.on_instruction(0x0, alu(2, 1, 3))
        assert tracker.reg_taint[int_reg(2)]

    def test_clean_overwrite_clears_taint(self):
        tracker = TaintTracker(untrusted_regs=(int_reg(1),))
        tracker.on_instruction(0x0, alu(2, 1, 1))
        tracker.on_instruction(0x4, alu(2, 3, 4))
        assert int_reg(2) not in tracker.reg_taint

    def test_load_outside_scope_has_no_btag(self):
        tracker = TaintTracker()
        info = tracker.on_instruction(0x0, load(2, 3))
        assert info.btag is None
        assert not info.is_set

    def test_untainted_load_in_scope_gets_m_zero(self):
        tracker = TaintTracker()
        tracker.open_scope(0x0, 0x100, predicted_taken=False)
        info = tracker.on_instruction(0x4, load(2, 3))
        assert info.btag == (1, 0)
        assert not info.is_set

    def test_tainted_load_in_scope_is_usl(self):
        tracker = TaintTracker(untrusted_regs=(int_reg(3),))
        scope = tracker.open_scope(0x0, 0x100, predicted_taken=False)
        info = tracker.on_instruction(0x4, load(2, 3))
        assert info.btag == (scope.scope_id, 1)
        assert info.is_set == {scope.scope_id}

    def test_scope_pops_at_end_address(self):
        tracker = TaintTracker()
        tracker.open_scope(0x0, 0x10, predicted_taken=False)
        tracker.on_instruction(0x10, alu(2, 3, 4))   # at Bne: popped
        assert tracker.innermost() is None

    def test_conservative_mode_marks_all_scope_loads(self):
        tracker = TaintTracker(conservative=True)
        tracker.open_scope(0x0, 0x100, predicted_taken=False)
        info = tracker.on_instruction(0x4, load(2, 3))
        assert info.is_set

    def test_descendants_follow_nesting(self):
        tracker = TaintTracker()
        outer = tracker.open_scope(0x0, 0x100, predicted_taken=False)
        inner = tracker.open_scope(0x10, 0x50, predicted_taken=False)
        assert tracker.descendants(outer.scope_id) == \
            {outer.scope_id, inner.scope_id}
        assert tracker.descendants(inner.scope_id) == {inner.scope_id}

    def test_reset_clears_state_but_keeps_scope_records(self):
        tracker = TaintTracker(untrusted_regs=(int_reg(1),))
        scope = tracker.open_scope(0x0, 0x100, predicted_taken=False)
        tracker.reset()
        assert tracker.innermost() is None
        assert tracker.reg_taint[int_reg(1)]      # untrusted re-marked
        assert scope.scope_id in tracker.scopes   # records persist


def fig12_trace():
    """The exact machine-code sequence of Fig. 12.

    Register assignment: rA..rH = r1..r8 (clean base addresses),
    rX = r9, rY = r10 (untrusted), r0..r14 of the figure = r11..r25.
    """
    rA, rB, rC, rD, rE, rF, rG, rH = range(1, 9)
    rX, rY = 9, 10
    out = lambda n: n + 11     # figure's r<n> -> our r<n+11>
    return [
        # inside B1 (scope 1), which spans the whole listing to B1e
        ("load r0 (rA)", load(out(0), rA)),
        ("r1 = rB + rX", alu(out(1), rB, rX)),
        ("load r2 (r1)", load(out(2), out(1))),
        ("r3 = rC * r2", alu(out(3), rC, out(2))),
        # inner branch B2 opens here (scope 2)
        ("r4 = rD - rY", alu(out(4), rD, rY)),
        ("load r5 (r4)", load(out(5), out(4))),
        ("r6 = r5 + r2", alu(out(6), out(5), out(2))),
        ("load r7 (r6)", load(out(7), out(6))),
        # B2 ends
        ("r8 = r3 - rE", alu(out(8), out(3), rE)),
        ("load r9 (r8)", load(out(9), out(8))),
        # B1 ends
        ("r10 = rF + r9", alu(out(10), rF, out(9))),
        ("load r11 (r10)", load(out(11), out(10))),
        ("r12 = rG * r7", alu(out(12), rG, out(7))),
        ("load r13 (r12)", load(out(13), out(12))),
        ("load r14 (rH)", load(out(14), rH)),
    ], rX, rY


class TestFig12:
    """Reproduce the Btag / IS assignment table of Fig. 12 exactly."""

    def run_trace(self):
        rows, rX, rY = fig12_trace()
        tracker = TaintTracker(untrusted_regs=(int_reg(rX), int_reg(rY)))
        results = {}
        pc = 0
        b1 = tracker.open_scope(pc, end_pc=10 * 4, predicted_taken=False)
        for index, (label, instr) in enumerate(rows):
            pc = index * 4
            if index == 4:
                b2 = tracker.open_scope(pc, end_pc=8 * 4,
                                        predicted_taken=False)
            results[label] = tracker.on_instruction(pc, instr)
        return results, b1.scope_id, b2.scope_id

    def test_btag_column(self):
        results, b1, b2 = self.run_trace()
        assert results["load r0 (rA)"].btag == (b1, 0)
        assert results["load r2 (r1)"].btag == (b1, 1)
        assert results["load r5 (r4)"].btag == (b2, 1)
        assert results["load r7 (r6)"].btag == (b2, 2)
        assert results["load r9 (r8)"].btag == (b1, 2)
        assert results["load r11 (r10)"].btag is None   # outside: Btag 0
        assert results["load r13 (r12)"].btag is None
        assert results["load r14 (rH)"].btag is None

    def test_is_column(self):
        results, b1, b2 = self.run_trace()
        assert results["load r0 (rA)"].is_set == set()
        assert results["load r2 (r1)"].is_set == {b1}
        assert results["load r5 (r4)"].is_set == {b2}
        assert results["load r7 (r6)"].is_set == {b1, b2}
        assert results["load r9 (r8)"].is_set == {b1}
        assert results["load r11 (r10)"].is_set == {b1}   # outside scope!
        assert results["load r13 (r12)"].is_set == {b1, b2}
        assert results["load r14 (rH)"].is_set == set()

    def test_rendering(self):
        results, b1, b2 = self.run_trace()
        names = {b1: "B1", b2: "B2"}
        assert results["load r2 (r1)"].render_btag(names) == "B1,1"
        assert results["load r7 (r6)"].render_is(names) == "B1, B2"
        assert results["load r14 (rH)"].render_is(names) == "0"
        assert results["load r14 (rH)"].render_btag(names) == "0"
