"""Unit tests for the combined branch unit."""

import pytest

from repro.branch import BranchUnit
from repro.branch.predictors import make_direction_predictor
from repro.isa import Instruction, Opcode, int_reg
from tests.sim import rsb_depth, rsb_peek


def cond_branch(target=0x40):
    return Instruction(Opcode.BNE, srcs=(int_reg(1), int_reg(0)),
                       target=target)


class TestConditional:
    def test_not_taken_prediction_falls_through(self):
        unit = BranchUnit()
        pred = unit.predict(0x10, cond_branch(0x40))
        assert not pred.taken
        assert pred.target == 0x14

    def test_trained_prediction_follows_target(self):
        unit = BranchUnit()
        instr = cond_branch(0x40)
        for _ in range(8):
            pred = unit.predict(0x10, instr)
            unit.resolve(0x10, instr, True, 0x40, pred)
        pred = unit.predict(0x10, instr)
        assert pred.taken
        assert pred.target == 0x40

    def test_resolve_reports_direction_mispredict(self):
        unit = BranchUnit()
        instr = cond_branch()
        pred = unit.predict(0x10, instr)
        assert unit.resolve(0x10, instr, True, instr.target, pred)
        assert unit.stats.direction_mispredicts == 1

    def test_resolve_without_training(self):
        unit = BranchUnit()
        instr = cond_branch()
        for _ in range(8):
            pred = unit.predict(0x10, instr)
            unit.resolve(0x10, instr, True, instr.target, pred, train=False)
        pred = unit.predict(0x10, instr)
        assert not pred.taken


class TestCallRet:
    def test_call_pushes_then_ret_predicts(self):
        unit = BranchUnit()
        call = Instruction(Opcode.CALL, dest=29, srcs=(29,), target=0x100)
        ret = Instruction(Opcode.RET, dest=29, srcs=(29,))
        unit.predict(0x10, call)
        pred = unit.predict(0x100, ret)
        assert pred.target == 0x14

    def test_ret_underflow_falls_back(self):
        unit = BranchUnit()
        ret = Instruction(Opcode.RET, dest=29, srcs=(29,))
        pred = unit.predict(0x100, ret)
        assert pred.target == 0x104   # fallthrough fallback

    def test_rsb_mispredict_counted(self):
        unit = BranchUnit()
        call = Instruction(Opcode.CALL, dest=29, srcs=(29,), target=0x100)
        ret = Instruction(Opcode.RET, dest=29, srcs=(29,))
        unit.predict(0x10, call)
        pred = unit.predict(0x100, ret)
        # Architectural return goes elsewhere (stack overwritten).
        assert unit.resolve(0x100, ret, True, 0x900, pred)
        assert unit.stats.rsb_mispredicts == 1


class TestIndirect:
    def test_jr_uses_btb(self):
        unit = BranchUnit()
        jr = Instruction(Opcode.JR, srcs=(int_reg(5),))
        pred = unit.predict(0x20, jr)
        assert pred.target == 0x24   # cold BTB falls through
        unit.resolve(0x20, jr, True, 0x800, pred)
        pred = unit.predict(0x20, jr)
        assert pred.target == 0x800

    def test_jmp_is_always_taken(self):
        unit = BranchUnit()
        jmp = Instruction(Opcode.JMP, target=0x60)
        pred = unit.predict(0x20, jmp)
        assert pred.taken and pred.target == 0x60

    def test_non_branch_rejected(self):
        unit = BranchUnit()
        with pytest.raises(ValueError):
            unit.predict(0x0, Instruction(Opcode.NOP))


class TestRecovery:
    def test_snapshot_restores_rsb_and_history(self):
        unit = BranchUnit(direction=make_direction_predictor("gshare"))
        call = Instruction(Opcode.CALL, dest=29, srcs=(29,), target=0x100)
        pred = unit.predict(0x10, cond_branch())
        snap = pred.snapshot
        unit.predict(0x20, call)             # speculative push
        unit.predict(0x30, cond_branch())    # speculative history shift
        unit.restore(snap)
        assert rsb_depth(unit.rsb) == 0
        ret = Instruction(Opcode.RET, dest=29, srcs=(29,))
        assert unit.predict(0x50, ret).target == 0x54  # nothing to pop

    def test_reapply_actual_outcome(self):
        unit = BranchUnit()
        call = Instruction(Opcode.CALL, dest=29, srcs=(29,), target=0x100)
        pred = unit.predict(0x10, call)
        unit.restore(pred.snapshot)
        unit.reapply(0x10, call, True)
        assert rsb_peek(unit.rsb) == 0x14

    def test_predictor_swapping(self):
        for name in ("bimodal", "gshare", "twolevel"):
            unit = BranchUnit(direction=make_direction_predictor(name))
            assert unit.direction.name == name
