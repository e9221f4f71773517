"""Combined branch unit: direction predictor + BTB + RSB.

The fetch stage asks :meth:`BranchUnit.predict` for every control-flow
instruction; the prediction carries an opaque ``meta`` token and the unit
snapshot taken *before* the speculative updates, so the core can restore
speculative state precisely on a misprediction.

Resolution flows back through :meth:`resolve`, which trains the direction
tables and the BTB.  Training persists across runahead entry/exit per the
paper's (and Mutlu's) design — the PHT poisoning in attack step ① relies
on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import INSTR_BYTES, Opcode
from .base import DirectionPredictor
from .btb import BranchTargetBuffer
from .predictors import TwoLevelPredictor
from .rsb import ReturnStackBuffer


@dataclass(slots=True)
class Prediction:
    """Fetch-time prediction for one control-flow instruction."""

    taken: bool
    target: int
    meta: object = None          # direction-predictor token
    snapshot: object = None      # unit state before speculative updates


@dataclass
class BranchStats:
    predictions: int = 0
    mispredictions: int = 0
    direction_mispredicts: int = 0
    target_mispredicts: int = 0
    rsb_mispredicts: int = 0


class BranchUnit:
    """Front-end branch prediction with checkpoint/restore recovery."""

    def __init__(self, direction=None, btb=None, rsb=None):
        self.direction = direction or TwoLevelPredictor()
        self.btb = btb or BranchTargetBuffer()
        self.rsb = rsb or ReturnStackBuffer()
        self.stats = BranchStats()
        # Per predicted branch, skip the direction hooks a predictor
        # keeps as the base-class no-ops (the default two-level
        # predictor keeps both): no history to snapshot or to shift.
        kind = type(self.direction)
        self._snapshots_history = (
            kind.snapshot is not DirectionPredictor.snapshot)
        self._shifts_history = (
            kind.spec_update is not DirectionPredictor.spec_update)

    # -- prediction --------------------------------------------------------------

    def predict(self, pc, instr) -> Prediction:
        """Predict direction and target; applies speculative updates."""
        self.stats.predictions += 1
        snapshot = (self.direction.snapshot() if self._snapshots_history
                    else None, self.rsb.snapshot())
        fallthrough = pc + INSTR_BYTES
        op = instr.opcode

        if instr.cond_branch:
            taken, meta = self.direction.predict(pc)
            if self._shifts_history:
                self.direction.spec_update(pc, taken)
            target = instr.target if taken else fallthrough
            return Prediction(taken, target, meta=meta, snapshot=snapshot)
        if op is Opcode.JMP:
            return Prediction(True, instr.target, snapshot=snapshot)
        if op is Opcode.CALL:
            self.rsb.push(fallthrough)
            return Prediction(True, instr.target, snapshot=snapshot)
        if op is Opcode.RET:
            predicted = self.rsb.pop()
            if predicted is None:
                predicted = self.btb.lookup(pc) or fallthrough
            return Prediction(True, predicted, snapshot=snapshot)
        if op is Opcode.JR:
            predicted = self.btb.lookup(pc)
            if predicted is None:
                predicted = fallthrough
            return Prediction(True, predicted, snapshot=snapshot)
        raise ValueError(f"not a control-flow instruction: {instr}")

    # -- recovery -----------------------------------------------------------------

    def snapshot(self):
        """Capture all speculative state (direction history + RSB).

        :meth:`predict` takes the same snapshot inline."""
        return (self.direction.snapshot(), self.rsb.snapshot())

    def restore(self, snap):
        direction_snap, rsb_snap = snap
        self.direction.restore(direction_snap)
        self.rsb.restore(rsb_snap)

    def reapply(self, pc, instr, taken):
        """Re-apply speculative updates for the *actual* outcome after a
        misprediction restored the snapshot."""
        op = instr.opcode
        if instr.cond_branch:
            self.direction.spec_update(pc, taken)
        elif op is Opcode.CALL:
            self.rsb.push(pc + INSTR_BYTES)
        elif op is Opcode.RET:
            self.rsb.pop()

    # -- resolution ---------------------------------------------------------------

    def resolve(self, pc, instr, actual_taken, actual_target, prediction,
                train=True):
        """Record a resolved branch; returns True if it was mispredicted."""
        mispredicted = (actual_taken != prediction.taken or
                        (actual_taken and actual_target != prediction.target))
        if mispredicted:
            self.stats.mispredictions += 1
            if actual_taken != prediction.taken:
                self.stats.direction_mispredicts += 1
            else:
                self.stats.target_mispredicts += 1
            if instr.opcode is Opcode.RET:
                self.stats.rsb_mispredicts += 1
        if train:
            if instr.cond_branch:
                self.direction.update(pc, actual_taken, prediction.meta)
            if actual_taken and instr.opcode in (Opcode.JR, Opcode.JMP,
                                                 Opcode.CALL):
                self.btb.update(pc, actual_target)
        return mispredicted
