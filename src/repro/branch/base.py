"""Direction-predictor interface and the saturating two-bit counter.

All predictors share a small contract so the :class:`~repro.branch.unit.
BranchUnit` (and the attack code that trains predictors) can swap them
freely — the paper stresses that SPECRUN is "compatible with different
branch prediction mechanisms", which the test matrix exercises.

``predict`` returns ``(taken, meta)`` where ``meta`` is an opaque token
(usually the table index used) that must be passed back to ``update`` at
resolution so the counter trained is the one that produced the prediction.
"""

from __future__ import annotations


class TwoBitCounter:
    """Classic saturating counter: 0,1 predict not-taken; 2,3 taken.

    :class:`~repro.branch.predictors.TwoLevelPredictor` (the default
    predictor) steps its counters inline with this same rule; a change
    here must be made there too.
    """

    STRONG_NOT_TAKEN = 0
    WEAK_NOT_TAKEN = 1
    WEAK_TAKEN = 2
    STRONG_TAKEN = 3

    @staticmethod
    def predict(state):
        return state >= 2

    @staticmethod
    def update(state, taken):
        if taken:
            return state + 1 if state < 3 else 3
        return state - 1 if state > 0 else 0


class DirectionPredictor:
    """Interface for conditional-branch direction predictors."""

    name = "base"

    def predict(self, pc):
        """Return ``(taken, meta)`` for the branch at ``pc``."""
        raise NotImplementedError

    def spec_update(self, pc, taken):
        """Update speculative history at fetch time (no-op by default)."""

    def update(self, pc, taken, meta=None):
        """Train tables with the resolved outcome."""
        raise NotImplementedError

    def snapshot(self):
        """Opaque copy of speculative state (restored on misprediction)."""
        return None

    def restore(self, snap):
        """Restore speculative state saved by :meth:`snapshot`."""
