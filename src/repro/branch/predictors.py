"""Concrete direction predictors: bimodal, gshare, two-level adaptive.

Table 1 specifies a "two-level adaptive predictor"; :class:`TwoLevelPredictor`
is the default.  The alternatives exist because §4.4 argues the attack is
predictor-agnostic — the integration tests run the PoC against all three.
"""

from __future__ import annotations

from .base import DirectionPredictor, TwoBitCounter


class BimodalPredictor(DirectionPredictor):
    """A single PHT of two-bit counters indexed by the branch PC."""

    name = "bimodal"

    def __init__(self, table_bits=12):
        self.table_bits = table_bits
        self._mask = (1 << table_bits) - 1
        self._pht = [TwoBitCounter.WEAK_NOT_TAKEN] * (1 << table_bits)

    def _index(self, pc):
        return (pc >> 2) & self._mask

    def predict(self, pc):
        index = self._index(pc)
        return TwoBitCounter.predict(self._pht[index]), index

    def update(self, pc, taken, meta=None):
        index = meta if meta is not None else self._index(pc)
        self._pht[index] = TwoBitCounter.update(self._pht[index], taken)


class GSharePredictor(DirectionPredictor):
    """Global-history predictor: PHT indexed by ``pc ^ GHR``.

    The global history register is updated speculatively at fetch and is
    checkpointed/restored around mispredictions by the branch unit.
    """

    name = "gshare"

    def __init__(self, table_bits=12, history_bits=12):
        self.table_bits = table_bits
        self.history_bits = min(history_bits, table_bits)
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << self.history_bits) - 1
        self._pht = [TwoBitCounter.WEAK_NOT_TAKEN] * (1 << table_bits)
        self.ghr = 0

    def _index(self, pc):
        return ((pc >> 2) ^ self.ghr) & self._mask

    def predict(self, pc):
        index = self._index(pc)
        return TwoBitCounter.predict(self._pht[index]), index

    def spec_update(self, pc, taken):
        self.ghr = ((self.ghr << 1) | int(taken)) & self._history_mask

    def update(self, pc, taken, meta=None):
        index = meta if meta is not None else self._index(pc)
        self._pht[index] = TwoBitCounter.update(self._pht[index], taken)

    def snapshot(self):
        return self.ghr

    def restore(self, snap):
        self.ghr = snap


class TwoLevelPredictor(DirectionPredictor):
    """Two-level adaptive predictor (Yeh–Patt style, per-branch history).

    Level 1: a branch-history table of ``history_bits``-bit local histories
    indexed by PC.  Level 2: a PHT of two-bit counters indexed by the local
    history concatenated with low PC bits.  Local histories are updated at
    resolution (non-speculative), which keeps misprediction recovery free.

    A freshly-seen branch needs ``history_bits`` resolutions to saturate its
    local history plus two more to flip the counter — the training loop in
    attack step ① must run at least that many iterations.
    """

    name = "twolevel"

    def __init__(self, bht_bits=10, history_bits=4, pc_bits=6):
        self.bht_bits = bht_bits
        self.history_bits = history_bits
        self.pc_bits = pc_bits
        self._bht_mask = (1 << bht_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._pc_mask = (1 << pc_bits) - 1
        self._bht = [0] * (1 << bht_bits)
        self._pht = [TwoBitCounter.WEAK_NOT_TAKEN] * \
            (1 << (history_bits + pc_bits))

    # predict/update run once per conditional branch fetched/resolved, so
    # they index the tables and step the two-bit counter inline (the rule
    # of TwoBitCounter.predict/update).
    def predict(self, pc):
        index = pc >> 2
        pht_index = (self._bht[index & self._bht_mask] << self.pc_bits) | \
            (index & self._pc_mask)
        return self._pht[pht_index] >= TwoBitCounter.WEAK_TAKEN, pht_index

    def update(self, pc, taken, meta=None):
        index = pc >> 2
        bht_index = index & self._bht_mask
        history = self._bht[bht_index]
        pht_index = meta if meta is not None else \
            (history << self.pc_bits) | (index & self._pc_mask)
        pht = self._pht
        state = pht[pht_index]
        if taken:
            if state < TwoBitCounter.STRONG_TAKEN:
                pht[pht_index] = state + 1
            self._bht[bht_index] = ((history << 1) | 1) & self._history_mask
        else:
            if state > TwoBitCounter.STRONG_NOT_TAKEN:
                pht[pht_index] = state - 1
            self._bht[bht_index] = (history << 1) & self._history_mask


_PREDICTORS = {
    "bimodal": BimodalPredictor,
    "gshare": GSharePredictor,
    "twolevel": TwoLevelPredictor,
}


def make_direction_predictor(name, **kwargs):
    """Instantiate a direction predictor by name."""
    try:
        cls = _PREDICTORS[name]
    except KeyError:
        raise ValueError(f"unknown predictor: {name!r}") from None
    return cls(**kwargs)
