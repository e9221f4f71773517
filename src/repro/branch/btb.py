"""Branch target buffer.

Predicts targets for indirect jumps (``jr``) and caches targets of other
taken branches.  The BTB uses partial tags (``tag_bits``); with few or
zero tag bits, two branches whose indices collide *alias* — exactly the
property SpectreBTB exploits (Fig. 4a): the attacker trains a congruent
PC in its own code and the victim's indirect jump inherits the poisoned
target.
"""

from __future__ import annotations

from typing import Optional


class BranchTargetBuffer:
    """Direct-mapped target cache with configurable partial tags."""

    def __init__(self, index_bits=10, tag_bits=0):
        self.index_bits = index_bits
        self.tag_bits = tag_bits
        self._index_mask = (1 << index_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._targets = [None] * (1 << index_bits)
        self._tags = [None] * (1 << index_bits)
        self.hits = 0
        self.misses = 0

    def _index(self, pc):
        return (pc >> 2) & self._index_mask

    def _tag(self, pc):
        return ((pc >> 2) >> self.index_bits) & self._tag_mask

    def lookup(self, pc) -> Optional[int]:
        """Return the predicted target for ``pc``, or None."""
        index = self._index(pc)
        if self._targets[index] is not None and \
                self._tags[index] == self._tag(pc):
            self.hits += 1
            return self._targets[index]
        self.misses += 1
        return None

    def update(self, pc, target):
        """Record the resolved target of a taken branch."""
        index = self._index(pc)
        self._targets[index] = target
        self._tags[index] = self._tag(pc)
