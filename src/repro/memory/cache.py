"""Set-associative cache (tags and recency only).

The simulator keeps a single coherent value store (main memory, updated at
commit); caches track *presence* and *recency*, which is what all the
timing — and the entire covert channel — depends on.  A line is either
present in a cache level or not; ``clflush`` removes it from every level.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    ``latency`` is the lookup latency charged when this level is reached;
    total access latency is the sum of latencies along the walk, as in
    Table 1 of the paper (L1 2, L2 8, L3 32, memory 200).
    """

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 2

    def __post_init__(self):
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(
                f"{self.name}: size must be a multiple of assoc * line size")

    @property
    def n_sets(self):
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0


class SetAssociativeCache:
    """One level of set-associative cache with LRU replacement.

    A set's way list is an :class:`OrderedDict` of tags from least to
    most recently used: a hit moves its tag to the end, and a full set
    evicts its first tag.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # A set's way list is created by its first fill; ``None`` is an
        # empty set, so building a cache costs nothing per set.
        self._sets = [None] * config.n_sets
        self._set_shift = (config.line_bytes - 1).bit_length()
        self._set_mask = config.n_sets - 1
        if config.n_sets & self._set_mask:
            raise ValueError(f"{config.name}: set count must be a power of 2")
        self.stats = CacheStats()
        #: Bumped by every change to contents or recency (fill,
        #: invalidate, recency-updating hit): while it holds, a
        #: line last hit here is still resident and most recent in its
        #: set, so ``Core._fetch`` re-hits it without a lookup.
        self.mutations = 0

    # -- address mapping -------------------------------------------------------

    def _set_and_tag(self, addr):
        line = addr >> self._set_shift
        return self._sets[line & self._set_mask], line

    # -- operations --------------------------------------------------------------

    def probe(self, addr):
        """Presence check with no side effects (no recency update, no stats)."""
        # _set_and_tag, inline: a receiver's walk probes every level.
        tag = addr >> self._set_shift
        ways = self._sets[tag & self._set_mask]
        return ways is not None and tag in ways

    def lookup(self, addr):
        """Return True on hit.  Updates recency and hit/miss statistics."""
        ways, tag = self._set_and_tag(addr)
        if ways is not None and tag in ways:
            ways.move_to_end(tag)
            self.mutations += 1
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr):
        """Insert the line holding ``addr``; returns the evicted line or None."""
        tag = addr >> self._set_shift
        index = tag & self._set_mask
        ways = self._sets[index]
        self.mutations += 1
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif tag in ways:
            ways.move_to_end(tag)
            return None
        evicted = None
        if len(ways) >= self.config.assoc:
            victim = next(iter(ways))
            del ways[victim]
            evicted = victim << self._set_shift
            self.stats.evictions += 1
        ways[tag] = None
        self.stats.fills += 1
        return evicted

    def invalidate(self, addr):
        """Remove the line holding ``addr``; returns True if it was present."""
        ways, tag = self._set_and_tag(addr)
        if ways is not None and tag in ways:
            del ways[tag]
            self.mutations += 1
            self.stats.invalidations += 1
            return True
        return False

