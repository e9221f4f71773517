"""Main-memory value store and the request-based contention channel.

Table 1 describes memory as a "request-based contention model, 200 cycle".
:class:`MemoryChannel` implements that: each request occupies the channel
for a configurable number of cycles, so bursts of misses queue up and see
progressively longer latencies — which is what limits how much MLP both
the out-of-order window and runahead can actually extract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..isa.instructions import WORD_BYTES


class MainMemory:
    """Flat word-granular value store — the single source of data truth.

    Committed stores write here; caches only track presence.  Values are
    arbitrary Python objects (ints for integer words, floats for fp words),
    matching the interpreter's semantics exactly so differential tests can
    compare end states directly.
    """

    def __init__(self, image=None):
        self._words: Dict[int, object] = {}
        if image is not None:
            self._words.update(image.initial_words())

    def read_word(self, addr):
        if addr % WORD_BYTES:
            raise ValueError(f"misaligned load address: {addr:#x}")
        return self._words.get(addr, 0)

    def write_word(self, addr, value):
        if addr % WORD_BYTES:
            raise ValueError(f"misaligned store address: {addr:#x}")
        self._words[addr] = value


@dataclass
class ChannelStats:
    requests: int = 0
    queued_cycles: int = 0


class MemoryChannel:
    """Single memory channel with fixed service latency plus occupancy.

    A request arriving at cycle ``now`` starts at ``max(now, next_free)``,
    holds the channel for ``occupancy`` cycles, and completes
    ``latency`` cycles after its start.
    """

    def __init__(self, latency=200, occupancy=8):
        if latency <= 0 or occupancy < 0:
            raise ValueError("latency must be positive, occupancy >= 0")
        self.latency = latency
        self.occupancy = occupancy
        self._next_free = 0
        self.stats = ChannelStats()

    def request(self, now):
        """Issue a request; returns its completion cycle."""
        start = now if now > self._next_free else self._next_free
        self._next_free = start + self.occupancy
        self.stats.requests += 1
        self.stats.queued_cycles += start - now
        return start + self.latency
