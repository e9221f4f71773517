"""Vector runahead execution (Naithani et al., ISCA 2021).

VR vectorizes striding loads during runahead: instead of running ahead
scalar-instruction by scalar-instruction, it issues many future loop
iterations' loads at once.  Scalar branches become predicate masks whose
direction is taken from the first lane (§4.3 of the SPECRUN paper), so
INV-source branches behave exactly as in original runahead — predicted,
never resolved — and the attack applies unchanged.

Modeling decisions (recorded in DESIGN.md): stride detection uses a
per-PC reference-prediction table trained on every executed load; once a
stride is confident, each runahead execution of that load issues
``vector_lanes`` additional line prefetches.  Gather re-vectorization of
*dependent* (pointer-chasing) loads is not modeled.
"""

from __future__ import annotations

from .original import OriginalRunahead


class _StrideEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, addr):
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0

    def observe(self, addr):
        stride = addr - self.last_addr
        if stride != 0 and stride == self.stride:
            self.confidence += 1
        else:
            self.stride = stride
            self.confidence = 0 if stride == 0 else 1
        self.last_addr = addr


class VectorRunahead(OriginalRunahead):
    """Original runahead + stride-detected multi-lane prefetching."""

    name = "vector"

    def __init__(self, min_stall_latency=0, lanes=None, confidence=None):
        super().__init__(min_stall_latency=min_stall_latency)
        self._lanes = lanes
        self._confidence = confidence
        self._table = {}

    def attach(self, core):
        super().attach(core)
        if self._lanes is None:
            self._lanes = core.config.runahead.vector_lanes
        if self._confidence is None:
            self._confidence = core.config.runahead.stride_confidence

    def _observe(self, pc, addr):
        entry = self._table.get(pc)
        if entry is None:
            self._table[pc] = _StrideEntry(addr)
            return None
        entry.observe(addr)
        if entry.confidence >= self._confidence:
            return entry.stride
        return None

    def on_normal_load(self, core, entry, result):
        self._observe(entry.pc, entry.mem_addr)

    def on_runahead_load(self, core, entry, result):
        """Issue vector lanes ahead of a confident striding load."""
        stride = self._observe(entry.pc, entry.mem_addr)
        if stride is None:
            return
        line_bytes = core.config.hierarchy.line_bytes
        issued_lines = {core.hierarchy.line_of(entry.mem_addr)}
        for lane in range(1, self._lanes + 1):
            addr = entry.mem_addr + lane * stride
            if addr < 0:
                break
            line = core.hierarchy.line_of(addr)
            if line in issued_lines:
                continue
            issued_lines.add(line)
            core.hierarchy.access_data(addr, core.cycle, prefetch=True)
            core.stats.vector_prefetches += 1
