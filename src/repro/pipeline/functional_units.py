"""Functional-unit pool.

Units are fully pipelined: each unit accepts one operation per cycle and
produces its result ``latency`` cycles later.  (Real integer dividers are
usually iterative; modeling them as pipelined slightly favours
divide-heavy code and is irrelevant to every experiment in the paper.)

The pool is three flat lists indexed by the integer
:class:`~repro.isa.instructions.FuKind` value — no dict hashing on the
hot path, and the per-cycle reset is a single list copy.

Slot accounting is this contract.  The core's issue stage tests every
instruction's slot inline and claims it inline for integer ALU ops,
conditional branches, floating-point arithmetic and its inline loads;
the general issue path (:mod:`repro.pipeline.issue`) claims through
:meth:`issue`, and ``ret`` tests its MEM port with :meth:`can_issue`:

* ``used`` is replaced only by the core's ``step``, with a copy of
  ``_zero``, once per cycle;
* a kind has a free slot while ``used[kind] < counts[kind]``;
* a claim is ``used[kind] += 1`` and its result arrives
  ``latencies[kind]`` cycles later.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..isa.instructions import NUM_FU_KINDS, FuKind


class FunctionalUnitPool:
    """Tracks per-cycle issue-slot availability for each unit kind."""

    def __init__(self, config: Dict[FuKind, Tuple[int, int]]):
        self.counts = [0] * NUM_FU_KINDS
        self.latencies = [0] * NUM_FU_KINDS
        for kind, (count, latency) in config.items():
            self.counts[kind] = count
            self.latencies[kind] = latency
        self._zero = [0] * NUM_FU_KINDS
        #: Slots claimed this cycle, per unit kind.
        self.used = [0] * NUM_FU_KINDS

    def can_issue(self, kind) -> bool:
        return self.used[kind] < self.counts[kind]

    def issue(self, kind) -> int:
        """Claim a slot; returns the operation latency."""
        used = self.used[kind]
        if used >= self.counts[kind]:
            raise RuntimeError(f"no free {FuKind(kind).label} unit")
        self.used[kind] = used + 1
        return self.latencies[kind]
