"""Execution statistics collected by the core.

Everything the benchmarks report comes from here: IPC (Fig. 7), transient
instruction counts (Fig. 10), runahead episode accounting, and branch /
cache statistics for the analysis notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CoreStats:
    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    dispatched: int = 0
    issued: int = 0
    squashed: int = 0
    branch_mispredicts: int = 0
    fence_stalls: int = 0

    # Runahead accounting.
    runahead_episodes: int = 0
    runahead_cycles: int = 0
    pseudo_retired: int = 0
    inv_branches: int = 0          # branches never resolved (the attack surface)
    inv_instructions: int = 0      # instructions poisoned by INV sources
    runahead_prefetches: int = 0   # memory-level misses launched in runahead
    filtered_instructions: int = 0 # precise runahead: non-slice drops
    vector_prefetches: int = 0     # vector runahead: extra lanes issued

    # Transient-window accounting (Fig. 10): instructions that entered
    # execution but never architecturally committed.
    transient_executed: int = 0

    @property
    def ipc(self):
        return self.committed / self.cycles if self.cycles else 0.0

    def summary(self):
        """Short human-readable digest."""
        lines = [
            f"cycles={self.cycles} committed={self.committed} "
            f"ipc={self.ipc:.3f}",
            f"branch mispredicts={self.branch_mispredicts} "
            f"squashed={self.squashed}",
        ]
        if self.runahead_episodes:
            lines.append(
                f"runahead: episodes={self.runahead_episodes} "
                f"cycles={self.runahead_cycles} "
                f"pseudo-retired={self.pseudo_retired} "
                f"prefetches={self.runahead_prefetches} "
                f"inv-branches={self.inv_branches}")
        return "\n".join(lines)


#: Why an eligible front-end head could not dispatch, in the order the
#: dispatch stage tests them (pyArchSim's ``'ROB_FULL'``-style reasons).
STALL_REASONS = ("fence", "rob", "rename-int", "rename-fp", "rename-vec",
                 "lq", "sq", "iq")


class DispatchStalls:
    """Dispatch-stall reasons, counted on the idle path only.

    Kept outside :class:`CoreStats` so the golden fixtures and the
    dispatch hot path are untouched.  For each reason, ``steps`` counts
    idle steps whose front-end head was blocked by it and ``skipped``
    the stride steps the core jumped over instead of taking; their sum
    is the blocked steps a core without the skip would have taken.
    """

    __slots__ = ("steps", "skipped")

    def __init__(self):
        self.steps = dict.fromkeys(STALL_REASONS, 0)
        self.skipped = dict.fromkeys(STALL_REASONS, 0)

    def record(self, reason, skipped):
        self.steps[reason] += 1
        self.skipped[reason] += skipped
