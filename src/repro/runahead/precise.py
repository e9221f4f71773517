"""Precise runahead execution (Naithani et al., HPCA 2020).

PRE executes only the *stall slices* — the chains of instructions that
compute load addresses — during runahead mode, using free back-end
resources instead of a full checkpoint/flush.  We model the filtering
behaviour: at dispatch, instructions outside the static backward slice of
any load address (and that are not loads or branches) are dropped — they
complete immediately with INV results and consume no issue queue or
functional units.  Branch instructions still execute and resolve as usual
("the front-end relies on the branch predictor to steer the flow of
execution in runahead mode", §4.3) — which is exactly why PRE remains
vulnerable: an INV-source branch steers the slice down the poisoned path.

The slice is computed once per program by a reverse worklist over a
flow-insensitive register-to-producers map; over-approximation errs toward
executing more, which is conservative for both performance and the attack.
"""

from __future__ import annotations

from ..isa.instructions import Opcode
from ..isa.program import Program
from .original import OriginalRunahead


def compute_stall_slices(program: Program):
    """Return the set of instruction indices in any load-address slice.

    Flow-insensitive: every definition of a register reaches every use,
    so the producers of a register are all instructions that write it,
    wherever they sit.  The worklist and the slice start as every load
    and RET; popping an index adds each not-yet-seen producer of its
    sources.  Each instruction enters the worklist at most once, so the
    cost is linear in the def-use edges.
    """
    instructions = program.instructions
    producers = {}
    for index, instr in enumerate(instructions):
        if instr.dest is not None:
            producers.setdefault(instr.dest, []).append(index)

    worklist = [index for index, instr in enumerate(instructions)
                if instr.is_load() or instr.opcode is Opcode.RET]
    slice_set = set(worklist)
    while worklist:
        for src in instructions[worklist.pop()].srcs:
            for producer in producers.get(src, ()):
                if producer not in slice_set:
                    slice_set.add(producer)
                    worklist.append(producer)
    return slice_set


class PreciseRunahead(OriginalRunahead):
    """Stall-slice-filtered runahead."""

    name = "precise"

    def __init__(self, min_stall_latency=0):
        super().__init__(min_stall_latency=min_stall_latency)
        self._slices = None

    def attach(self, core):
        super().attach(core)
        self._slices = compute_stall_slices(core.program)

    def filter_dispatch(self, core, instr, pc) -> bool:
        # Per-dispatch hot path in runahead mode: read the decode-time
        # flags instead of calling the predicate methods.
        if instr.branch or instr.load:
            return True
        if instr.opcode is Opcode.CLFLUSH:
            return True
        return (pc >> 2) in self._slices
