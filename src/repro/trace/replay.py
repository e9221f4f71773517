"""Lower a trace back into a runnable ISA program.

:class:`TraceReplayWorkload` is a :class:`~repro.workloads.base.Workload`
whose ``build`` compiles a :class:`~repro.trace.format.Trace` into a
:class:`~repro.isa.program.Program` through the
:class:`~repro.isa.builder.ProgramBuilder`.  The lowering contract:

* **Addresses are preserved verbatim** — every memory event becomes one
  ``load``/``store`` at the traced byte address (``r0``-relative with
  the address as immediate), so line and set-index geometry match the
  source execution on *every* cache level by identity.  Pinned by
  ``tests/trace/test_geometry.py``.
* **Dependent loads re-serialize.**  A load recorded with
  ``depends=True`` gets its base register derived (via an always-zero
  ``sltu``) from the most recent load's destination, so its address
  resolves only after that load returns — in runahead mode the address
  goes INV during a stall, exactly like mcf's next-pointer chase.
  Independent loads use ``r0`` directly and issue with full
  memory-level parallelism.
* **Branch outcomes replay data-dependently.**  The taken/not-taken
  bits are compiled into a side array (one word per branch event); each
  branch event loads its bit and conditionally skips a ``nop``, so the
  branch resolves from loaded data and the direction predictor observes
  the source execution's exact outcome sequence.  The side array is the
  one address-space artifact of the lowering (a sequential ~8 B/branch
  stream placed above the trace's own footprint); :func:`pattern_region`
  locates it so a re-recording can exclude it — which is how the
  round-trip test closes.
* ``rounds > 1`` wraps the body in a counted loop (one extra
  always/last-not-taken branch per round) and replays the same event
  stream again — steady-state cache behaviour instead of a cold sweep.

With ``rounds=1`` the body is straight-line code: the replayed
instruction stream contains *no* control-flow or memory events beyond
the trace's own (plus the pattern-array loads, which are excludable),
giving the exact round-trip ``record(replay(T)) == T``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa.builder import ProgramBuilder
from ..isa.memory_image import DEFAULT_BASE, MemoryImage
from ..workloads.base import Workload
from .format import BRANCH, LOAD, STORE, Trace

#: Symbol name of the branch-pattern side array.
PATTERN_SYMBOL = "trace_pattern"

#: Replay register conventions (all scratch; the program owns the file).
_DEST_REGS = ("r16", "r17", "r18", "r19")   # rotating load destinations
_DEP_BASE = "r11"                           # zero derived from last load
_PATTERN_VALUE = "r13"                      # current branch-pattern word
_STORE_VALUE = "r14"                        # constant store payload
_PATTERN_PTR = "r15"                        # pattern-array walk pointer
_ROUND_COUNT = "r12"                        # outer-loop counter

#: Guard against traces that would lower into programs far beyond any
#: realistic instruction footprint (the frontend model fetches real
#: code bytes, so replay code must stay within sane bounds).
MAX_REPLAY_INSTRUCTIONS = 200_000

_LINE = 64


def pattern_region(trace: Trace) -> Optional[Tuple[int, int]]:
    """Address window of the branch-pattern array, or ``None``.

    A pure function of the trace: the array starts one cache line above
    the highest traced address (never below the default image base) and
    holds one word per branch event.  The lowering places the array
    here, so the region is known without building the program.
    """
    n_branches = sum(1 for e in trace.events if e.kind == BRANCH)
    if not n_branches:
        return None
    top = max(trace.max_address() + _LINE, DEFAULT_BASE)
    base = -(-top // _LINE) * _LINE
    return base, base + n_branches * 8


def lower_trace(trace: Trace, rounds: int = 1):
    """Compile a trace into ``(program, image, initial_sp=None)``."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    region = pattern_region(trace)
    image = MemoryImage(base=region[0] if region else DEFAULT_BASE)
    if region:
        n_branches = (region[1] - region[0]) // 8
        image.alloc_array(PATTERN_SYMBOL, n_branches)
        for i, taken in enumerate(trace.taken_stream()):
            if taken:
                image.write_word(region[0] + i * 8, 1)

    builder = ProgramBuilder(image)
    builder.comment(f"trace replay: {trace.name} "
                    f"({len(trace.events)} events, rounds={rounds})")
    builder.li(_STORE_VALUE, 7)
    if rounds > 1:
        builder.li(_ROUND_COUNT, rounds)
        builder.mark("round")
    if region:
        builder.li(_PATTERN_PTR, f"@{PATTERN_SYMBOL}")

    n_instructions = 0
    dest_cursor = 0
    last_dest = None
    for event in trace.events:
        if event.kind == LOAD:
            dest = _DEST_REGS[dest_cursor]
            dest_cursor = (dest_cursor + 1) % len(_DEST_REGS)
            if event.depends and last_dest is not None:
                builder.sltu(_DEP_BASE, last_dest, "r0")
                builder.load(dest, _DEP_BASE, event.address)
                n_instructions += 2
            else:
                builder.load(dest, "r0", event.address)
                n_instructions += 1
            last_dest = dest
        elif event.kind == STORE:
            builder.store(_STORE_VALUE, "r0", event.address)
            n_instructions += 1
        else:  # BRANCH
            label = builder.fresh_label("taken")
            builder.load(_PATTERN_VALUE, _PATTERN_PTR, 0)
            builder.addi(_PATTERN_PTR, _PATTERN_PTR, 8)
            builder.bne(_PATTERN_VALUE, "r0", label)
            builder.nop()
            builder.mark(label)
            n_instructions += 4
        if n_instructions > MAX_REPLAY_INSTRUCTIONS:
            raise ValueError(
                f"trace {trace.name!r} lowers to more than "
                f"{MAX_REPLAY_INSTRUCTIONS} instructions; generate it "
                f"with fewer events")

    if rounds > 1:
        builder.addi(_ROUND_COUNT, _ROUND_COUNT, -1)
        builder.bne(_ROUND_COUNT, "r0", "round")
    builder.halt()
    return builder.build(), image, None


class TraceReplayWorkload(Workload):
    """A workload that replays a trace through the lowering above.

    Drop-in wherever a :class:`~repro.workloads.base.Workload` is
    accepted: the Fig. 7 IPC slot, the multi-core co-runner slot
    (``Topology(corunner=...)``), ``repro run ipc workload=...``.  The
    build is memoized under the trace's content digest, so sweeps with
    many trials assemble each replay program once.
    """

    def __init__(self, trace: Trace, rounds: int = 1,
                 name: Optional[str] = None,
                 description: Optional[str] = None,
                 memory_bound: bool = True):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.trace = trace
        self.rounds = rounds
        Workload.__init__(
            self, name=name or f"trace-{trace.name}",
            description=description or
            f"trace replay of {trace.name!r} "
            f"({len(trace.events)} events x{rounds})",
            build=self._build_products, memory_bound=memory_bound,
            cache_key=f"trace/{trace.digest()}/{rounds}")

    def _build_products(self):
        return lower_trace(self.trace, rounds=self.rounds)
