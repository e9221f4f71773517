"""The trace tests' oracle: capture a trace from a program via the
interpreter, and the cache geometry of a trace.

:func:`record_trace` steps the functional reference interpreter
(:class:`repro.isa.interpreter.Interpreter`) one instruction at a time
and writes down, in execution order:

* every load/store **word** access with its effective address —
  including the implicit stack push of ``call`` and pop of ``ret``, and
  both lanes of vector accesses (the cache sees two word addresses);
* every **conditional** branch with its taken/not-taken outcome;
* per load, whether its *address* was computed from an earlier load's
  value (``TraceEvent.depends``) — detected by propagating a
  came-from-memory taint bit through the register dataflow, so a
  pointer chase like mcf's ``load r1, r1, 0`` records as a chain of
  dependent loads and replays as one (unprefetchable by runahead).
  Taint flows through registers only; a value laundered through memory
  (stored, then reloaded) records as a fresh independent load.

Unconditional control flow (``jmp``/``jr``/``call``/``ret`` targets) is
not recorded: the event *order* already reflects it, and replay emits
straight-line code.  ``clflush`` is skipped — it is an architectural
no-op that touches no data.

Because the interpreter is the golden model the pipeline must agree
with, a trace recorded here is exactly the access stream the simulated
core replays architecturally — the round-trip property
``record(replay(T)) == T`` (addresses and taken bits) is pinned by
``tests/trace/test_roundtrip.py``.

``exclude_ranges`` drops memory events landing in given address
windows; :func:`internal_ranges` gives the replay engine's own
bookkeeping (the branch-pattern array) to hide from re-recordings.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.isa.instructions import (INSTR_BYTES, WORD_BYTES, Opcode,
                                    to_unsigned64)
from repro.isa.interpreter import Interpreter, InterpreterError
from repro.isa.registers import NUM_ARCH_REGS, REG_SP, REG_ZERO
from repro.trace.format import BRANCH, LOAD, STORE, Trace, TraceEvent
from repro.trace.replay import pattern_region

_OP_CALL = int(Opcode.CALL)
_OP_RET = int(Opcode.RET)
_OP_RDTSC = int(Opcode.RDTSC)
_VEC_OPS = (int(Opcode.VLOAD), int(Opcode.VSTORE))

DEFAULT_MAX_STEPS = 2_000_000


def _in_ranges(address: int,
               ranges: Sequence[Tuple[int, int]]) -> bool:
    for start, end in ranges:
        if start <= address < end:
            return True
    return False


def record_trace(source, name: Optional[str] = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 exclude_ranges: Iterable[Tuple[int, int]] = ()) -> Trace:
    """Interpret ``source`` and return its event trace.

    source:
        A :class:`~repro.workloads.base.Workload` (materialized and
        named automatically) or a ``(program, image, initial_sp)``
        triple as returned by ``Workload.materialize()``.
    max_steps:
        Interpreter step budget; exceeding it raises
        :class:`~repro.isa.interpreter.InterpreterError` (a trace of a
        program that never halted would be misleading).
    exclude_ranges:
        ``(start, end)`` byte windows whose memory events are dropped
        (half-open intervals).
    """
    if hasattr(source, "materialize"):
        program, image, initial_sp = source.materialize()
        if name is None:
            name = getattr(source, "name", None)
    else:
        program, image, initial_sp = source
    name = name or "recorded"
    ranges = [(int(start), int(end)) for start, end in exclude_ranges]

    interp = Interpreter(program, memory_image=image, initial_sp=initial_sp)
    events = []
    #: Per-register "this value came from memory" bit, propagated
    #: through ALU dataflow to classify load addresses as dependent.
    tainted = [False] * NUM_ARCH_REGS

    def emit(event: TraceEvent) -> None:
        if event.is_memory and ranges and _in_ranges(event.address, ranges):
            return
        events.append(event)

    while not interp.halted:
        if interp.steps >= max_steps:
            raise InterpreterError(
                f"program did not halt within {max_steps} steps "
                f"while recording trace {name!r}")
        pc = interp.pc
        instr = program.fetch(pc)
        if instr is None:
            break
        # Effective addresses are computed from pre-step register state,
        # exactly as the interpreter's own handlers do.
        if instr.load:
            base = instr.srcs[0]
            addr = to_unsigned64(interp.read_reg(base) + instr.imm)
            depends = tainted[base]
            emit(TraceEvent(pc=pc, kind=LOAD, address=addr,
                            depends=depends))
            if instr.op in _VEC_OPS:
                emit(TraceEvent(pc=pc, kind=LOAD, address=addr + WORD_BYTES,
                                depends=depends))
        elif instr.store:
            addr = to_unsigned64(interp.read_reg(instr.srcs[1]) + instr.imm)
            emit(TraceEvent(pc=pc, kind=STORE, address=addr))
            if instr.op in _VEC_OPS:
                emit(TraceEvent(pc=pc, kind=STORE,
                                address=addr + WORD_BYTES))
        elif instr.op == _OP_CALL:
            sp = to_unsigned64(interp.read_reg(REG_SP) - WORD_BYTES)
            emit(TraceEvent(pc=pc, kind=STORE, address=sp))
        elif instr.op == _OP_RET:
            sp = to_unsigned64(interp.read_reg(REG_SP))
            emit(TraceEvent(pc=pc, kind=LOAD, address=sp))
        if not interp.step():
            break
        if instr.cond_branch:
            emit(TraceEvent(pc=pc, kind=BRANCH,
                            taken=interp.pc != pc + INSTR_BYTES))
        dest = instr.dest
        if dest is not None and dest != REG_ZERO:
            if instr.load:
                tainted[dest] = True
            elif instr.op == _OP_RDTSC or not instr.srcs:
                tainted[dest] = False          # li / rdtsc: fresh value
            else:
                tainted[dest] = any(tainted[src] for src in instr.srcs)

    return Trace(name=name, events=events,
                 meta={"source": name, "steps": interp.steps})


def internal_ranges(workload) -> Tuple[Tuple[int, int], ...]:
    """Address windows of a replay workload's own bookkeeping (its
    branch-pattern array), to pass as ``exclude_ranges``."""
    region = pattern_region(workload.trace)
    return (region,) if region else ()


def footprint_lines(trace: Trace, line_bytes: int = 64) -> int:
    """Number of distinct cache lines the memory events touch."""
    return len({e.address // line_bytes for e in trace.events
                if e.is_memory})


def set_stream(trace: Trace, n_sets: int, line_bytes: int = 64) -> List[int]:
    """Cache-set index per memory event for a given geometry."""
    return [(e.address // line_bytes) & (n_sets - 1)
            for e in trace.events if e.is_memory]
