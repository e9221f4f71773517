"""The record → replay → record round-trip property.

The lowering contract of :class:`repro.trace.replay.TraceReplayWorkload`
is that a replayed program reproduces the source trace's *address
stream* (kind, address and address-dependence, in order) and *taken
stream* exactly, as observed by the reference interpreter — with the
replay's own bookkeeping (the branch-pattern array) excluded via
:func:`tests.trace.record.internal_ranges`.
"""

import pytest

from repro.harness.registry import get_workload
from repro.trace import TRACE_FAMILIES, TraceReplayWorkload, synthetic_trace

from .record import internal_ranges, record_trace

#: Parameter points per family — small, but covering the stride mix,
#: entropy and footprint axes (a poor man's property-based grid; every
#: generator is deterministic, so these are stable).
FAMILY_POINTS = [
    ("mcf", {}),
    ("mcf", {"events": 500, "arcs": 0, "branch_entropy": 0.5}),
    ("mcf", {"events": 400, "footprint_bytes": 4096, "arcs": 3,
             "arc_stride_lines": 7}),
    ("stream", {}),
    ("stream", {"events": 300, "streams": 4, "stride_bytes": 8}),
    ("gcc", {}),
    ("gcc", {"events": 350, "store_fraction": 0.5, "branch_entropy": 0.5}),
    ("zipf", {}),
    ("zipf", {"events": 300, "hot_fraction": 0.5, "branch_every": 2}),
]


def _round_trip(trace):
    workload = TraceReplayWorkload(trace)
    recorded = record_trace(workload,
                            exclude_ranges=internal_ranges(workload))
    return workload, recorded


@pytest.mark.parametrize("family,params", FAMILY_POINTS)
def test_synthetic_round_trip(family, params):
    trace = synthetic_trace(family, **params)
    _, recorded = _round_trip(trace)
    assert [(e.kind, e.address, e.depends) for e in recorded.events
            if e.is_memory] == \
           [(e.kind, e.address, e.depends) for e in trace.events
            if e.is_memory]
    assert recorded.taken_stream() == trace.taken_stream()


@pytest.mark.parametrize("workload", ["mcf", "lbm", "reference"])
def test_recorded_workload_round_trip(workload):
    """Traces recorded from real kernels survive the round trip too."""
    trace = record_trace(get_workload(workload))
    _, recorded = _round_trip(trace)
    assert [(e.kind, e.address, e.depends) for e in recorded.events
            if e.is_memory] == \
           [(e.kind, e.address, e.depends) for e in trace.events
            if e.is_memory]
    assert recorded.taken_stream() == trace.taken_stream()


def test_every_family_is_covered():
    assert {family for family, _ in FAMILY_POINTS} == set(TRACE_FAMILIES)


def test_recorder_detects_pointer_chase_dependence():
    """The mcf kernel's next-pointer walk records as dependent loads."""
    trace = record_trace(get_workload("mcf"))
    assert sum(e.depends for e in trace.events) > 100
    # The streaming kernel has no address dependence at all.
    assert not any(e.depends for e in record_trace(get_workload("lbm")).events)


def test_replay_runs_on_the_cycle_core():
    """The replayed program halts on the pipeline and commits exactly
    the instructions the straight-line lowering emitted (each *taken*
    replay branch skips its not-taken-path nop)."""
    trace = synthetic_trace("stream", events=200)
    workload = TraceReplayWorkload(trace)
    core = workload.run()
    program, _, _ = workload.materialize()
    assert core.halted
    skipped = sum(trace.taken_stream())
    assert core.stats.committed == len(program.instructions) - skipped
