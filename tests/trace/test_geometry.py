"""Replay preserves the source trace's cache-set geometry.

Regression guard for the lowering's address mapping: today replay keeps
traced byte addresses verbatim, so set indices match by identity.  If
the lowering ever starts remapping addresses (compaction, window
packing), these tests pin the actual contract — the *set index
sequence* at every cache level, and the line-footprint size, must
survive — which is exactly what makes trace pressure representative.
"""

import pytest

from repro.harness.registry import make_config
from repro.trace import (BRANCH, Trace, TraceReplayWorkload, pattern_region,
                         synthetic_trace)

from .record import footprint_lines, internal_ranges, record_trace, set_stream

GEOMETRIES = ("l1d", "l2", "l3")


@pytest.fixture(scope="module")
def hierarchy():
    return make_config("paper").hierarchy


@pytest.mark.parametrize("family", ["mcf", "stream", "gcc", "zipf"])
def test_replay_preserves_set_index_sequence(family, hierarchy):
    trace = synthetic_trace(family, events=400)
    workload = TraceReplayWorkload(trace)
    replayed = record_trace(workload,
                            exclude_ranges=internal_ranges(workload))
    for level in GEOMETRIES:
        config = getattr(hierarchy, level)
        assert set_stream(replayed, config.n_sets, config.line_bytes) == \
            set_stream(trace, config.n_sets, config.line_bytes), level
    assert footprint_lines(replayed) == footprint_lines(trace)


def test_pattern_region_sits_above_the_trace_footprint():
    """The lowering's one artifact (the branch-pattern array) must not
    collide with any traced line."""
    trace = synthetic_trace("gcc", events=400)
    region = pattern_region(trace)
    assert region is not None
    start, end = region
    assert start % 64 == 0
    assert start > trace.max_address()
    assert (end - start) // 8 == len(trace.taken_stream())


def test_branchless_trace_has_no_pattern_region():
    trace = synthetic_trace("stream", events=120, branch_entropy=0.0)
    branchless = Trace(name="nobranch", events=[
        e for e in trace.events if e.kind != BRANCH])
    assert pattern_region(branchless) is None
    workload = TraceReplayWorkload(branchless)
    assert internal_ranges(workload) == ()
    assert workload.run().halted


def test_rounds_replay_the_stream_repeatedly():
    trace = synthetic_trace("stream", events=150)
    once = TraceReplayWorkload(trace, rounds=1, name="r1")
    twice = TraceReplayWorkload(trace, rounds=2, name="r2")
    rec1 = record_trace(once, exclude_ranges=internal_ranges(once))
    rec2 = record_trace(twice, exclude_ranges=internal_ranges(twice))
    mem1 = [(e.kind, e.address) for e in rec1.events if e.is_memory]
    mem2 = [(e.kind, e.address) for e in rec2.events if e.is_memory]
    assert mem2 == mem1 * 2
    # Distinct cache keys: the two programs must not share a build.
    assert once.cache_key != twice.cache_key
