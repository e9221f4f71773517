"""The tracing determinism contract.

Attaching any sink must not change simulated behaviour by one bit:
``CoreStats``, the architectural state and the transient-window depth
with tracing on equal those with tracing off, for every machine the
golden-stats suite pins.  This is what keeps the
golden fixtures and the 1-vs-N byte-identity gate valid with
observability enabled.
"""

import dataclasses

import pytest

from repro.harness.registry import get_workload, make_controller
from repro.obs import (EV_COMMIT, EV_MEM_ACCESS, EV_RA_ENTER, EV_RA_EXIT,
                       FileSink, load_events)
from repro.obs.events import EVENT_SCHEMA
from tests.sim import MemorySink, architectural_state

MACHINES = ("none", "original", "secure")


def run_stats(workload_name, controller_name, trace=None):
    workload = get_workload(workload_name)
    controller = make_controller(controller_name) \
        if controller_name != "none" else None
    core = workload.run(runahead=controller, trace=trace)
    stats = dataclasses.asdict(core.stats)
    stats["architectural_state"] = architectural_state(core)
    stats["transient_window_max"] = core.transient_window_max
    return stats


class TestDeterminism:
    @pytest.mark.parametrize("controller", MACHINES)
    def test_stats_identical_with_and_without_sink(self, controller):
        baseline = run_stats("mcf", controller)
        sink = MemorySink()
        traced = run_stats("mcf", controller, trace=sink)
        assert traced == baseline
        assert len(sink) > 0

    def test_streaming_workload_too(self):
        baseline = run_stats("gems", "original")
        traced = run_stats("gems", "original", trace=MemorySink())
        assert traced == baseline

    def test_ring_sink_does_not_change_stats_either(self):
        baseline = run_stats("mcf", "original")
        traced = run_stats("mcf", "original",
                           trace=MemorySink(capacity=64))
        assert traced == baseline


class TestSinks:
    def test_ring_capacity_bounds_memory(self):
        sink = MemorySink(capacity=100)
        for cycle in range(1000):
            sink.emit(cycle, EV_COMMIT, cycle, 0)
        assert len(sink) == 100
        # Flight-recorder semantics: the *last* events survive.
        assert sink.events[0][0] == 900
        assert sink.events[-1][0] == 999

    def test_file_sink_round_trips_the_memory_stream(self, tmp_path):
        workload = get_workload("mcf")
        memory = MemorySink()
        workload.run(runahead=make_controller("original"), trace=memory)
        path = tmp_path / "mcf.evt"
        with FileSink(path) as file_sink:
            workload.run(runahead=make_controller("original"),
                         trace=file_sink)
        assert file_sink.count == len(memory)
        assert load_events(path) == memory.events

    def test_attach_sink_covers_core_and_hierarchy(self):
        """``Workload.run(trace=...)`` points the core and its memory
        hierarchy at the sink, so both emit into it."""
        sink = MemorySink()
        core = get_workload("mcf").run(runahead=make_controller("original"),
                                       trace=sink)
        assert core.trace is sink
        assert core.hierarchy.trace is sink
        kinds = {event[1] for event in sink.events}
        assert {EV_COMMIT, EV_MEM_ACCESS} <= kinds


class TestEventContent:
    def test_traced_run_emits_every_pipeline_stage(self):
        sink = MemorySink()
        stats = run_stats("mcf", "original", trace=sink)
        kinds = {event[1] for event in sink.events}
        names = {EVENT_SCHEMA[k][0] for k in kinds}
        for expected in ("fetch", "dispatch", "issue", "commit",
                         "pseudo_retire", "runahead_enter",
                         "runahead_exit", "inv", "mem_access",
                         "cache_fill"):
            assert expected in names, f"no {expected} events emitted"
        # Counted events agree with the stats the simulator reports.
        commits = sum(1 for e in sink.events if e[1] == EV_COMMIT)
        assert commits == stats["committed"]
        enters = sum(1 for e in sink.events if e[1] == EV_RA_ENTER)
        exits = sum(1 for e in sink.events if e[1] == EV_RA_EXIT)
        assert enters == exits == stats["runahead_episodes"]

    def test_cycles_are_monotonic_for_simulator_traces(self):
        sink = MemorySink()
        run_stats("mcf", "original", trace=sink)
        cycles = [event[0] for event in sink.events]
        assert cycles == sorted(cycles)
