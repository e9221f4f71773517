"""Replay workload semantics: dependence, registry, presets."""

from dataclasses import replace

import pytest

from repro.harness import presets
from repro.harness.registry import get_workload, workloads
from repro.runahead.base import NoRunahead
from repro.runahead.original import OriginalRunahead
from repro.trace import (Trace, TraceReplayWorkload, pointer_chase_trace,
                         synthetic_trace, trace_suite)


class TestDependenceLowering:
    def test_dependent_chase_serializes_the_baseline(self):
        """The dep-load re-serialization is load-bearing: stripping the
        flags lets the plain OoO core extract the chase's MLP itself
        (higher baseline IPC), while the faithful replay keeps the
        chase serial and leaves the gain to runahead's arc prefetches —
        the mcf asymmetry the trace engine exists to reproduce."""
        trace = pointer_chase_trace(events=800)
        stripped = Trace(name="flat",
                         events=[replace(e, depends=False)
                                 for e in trace.events],
                         meta=trace.meta)
        faithful = TraceReplayWorkload(trace, name="faithful")
        parallel = TraceReplayWorkload(stripped, name="parallel")
        base_faithful = faithful.run(runahead=NoRunahead()).stats
        base_parallel = parallel.run(runahead=NoRunahead()).stats
        assert base_faithful.ipc < base_parallel.ipc
        ra_faithful = faithful.run(runahead=OriginalRunahead()).stats
        speedup = ra_faithful.ipc / base_faithful.ipc
        assert speedup > 1.3, "runahead must reclaim the arc MLP"

    def test_memory_bound_trace_families_gain_from_runahead(self):
        for name in ("trace-mcf", "trace-stream"):
            workload = get_workload(name)
            base = workload.run(runahead=NoRunahead()).stats
            cont = workload.run(runahead=OriginalRunahead()).stats
            assert cont.ipc > base.ipc, name


class TestRegistry:
    def test_suite_names_resolve(self):
        table = workloads()
        for name in ("trace-mcf", "trace-stream", "trace-gcc",
                     "trace-zipf"):
            assert name in table
            assert table[name].name == name

    def test_trace_suite_is_reproducible(self):
        first = trace_suite()["trace-mcf"]
        second = trace_suite()["trace-mcf"]
        assert first.cache_key == second.cache_key
        assert first.trace.digest() == second.trace.digest()

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="rounds"):
            TraceReplayWorkload(synthetic_trace("stream", events=40),
                                rounds=0)


class TestPresets:
    def test_trace_presets_exist_and_resolve(self):
        for name in ("fig7_traces", "trace_pressure_sweep"):
            sweep = presets.get(name).build()
            assert len(sweep) > 0
            quick = presets.get(name).build(quick=True)
            assert 0 < len(quick) <= len(sweep)

    def test_fig7_traces_covers_the_suite(self):
        sweep = presets.get("fig7_traces").build()
        assert {t.params["workload"] for t in sweep} == \
            set(presets.TRACE_KERNELS)

    def test_trace_pressure_rows(self):
        sweep = presets.get("trace_pressure_sweep").build()
        for trial in sweep:
            assert trial.kind == "extract"
            assert trial.params["cores"] >= 2
            if trial.params.get("corunner"):
                assert trial.params["corunner"].startswith("trace-")
                assert trial.params["corunner_runahead"] == "original"
        corunners = {t.params.get("corunner") for t in sweep}
        assert corunners == {None, "trace-stream", "trace-mcf"}
