"""Trace-driven workload engine.

Compiles recorded or synthetic memory-access traces into ISA programs
runnable in any victim or co-runner slot:

* :mod:`repro.trace.format` — the :class:`Trace`/:class:`TraceEvent`
  model and the versioned on-disk text format;
* :mod:`repro.trace.record` — capture a trace from any workload via the
  functional interpreter (with pointer-chase dependence detection);
* :mod:`repro.trace.replay` — :class:`TraceReplayWorkload`, lowering a
  trace back into a program with verbatim addresses (set-index
  geometry preserved), re-serialized dependent loads, and
  data-dependent branches that replay the recorded outcome pattern;
* :mod:`repro.trace.synthetic` — SPEC-like generators (mcf pointer
  chase, lbm streaming, gcc mixed, zipfian hot/cold);
* :mod:`repro.trace.suite` — the default replay suite and CLI
  trace-argument resolution.

:func:`trace_suite` names the default synthetic replay workloads
(``trace-mcf``/``trace-stream``/``trace-gcc``/``trace-zipf``) that the
harness registry exposes next to the Fig. 7 kernels; ``trace:<path>``
registry names replay saved trace files.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "format": ("BRANCH", "LOAD", "STORE", "Trace", "TraceEvent",
               "TraceFormatError", "load_trace", "make_trace"),
    "record": ("record_trace",),
    "replay": ("TraceReplayWorkload", "lower_trace", "pattern_region",
               "replay_workload_from_file"),
    "suite": ("resolve_trace_source", "trace_suite", "trace_workload_name"),
    "synthetic": ("TRACE_FAMILIES", "mixed_trace", "pointer_chase_trace",
                  "streaming_trace", "synthetic_trace", "zipfian_trace"),
})
