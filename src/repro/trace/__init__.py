"""Trace-driven workload engine.

Compiles synthetic memory-access traces into ISA programs runnable in
any victim or co-runner slot:

* :mod:`repro.trace.format` — the :class:`Trace`/:class:`TraceEvent`
  model;
* :mod:`repro.trace.replay` — :class:`TraceReplayWorkload`, lowering a
  trace into a program with verbatim addresses (set-index geometry
  preserved), re-serialized dependent loads, and data-dependent
  branches that replay the generated outcome pattern;
* :mod:`repro.trace.synthetic` — SPEC-like generators (mcf pointer
  chase, lbm streaming, gcc mixed, zipfian hot/cold);
* :mod:`repro.trace.suite` — the default replay suite.

:func:`trace_suite` names the default synthetic replay workloads
(``trace-mcf``/``trace-stream``/``trace-gcc``/``trace-zipf``) that the
harness registry exposes next to the Fig. 7 kernels.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "format": ("BRANCH", "LOAD", "STORE", "Trace", "TraceEvent"),
    "replay": ("TraceReplayWorkload", "lower_trace", "pattern_region"),
    "suite": ("trace_suite",),
    "synthetic": ("TRACE_FAMILIES", "mixed_trace", "pointer_chase_trace",
                  "streaming_trace", "synthetic_trace", "zipfian_trace"),
})
