"""The default synthetic trace suite.

:func:`trace_suite` builds the ``trace-<family>`` replay workloads the
harness registry exposes.
"""

from __future__ import annotations

from typing import Dict

from ..workloads.base import Workload
from .replay import TraceReplayWorkload
from .synthetic import TRACE_FAMILIES, synthetic_trace

#: memory_bound flags for the default suite (report metadata: expected
#: to benefit from runahead).  The chase + arc streams and the pure
#: streams are memory-bound; gcc's short reused runs and zipf's hot set
#: are mostly cache-resident.
_SUITE_MEMORY_BOUND = {
    "mcf": True,
    "stream": True,
    "gcc": False,
    "zipf": False,
}


#: Memoized default suite: generators are pure functions of committed
#: constants and `Workload`s are read-only after construction, so one
#: instance per process serves every trial — `get_workload` runs once
#: per trial, and regenerating four traces (plus their sha256 digests)
#: there would tax even non-trace sweeps.
_SUITE: Dict[str, Workload] = {}


def trace_suite() -> Dict[str, Workload]:
    """Default synthetic trace workloads, keyed ``trace-<family>``."""
    if not _SUITE:
        for family in TRACE_FAMILIES:
            workload = TraceReplayWorkload(
                synthetic_trace(family),
                memory_bound=_SUITE_MEMORY_BOUND.get(family, True),
                name=f"trace-{family}")
            _SUITE[workload.name] = workload
    return dict(_SUITE)
