"""The default synthetic trace suite and CLI trace-argument resolution.

:func:`trace_suite` builds the ``trace-<family>`` replay workloads the
harness registry exposes; :func:`resolve_trace_source` and
:func:`trace_workload_name` turn a CLI argument (``trace:<path>``, a
family name or a file path) into a :class:`Trace` or a registry name.
"""

from __future__ import annotations

import os
from typing import Dict

from ..workloads.base import Workload
from .format import Trace, load_trace
from .replay import TraceReplayWorkload
from .synthetic import TRACE_FAMILIES, synthetic_trace


def _classify_source(arg: str):
    """Shared CLI-argument precedence: ``trace:<path>`` → synthetic
    family (``mcf`` or ``trace-mcf``) → existing file path.

    Family names win over incidental files of the same name so
    resolution never depends on the working directory; prefix with
    ``trace:`` (or ``./``) to force a file.  Returns ``("file", path)``,
    ``("family", name)`` or ``None``.
    """
    if arg.startswith("trace:"):
        return "file", arg[len("trace:"):]
    family = arg[len("trace-"):] if arg.startswith("trace-") else arg
    if family in TRACE_FAMILIES:
        return "family", family
    if os.path.isfile(arg):
        return "file", arg
    return None


def resolve_trace_source(arg: str) -> Trace:
    """Resolve a CLI trace argument to a :class:`Trace`.

    Precedence (see :func:`_classify_source`): explicit ``trace:<path>``
    file, then synthetic family (``mcf``/``stream``/``gcc``/``zipf`` or
    their ``trace-*`` workload spellings), then an existing file path.
    """
    kind = _classify_source(arg)
    if kind is None:
        raise FileNotFoundError(
            f"no trace file or synthetic family named {arg!r} "
            f"(families: {sorted(TRACE_FAMILIES)})")
    if kind[0] == "file":
        return load_trace(kind[1])
    return synthetic_trace(kind[1])


def trace_workload_name(arg: str) -> str:
    """Normalize a CLI trace argument to a registry workload name.

    Same precedence as :func:`resolve_trace_source`; an unresolvable
    argument passes through unchanged so the registry can raise its
    usual known-names error.
    """
    kind = _classify_source(arg)
    if kind is None:
        return arg
    if kind[0] == "file":
        return f"trace:{kind[1]}"
    return f"trace-{kind[1]}"

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
