"""Name → object resolution for trial parameters.

Trials carry only names and numbers; this module turns them into live
simulator objects inside whichever process executes the trial.  Keeping
construction here (rather than in the spec) is what makes trials
picklable and hashable.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional

from ..defense.restrictions import BranchRestrictedRunahead
from ..defense.secure import SecureRunahead
from ..isa.assembler import assemble
from ..isa.memory_image import MemoryImage
from ..pipeline.config import CoreConfig, RunaheadConfig
from ..runahead.base import NoRunahead, RunaheadController
from ..runahead.original import OriginalRunahead
from ..runahead.precise import PreciseRunahead
from ..runahead.vector import VectorRunahead
from ..workloads.base import Workload
from ..workloads.suite import spec_like_suite

#: Every runahead controller (and defense — defenses are controllers).
CONTROLLERS: Dict[str, type] = {
    "none": NoRunahead,
    "no-runahead": NoRunahead,
    "original": OriginalRunahead,
    "precise": PreciseRunahead,
    "vector": VectorRunahead,
    "secure": SecureRunahead,
    "branch-skip": BranchRestrictedRunahead,
}

#: CoreConfig override keys that actually live on the memory hierarchy.
_HIERARCHY_KEYS = ("mem_latency", "mem_occupancy")
#: CoreConfig override keys that live on the runahead tunables.
_RUNAHEAD_KEYS = tuple(f.name for f in
                       dataclasses.fields(RunaheadConfig))


def make_controller(name: Optional[str],
                    **kwargs) -> Optional[RunaheadController]:
    """Instantiate a fresh controller by registry name.

    ``None``/"none" maps to :class:`NoRunahead` so every trial states
    its machine explicitly in reports.
    """
    if name is None:
        name = "none"
    try:
        cls = CONTROLLERS[name]
    except KeyError:
        raise KeyError(f"unknown runahead controller {name!r}; "
                       f"known: {sorted(set(CONTROLLERS))}") from None
    return cls(**kwargs)


def make_config(base: str = "paper",
                overrides: Optional[Mapping[str, Any]] = None) -> CoreConfig:
    """Build a :class:`CoreConfig` from a base preset plus flat overrides.

    Flat keys are routed to the right sub-config: ``mem_latency`` and
    ``mem_occupancy`` rebuild the hierarchy, runahead tunables
    (``exit_overhead``, ``sl_cache_entries``, ...) rebuild the runahead
    config, everything else must be a direct ``CoreConfig`` field.
    """
    if base not in ("paper", "small"):
        raise ValueError(f"unknown config base {base!r} "
                         "(expected 'paper' or 'small')")
    factory = CoreConfig.paper if base == "paper" else CoreConfig.small
    overrides = dict(overrides or {})

    hier_over = {k: overrides.pop(k) for k in _HIERARCHY_KEYS
                 if k in overrides}
    ra_over = {k: overrides.pop(k) for k in _RUNAHEAD_KEYS
               if k in overrides}

    config = factory(**overrides)
    if hier_over:
        config = config.with_overrides(
            hierarchy=dataclasses.replace(config.hierarchy, **hier_over))
    if ra_over:
        config = config.with_overrides(
            runahead=dataclasses.replace(config.runahead, **ra_over))
    return config


def _build_reference() -> Workload:
    """The Table-1 reference run: a 64-element cold-array walk."""
    def build():
        image = MemoryImage()
        image.alloc_array("data", 64)
        program = assemble("""
            li r1, @data
            li r2, 64
        loop:
            load r3, r1, 0
            addi r1, r1, 8
            addi r2, r2, -1
            bne r2, r0, loop
            halt
        """, memory_image=image)
        return program, image, None
    return Workload(name="reference",
                    description="Table-1 reference run (64-load walk)",
                    build=build, memory_bound=True,
                    cache_key="reference/64")


def workloads() -> Dict[str, Workload]:
    """All named workloads: the Fig. 7 suite, the reference kernel, and
    the synthetic trace-replay suite (``trace-mcf``/``trace-stream``/
    ``trace-gcc``/``trace-zipf``)."""
    from ..trace.suite import trace_suite

    table = dict(spec_like_suite())
    ref = _build_reference()
    table[ref.name] = ref
    table.update(trace_suite())
    return table


def get_workload(name: str) -> Workload:
    """Resolve a workload name from the :func:`workloads` table."""
    table = workloads()
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"known: {sorted(table)}") from None
