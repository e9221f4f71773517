"""Workload plumbing: the Workload bundle and the run helper.

Fig. 7 of the paper evaluates runahead on six SPEC CPU2006 benchmarks.
SPEC sources and inputs are not redistributable (and would be absurd to
run on a Python timing model), so :mod:`repro.workloads.generators`
builds synthetic kernels with the memory behaviour each benchmark is
known for in the runahead literature — pointer chasing for mcf,
streaming for lbm, multi-array stencils for GemsFDTD, and so on.  What
Fig. 7 needs is the *shape* of the IPC comparison (memory-bound kernels
gain, compute-bound ones do not, ~11 % mean), which these kernels
parameterize directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..isa.memory_image import MemoryImage
from ..isa.program import Program
from ..pipeline.config import CoreConfig
from ..pipeline.core import Core
from ..runahead.base import RunaheadController

#: Memoized build products, keyed by the workload's ``cache_key``.
#: Workload builders are deterministic functions of their parameters, so
#: two trials with the same key get the same program — a ``Program`` is
#: immutable once assembled and a ``MemoryImage`` is only *read*
#: (``initial_words()`` copies) by the simulator, which makes sharing
#: safe.  This keeps sweeps from re-assembling identical kernels for
#: every single trial.
_BUILD_CACHE: Dict[str, Tuple[Program, MemoryImage, Optional[int]]] = {}


@dataclass
class Workload:
    """One runnable benchmark kernel.

    ``cache_key`` opts the workload into the assembled-program cache; it
    must encode *every* generator parameter that affects the build.
    Leave it None for builders that are not referentially transparent.
    """

    name: str
    description: str
    build: Callable[[], tuple]     # () -> (Program, MemoryImage, sp|None)
    memory_bound: bool             # expected to benefit from runahead
    cache_key: Optional[str] = None

    def materialize(self):
        """Return (program, image, sp), memoized when ``cache_key`` is set."""
        if self.cache_key is None:
            return self.build()
        built = _BUILD_CACHE.get(self.cache_key)
        if built is None:
            built = self.build()
            _BUILD_CACHE[self.cache_key] = built
        return built

    def run(self, runahead: Optional[RunaheadController] = None,
            config: Optional[CoreConfig] = None, max_cycles=5_000_000,
            trace=None):
        """Execute on a fresh core; returns the core (stats inside).

        ``trace`` attaches a :class:`repro.obs.sink.TraceSink` to the
        core and its hierarchy for the duration of the run — pure
        observation, never part of the result path.
        """
        program, image, sp = self.materialize()
        core = Core(program, memory_image=image,
                    config=config or CoreConfig.paper(), runahead=runahead,
                    initial_sp=sp, warm_icache=True)
        if trace is not None:
            core.trace = trace
            core.hierarchy.trace = trace
        core.run(max_cycles=max_cycles)
        if not core.halted:
            raise RuntimeError(f"workload {self.name} did not halt")
        return core

