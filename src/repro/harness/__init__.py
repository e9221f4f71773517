"""Experiment orchestration: declarative sweeps, sharded execution,
content-addressed result caching, and paper-figure presets.

Typical use::

    from repro.harness import presets, run_sweep

    preset = presets.get("fig7")
    result = run_sweep(preset.build(), workers=4)
    print(preset.render(result))

Every trial is pure data (see :mod:`repro.harness.spec`), executed by
:mod:`repro.harness.runner` in whatever process the executor picks, and
cached on disk keyed by trial spec + code fingerprint
(:mod:`repro.harness.cache`).
"""

from . import presets
from .aggregate import (attack_cell, attack_matrix, geomean,
                        geometric_mean_speedup, ipc_table, speedup_bars)
from .cache import (CACHE_DIR_ENV, CACHE_DISABLE_ENV, CacheBackend,
                    DirectoryCacheBackend, ResultCache, code_fingerprint,
                    default_cache_dir, resolve_cache)
from .executor import (Executor, ProcessPoolExecutor, SerialExecutor,
                       SweepResult, default_workers, make_record,
                       run_sweep)
from .registry import (CONTROLLERS, get_workload, make_config,
                       make_controller, workloads)
from .runner import TrialError, run_trial
from .spec import Sweep, Trial, canonical_json, stable_seed

__all__ = [
    "presets", "attack_cell", "attack_matrix", "geomean",
    "geometric_mean_speedup", "ipc_table", "speedup_bars",
    "CACHE_DIR_ENV", "CACHE_DISABLE_ENV", "CacheBackend",
    "DirectoryCacheBackend", "ResultCache", "code_fingerprint", "default_cache_dir", "resolve_cache",
    "Executor", "ProcessPoolExecutor", "SerialExecutor", "SweepResult",
    "default_workers", "make_record", "run_sweep", "CONTROLLERS",
    "get_workload", "make_config", "make_controller", "workloads",
    "TrialError", "run_trial", "Sweep", "Trial", "canonical_json",
    "stable_seed",
]
