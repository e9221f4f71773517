"""Experiment orchestration: declarative sweeps, sharded execution,
content-addressed result caching, and paper-figure presets.

Typical use::

    from repro.harness import presets, run_sweep

    preset = presets.get("fig7")
    result = run_sweep(preset.build(), workers=4)
    print(preset.render(result))

Every trial is pure data (see :mod:`repro.harness.spec`), executed by
:mod:`repro.harness.runner` in whatever process the scheduler picks, and
cached on disk keyed by trial spec + code fingerprint
(:mod:`repro.harness.cache`).
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "aggregate": ("attack_cell", "attack_matrix", "geomean",
                  "geometric_mean_speedup", "ipc_table", "speedup_bars"),
    "cache": ("CACHE_DIR_ENV", "CACHE_DISABLE_ENV", "CacheBackend",
              "code_fingerprint", "default_cache_dir",
              "resolve_cache"),
    "executor": ("SerialExecutor", "SweepResult", "default_workers",
                 "make_record", "run_sweep"),
    "registry": ("CONTROLLERS", "get_workload", "make_config",
                 "make_controller", "workloads"),
    "runner": ("run_trial",),
    "spec": ("Sweep", "Trial", "TrialError", "canonical_json",
             "stable_seed"),
}, modules=("presets",))
