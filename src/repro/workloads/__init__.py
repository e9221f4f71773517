"""SPEC2006-shaped synthetic workloads for the Fig. 7 evaluation."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "base": ("Workload",),
    "generators": ("build_bwaves_like", "build_gems_like", "build_lbm_like",
                   "build_mcf_like", "build_wrf_like", "build_zeusmp_like"),
    "suite": ("spec_like_suite",),
})
