"""The Fig. 7 benchmark suite."""

from __future__ import annotations

from typing import Dict

from .base import Workload
from .generators import (build_bwaves_like, build_gems_like, build_lbm_like,
                         build_mcf_like, build_wrf_like, build_zeusmp_like)

def spec_like_suite() -> Dict[str, Workload]:
    """All six Fig. 7 kernels, keyed by name, in paper order."""
    workloads = [
        build_zeusmp_like(),
        build_wrf_like(),
        build_bwaves_like(),
        build_lbm_like(),
        build_mcf_like(),
        build_gems_like(),
    ]
    return {w.name: w for w in workloads}

