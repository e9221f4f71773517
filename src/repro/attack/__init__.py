"""The SPECRUN attack: gadgets, orchestration, baselines, window probes."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "gadgets": ("AttackProgram", "build_attack", "build_btb_attack",
                "build_pht_attack", "build_rsb_flush_attack",
                "build_rsb_overwrite_attack", "DEFAULT_SECRET",
                "PROBE_ENTRIES"),
    "specrun": ("AttackResult", "SpecRunAttack", "run_specrun"),
    "window": ("WindowMeasurement", "measure_window"),
})
