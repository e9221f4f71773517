"""repro.verify — static speculative/runahead leak checker.

A taint-tracking abstract interpreter over :mod:`repro.isa` programs
that explores architectural execution plus bounded transient windows
(speculation past slow-resolving control, runahead past memory-level
misses) and reports every load whose address carries secret taint
inside a window.  Differentially cross-checked against the cycle
simulator by :mod:`repro.verify.crosscheck`: flagged gadgets must leak
empirically; defense-clean verdicts must extract nothing.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "engine": ("DEFENSES", "Checker", "VerifyError", "VerifyOptions",
               "check_program"),
    "report": ("WINDOW_RUNAHEAD", "WINDOW_SPECULATION", "WINDOWS",
               "LeakReport", "VerifyResult", "merge_reports"),
    "targets": ("ATTACK_TARGETS", "GadgetCase", "build_target",
                "target_names"),
})
