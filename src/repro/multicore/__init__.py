"""Multi-core simulation: lockstep scheduling and cross-core channels."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "scenario": ("Topology", "build_attack_system"),
    "system": ("CoreSlot", "MultiCoreSystem"),
})
