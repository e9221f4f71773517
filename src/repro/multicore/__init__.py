"""Multi-core simulation: lockstep scheduling and cross-core channels."""

from .scenario import Topology, build_attack_system
from .system import CoreSlot, MultiCoreSystem

__all__ = [
    "Topology", "build_attack_system", "CoreSlot", "MultiCoreSystem",
]
