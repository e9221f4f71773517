"""Out-of-order core: configuration, ROB, functional units, the simulator."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "config": ("CoreConfig", "RunaheadConfig", "PAPER_FUNCTIONAL_UNITS"),
    "core": ("Core", "MODE_NORMAL", "MODE_RUNAHEAD", "SimulationError"),
    "functional_units": ("FunctionalUnitPool",),
    "issue": ("BLOCKED",),
    "rob": ("DISPATCHED", "DONE", "ISSUED", "ReorderBuffer", "RobEntry"),
    "stats": ("CoreStats",),
})
