"""Lockstep execution of N cores over one shared hierarchy.

Each :class:`~repro.pipeline.core.Core` owns its pipeline and its view
of the :class:`~repro.memory.hierarchy.SharedHierarchy`; a
:class:`MultiCoreSystem` runs them on the one clock,
:func:`~repro.pipeline.clock.run_clock`, over the shared level.
"""

from __future__ import annotations

from typing import Callable, List

from ..memory.hierarchy import SharedHierarchy
from ..pipeline.clock import CoreSlot, run_clock
from ..pipeline.core import Core


class MultiCoreSystem:
    """Lockstep scheduler for cores sharing one :class:`SharedHierarchy`."""

    def __init__(self, shared: SharedHierarchy):
        self.shared = shared
        self.slots: List[CoreSlot] = []
        self.cycle = 0

    def add_core(self, factory: Callable[[], Core], name: str = "",
                 restart: bool = False) -> CoreSlot:
        """Register a core built by ``factory`` (zero-arg, returns a
        :class:`Core` bound to a view of this system's hierarchy)."""
        slot = CoreSlot(factory(), name or f"core{len(self.slots)}",
                        restart, factory)
        if slot.core.hierarchy.shared is not self.shared:
            raise ValueError(
                f"slot {slot.name!r}: core is not bound to this system's "
                "shared hierarchy")
        self.slots.append(slot)
        return slot

    def run(self, max_cycles: int = 5_000_000, primary: int = 0) -> Core:
        """Run all cores in lockstep until the primary halts (or the
        system is quiescent: its ``halted`` stays False); returns the
        primary core (statistics inside)."""
        slots = self.slots
        if not slots:
            raise ValueError("no cores scheduled")
        primary_slot = slots[primary]
        if primary_slot.restart:
            raise ValueError("the primary core cannot be a restart slot")
        self.cycle = run_clock(self.shared, slots, primary_slot, self.cycle,
                               max_cycles)
        return primary_slot.core
