"""The one run loop: a global clock over cores and pollers.

:func:`run_clock` runs a lone core (``Core.run``, one slot), cores
sharing a hierarchy (:class:`~repro.multicore.system.MultiCoreSystem`)
and a core with a polling attacker thread
(:func:`~repro.attack.window.measure_window`).  Each cycle it installs
every due fill of the shared hierarchy (so one core's fill is visible
to another core's L3 lookup in the same cycle, whatever the step
order; a lone core's step installs its own), then steps each
non-halted core once in slot order.  After a cycle in which no core
made progress it jumps to the next wake-up (:func:`next_step_cycle`).

A *poller* acts on the cores from outside, like scenario ③'s thread
re-flushing the stalling line.  Its ``poll(now)`` runs at every value
the clock takes — after each step and again at each skip landing —
before that cycle's fills install; its ``wake_up()``, asked after an
all-idle step, returns True to keep a blocked core on the stride.
"""

from __future__ import annotations


def next_step_cycle(floor, event, blocked=(), hold=False):
    """Cycle of the next step after an all-idle step, or None.

    ``floor`` is the stride-2 floor (the idle step's cycle + 2; the
    golden fixtures pin it).  ``event`` is the earliest wake-up over the
    cores, not counting *blocked* front-end heads: heads a full ROB,
    rename class, LQ/SQ/IQ or a fence held back; ``blocked`` lists
    ``(core, reason)`` per such core.  Without one the clock jumps to
    ``event`` (None: quiescent).  With one it lands on the first stride
    step ``floor + 2k`` at or after ``event`` — the same cycle and stats
    as stepping every second cycle — or stays on ``floor`` if there is
    no other event (a wedged core spins to its ceiling) or ``hold`` is
    set (a ready instruction retries issue, or a poller asked for,
    every stride step).  Blocked cores are credited the skipped steps.
    """
    if not blocked:
        if event is None:
            return None
        return event if event > floor else floor
    if hold or event is None or event <= floor:
        target = floor
    else:
        target = event + ((event - floor) & 1)
    skipped = (target - floor) >> 1
    for core, reason in blocked:
        core._record_stall(reason, skipped)
    return target


class CoreSlot:
    """One scheduled core and its rebuild recipe: when the program of a
    ``restart`` slot (an endless co-runner) halts, ``factory`` builds a
    fresh core on the same hierarchy view, caches still warm."""

    __slots__ = ("factory", "name", "restart", "core", "respawns")

    def __init__(self, core, name="", restart=False, factory=None):
        self.factory = factory
        self.name = name
        self.restart = restart
        self.core = core
        self.respawns = 0

    def respawn(self, now):
        """Rebuild the core and join the clock at ``now``."""
        self.core = self.factory()
        self.core.cycle = now
        self.respawns += 1
        return self.core


def run_core(core, max_cycles, pollers=()):
    """Run a lone ``core`` on a one-slot clock from its current cycle;
    returns the clock's final cycle."""
    slot = CoreSlot(core)
    return run_clock(None, (slot,), slot, core.cycle, max_cycles, pollers)


def run_clock(shared, slots, primary, now, max_cycles, pollers=()):
    """Step the cores of ``slots`` in lockstep from cycle ``now`` until
    the ``primary`` slot's core halts, nothing can ever happen again or
    the clock reaches ``max_cycles``; returns the clock's cycle.

    Every view of ``shared`` installs its due fills before any core
    steps; with ``shared`` None (a lone core) the core's step installs
    its own view's.  Other cores that halt stop, or respawn in
    ``restart`` slots.
    """
    # The primary never respawns (it cannot be a restart slot).
    primary_core = primary.core
    while now < max_cycles:
        if shared is not None and now >= shared.next_fill:
            shared.apply_completed(now)
        active = False
        for slot in slots:
            core = slot.core
            if core.halted:
                if slot is primary or not slot.restart:
                    continue
                core = slot.respawn(now)
                active = True
            core.cycle = now
            core.step()
            if core._activity:
                active = True
        if primary_core.halted:
            break
        now += 1
        for poller in pollers:
            poller.poll(now)
        if active:
            continue
        # Every core idle: jump to the earliest cycle at which any of
        # them can make progress.  The stride rule applies once, to the
        # minimum over the cores: they all step on the one clock.
        event = None
        blocked = []
        hold = False
        for slot in slots:
            core = slot.core
            if core.halted:
                continue
            wake, reason = core._wake_up()
            if wake is not None and (event is None or wake < event):
                event = wake
            if reason is not None:
                blocked.append((core, reason))
            if core._ready:
                hold = True
        for poller in pollers:
            if poller.wake_up():
                hold = True
        if blocked and shared is not None:
            # Stride steps install every view's due fills, a halted
            # core's too: those must not be jumped over either.
            fill = shared.next_event()
            if fill is not None and (event is None or fill < event):
                event = fill
        skip_to = next_step_cycle(now + 1, event, blocked, hold)
        if skip_to is None:
            break              # system quiescent: nothing can happen
        if skip_to > now:
            now = skip_to
            for poller in pollers:
                poller.poll(now)
    else:
        # At the ceiling every live core has reached the clock, the
        # cycles of a last skip included.
        for slot in slots:
            if not slot.core.halted:
                slot.core.cycle = now
    for slot in slots:
        slot.core.stats.cycles = slot.core.cycle
    return now
