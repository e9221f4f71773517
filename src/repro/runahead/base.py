"""Runahead controller interface.

The core owns the mechanics (checkpoint, INV propagation, pseudo-retire,
exit restore, and the exit itself once the stalling load's data has
returned); a :class:`RunaheadController` decides the *policy*: when to
enter, which instructions execute in runahead mode (precise runahead
filters to stall slices), what extra prefetches to issue (vector
runahead), and — for the secure variant of §6 — where runahead fills go
and what happens when branches resolve after exit.

:class:`NoRunahead` is the baseline machine: the stall simply blocks the
pipeline, and transient execution is bounded by the ROB (Fig. 5a).
"""

from __future__ import annotations


class RunaheadController:
    """Default policy hooks; subclasses override selectively."""

    name = "base"

    def attach(self, core):
        """Called once by the core during construction.  A controller
        keeps no reference to ``core``: every hook is handed it."""

    # -- entry / exit ------------------------------------------------------------

    def should_enter(self, core, head_entry) -> bool:
        """Decide whether a memory-stalled ROB-head load triggers runahead."""
        return False

    def on_enter(self, core):
        """Called after the core has checkpointed and switched modes."""

    def on_exit(self, core):
        """Called just before the core restores the checkpoint."""

    # -- runahead-mode execution ----------------------------------------------------

    def filter_dispatch(self, core, instr, pc) -> bool:
        """Return False to drop the instruction from runahead execution
        (it completes immediately with an INV destination and consumes no
        backend resources) — precise runahead's stall-slice filter."""
        return True

    def runahead_load_fill(self, core, entry) -> bool:
        """Whether runahead-mode misses install lines into the caches.

        The insecure variants return True (that *is* the prefetching
        benefit — and the attack surface); the secure variant redirects
        fills to the SL cache and returns False here.
        """
        return True

    def runahead_load_override(self, core, entry, addr, now):
        """Optionally service a runahead-mode load without touching the
        hierarchy (returns a latency or None).  The secure controller
        serves SL-cache hits here so repeated episodes do not re-request
        already-quarantined lines from memory."""
        return None

    def on_runahead_load(self, core, entry, result):
        """Called for every runahead-mode load that accessed the hierarchy."""

    def on_normal_load(self, core, entry, result):
        """Called for every normal-mode load that accessed the hierarchy
        (observer only; used by vector runahead's stride trainer)."""

    def on_pseudo_retire(self, core, entry):
        """Called when an instruction pseudo-retires in runahead mode."""

    def on_inv_branch(self, core, entry):
        """Called when a branch becomes unresolvable (INV sources) in
        runahead mode.  Default: the prediction stands — the SPECRUN
        vulnerability.  The branch-skip mitigation overrides this."""

    # -- normal-mode hooks (used by the defense) --------------------------------------

    def normal_load_override(self, core, entry, addr, now):
        """Optionally service a normal-mode load (returns an AccessResult
        substitute or None).  The SL cache intercepts loads here."""
        return None

    def on_branch_resolved(self, core, entry, mispredicted):
        """Called for every resolved branch in any mode."""


class NoRunahead(RunaheadController):
    """Baseline: never enter runahead; the ROB bounds speculation."""

    name = "no-runahead"
