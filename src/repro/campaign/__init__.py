"""Resumable, fault-tolerant campaign engine over the harness.

A campaign runs one or more sweeps as a journaled job in a
self-contained directory: one state machine pushes trials (bounded
retries, per-trial timeouts) to local worker processes, a
write-ahead journal plus the campaign's content-addressed cache make
it resumable after any crash, and read-only ``status``/``serve``
views report live progress without touching the simulator.

Typical use::

    from repro.campaign import Campaign
    from repro.harness import presets

    sweep = presets.get("fig7").build()
    (result,) = Campaign.create_or_open("campaigns/fig7", [sweep]) \
        .run(workers=8)
    # ... SIGKILL at any point, then the same call (or
    # `repro campaign resume campaigns/fig7`) completes it —
    # result.to_json() is byte-identical either way.

The CLI surface is ``repro campaign run|resume|status|serve``.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "coordinator": ("DEFAULT_BACKOFF", "DEFAULT_RETRIES", "backoff_delay"),
    "engine": ("Campaign",),
    "journal": ("CampaignDir", "CampaignError"),
    "server": ("make_server", "serve"),
    "status": ("campaign_status", "render_status"),
})
