"""Resumable, fault-tolerant campaign engine over the harness.

A campaign runs one or more sweeps as a journaled job in a
self-contained directory: one lease state machine schedules trials
(bounded retries, per-trial timeouts) onto local worker processes, a
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

from .coordinator import DEFAULT_BACKOFF, DEFAULT_RETRIES, backoff_delay
from .engine import Campaign
from .journal import CampaignDir, CampaignError
from .server import make_server, serve
from .status import campaign_status, render_status

__all__ = [
    "DEFAULT_BACKOFF", "DEFAULT_RETRIES",
    "Campaign", "CampaignDir", "CampaignError", "backoff_delay",
    "campaign_status", "make_server", "render_status", "serve",
]
