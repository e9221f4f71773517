"""Resumable, fault-tolerant campaign engine over the harness.

A campaign runs one or more sweeps as a journaled job in a
self-contained directory: one lease state machine schedules trials
(bounded retries, per-trial timeouts) onto local worker processes or
worker hosts, a write-ahead journal plus the campaign's
content-addressed cache make it resumable after any crash, and
read-only ``status``/``serve`` views report live progress without
touching the simulator.

Typical use::

    from repro.campaign import Campaign, CampaignExecutor
    from repro.harness import presets

    sweep = presets.get("fig7").build()
    result = CampaignExecutor("campaigns/fig7", workers=8) \
        .execute(sweep, cache="auto")
    # ... SIGKILL at any point, then the same call (or
    # `repro campaign resume campaigns/fig7`) completes it —
    # result.to_json() is byte-identical either way.

A campaign can also be *sharded across hosts*: ``repro campaign
coordinate <dir>`` serves the same state machine over HTTP, and
``repro campaign worker <url>`` runs the same worker loop on any
number of hosts (:mod:`~repro.campaign.coordinator` /
:mod:`~repro.campaign.worker`).
``http://host:port`` cache URIs let plain sweeps share a remote
result store the same way (:mod:`~repro.campaign.httpcache`).

The CLI surface is ``repro campaign
run|resume|status|serve|coordinate|worker``.
"""

from .coordinator import (DEFAULT_BACKOFF, DEFAULT_LEASE_SECONDS,
                          DEFAULT_RETRIES, coordinate, make_coordinator)
from .engine import Campaign, CampaignExecutor
from .httpcache import HttpCacheBackend
from .journal import CampaignDir, CampaignError
from .netretry import RetryPolicy, Unreachable, backoff_delay
from .server import make_server, serve
from .status import campaign_status, render_status
from .worker import run_worker

__all__ = [
    "DEFAULT_BACKOFF", "DEFAULT_RETRIES", "DEFAULT_LEASE_SECONDS",
    "Campaign", "CampaignExecutor", "CampaignDir", "CampaignError",
    "HttpCacheBackend", "RetryPolicy", "Unreachable", "backoff_delay",
    "campaign_status", "coordinate", "make_coordinator", "make_server",
    "render_status", "run_worker", "serve",
]
