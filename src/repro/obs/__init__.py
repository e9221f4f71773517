"""Observability: event tracing, campaign metrics and dashboards.

Independent layers, all stdlib-only and all strictly off the result
path (enabling any of them never changes ``CoreStats``, sweep JSON, or
cache keys):

``repro.obs.events``   typed micro-architectural event schema plus the
                       compact varint-encoded ``.evt`` container.
``repro.obs.sink``     the :class:`TraceSink` interface the simulator
                       emits into, and the binary-file sink.
``repro.obs.view``     cycle-level timeline rendering of one ``.evt``
                       trace (text sparkline or single-file HTML).
``repro.obs.campaign`` campaign-facing adapters: journal-derived trial
                       timeline, the journal-derived Prometheus gauges
                       behind ``/metrics``, and the ``--dashboard``
                       HTML page.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "events": ("EV_CACHE_EVICT", "EV_CACHE_FILL", "EV_CACHE_PROBE",
               "EV_COMMIT", "EV_DISPATCH", "EV_FETCH", "EV_FLUSH", "EV_INV",
               "EV_ISSUE", "EV_MEM_ACCESS", "EV_MISPREDICT",
               "EV_PSEUDO_RETIRE", "EV_RA_ENTER", "EV_RA_EXIT", "EV_SQUASH",
               "EVENT_NAMES", "EVENT_SCHEMA", "LEVEL_IDS", "LEVEL_NAMES",
               "decode_events", "encode_events", "event_name",
               "load_events"),
    "sink": ("FileSink", "TraceSink"),
    "view": ("render_html", "render_text", "summarize_events"),
})
