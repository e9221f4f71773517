"""Read-only HTTP view of a campaign directory (stdlib only).

``repro campaign serve <dir>`` starts a tiny
:class:`http.server.ThreadingHTTPServer` that exposes the campaign's
journal-derived status and its finished reports to any number of
concurrent readers — without ever importing the simulator or writing
a byte to the campaign directory.  Endpoints:

``GET /``          index: campaign name, state, endpoint list
``GET /status``    live status JSON (recomputed per request from the
                   journal, so it tracks a running campaign)
``GET /manifest``  the campaign manifest verbatim
``GET /result/<sweep>``
                   the canonical ``SweepResult`` JSON of a completed
                   sweep (404 until that sweep has finished once)
``GET /healthz``   liveness probe: 200 with manifest/journal
                   readability figures, 503 when the campaign state
                   cannot be read — what supervisors poll
``GET /metrics``   Prometheus text: campaign gauges derived from the
                   journal
``GET /dashboard`` (``--dashboard`` only) the single-file HTML
                   dashboard — static page, all data via JSON polling
``GET /timeline``  (``--dashboard`` only) per-trial timeline rows
                   reconstructed from journal events

Responses are JSON unless the payload carries its own content type
(``/metrics`` is Prometheus text, ``/dashboard`` is HTML); the server
answers GET/HEAD only.  It is the package's one HTTP server.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from ..obs.campaign import dashboard_html, journal_timeline, \
    status_metrics
from .journal import CampaignDir, CampaignError
from .status import campaign_status


class PlainText(str):
    """A response body that is Prometheus text, not JSON."""

    content_type = "text/plain; version=0.0.4; charset=utf-8"


class HtmlText(str):
    """A response body that is HTML, not JSON."""

    content_type = "text/html; charset=utf-8"


def read_routes(directory, dashboard: bool = False):
    """Route table: path -> () -> (http status, payload object/text)."""
    cdir = CampaignDir(directory)

    def index() -> Tuple[int, object]:
        try:
            status = campaign_status(directory)
        except CampaignError as exc:
            return 500, {"error": str(exc)}
        sweeps = sorted(status["sweeps"])
        endpoints = ["/status", "/manifest", "/healthz", "/metrics"]
        if dashboard:
            endpoints += ["/dashboard", "/timeline"]
        return 200, {
            "campaign": status["name"],
            "state": status["state"],
            "endpoints": endpoints +
                         [f"/result/{name}" for name in sweeps],
        }

    def status() -> Tuple[int, object]:
        try:
            return 200, campaign_status(directory)
        except CampaignError as exc:
            return 500, {"error": str(exc)}

    def manifest() -> Tuple[int, object]:
        try:
            return 200, cdir.read_manifest()
        except CampaignError as exc:
            return 500, {"error": str(exc)}

    def result(sweep_name: str) -> Tuple[int, object]:
        if "/" in sweep_name or sweep_name in ("", ".", ".."):
            return 404, {"error": "no such sweep"}
        text = cdir.read_result(sweep_name)
        if text is None:
            return 404, {"error": f"sweep {sweep_name!r} has no result "
                                  f"yet — still running, or unknown"}
        return 200, text              # already-canonical JSON, verbatim

    def healthz() -> Tuple[int, object]:
        """Liveness: the campaign's shared state must be *readable* —
        a parseable manifest and an openable journal.  (Journal
        readers tolerate a truncated tail, so readability is the
        strongest property worth probing.)"""
        try:
            cdir.read_manifest()
        except CampaignError as exc:
            return 503, {"status": "unhealthy", "error": str(exc)}
        try:
            with open(cdir.journal_path, encoding="utf-8") as handle:
                lines = sum(1 for _ in handle)
        except OSError as exc:
            return 503, {"status": "unhealthy",
                         "error": f"journal unreadable: {exc}"}
        events = sum(1 for _ in cdir.events())
        return 200, {"status": "ok", "journal_lines": lines,
                     "journal_events": events}

    def metrics() -> Tuple[int, object]:
        try:
            status = campaign_status(directory)
        except CampaignError as exc:
            return 500, {"error": str(exc)}
        return 200, PlainText(status_metrics(status))

    def timeline() -> Tuple[int, object]:
        try:
            return 200, journal_timeline(directory)
        except CampaignError as exc:
            return 500, {"error": str(exc)}

    routes = {"/": index, "/status": status, "/manifest": manifest,
              "/healthz": healthz, "/metrics": metrics,
              "result": result}
    if dashboard:
        try:
            name = cdir.read_manifest().get("name") or "campaign"
        except CampaignError:
            name = "campaign"
        page = HtmlText(dashboard_html(f"repro campaign: {name}"))
        routes["/dashboard"] = lambda: (200, page)
        routes["/timeline"] = timeline
    return routes


class StatusHandler(BaseHTTPRequestHandler):
    """GET/HEAD-only JSON handler over one campaign directory."""

    server_version = "repro-campaign/1"
    #: Listed in the 404 body.
    endpoints = ["/", "/status", "/manifest", "/healthz", "/metrics",
                 "/result/<sweep>"]
    #: Set by make_server().
    routes = None

    def log_message(self, fmt, *args):   # keep CLI output clean
        pass

    def _respond(self, code: int, payload) -> None:
        body = ("" if payload is None else
                payload if isinstance(payload, str)
                else json.dumps(payload, sort_keys=True, indent=2))
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type",
                         getattr(payload, "content_type",
                                 "application/json"))
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if data and self.command != "HEAD":
            try:
                self.wfile.write(data)
            except OSError:
                pass                     # client vanished mid-response

    def _path(self) -> str:
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def do_HEAD(self):                   # noqa: N802 (stdlib naming)
        self.do_GET()

    def do_GET(self):                    # noqa: N802 (stdlib naming)
        path = self._path()
        if path.startswith("/result/"):
            code, payload = self.routes["result"](
                path[len("/result/"):])
        elif path in self.routes:
            code, payload = self.routes[path]()
        else:
            code, payload = 404, {"error": f"unknown path {path!r}",
                                  "endpoints": self.endpoints}
        self._respond(code, payload)


def make_server(directory, host: str = "127.0.0.1",
                port: int = 0,
                dashboard: bool = False) -> ThreadingHTTPServer:
    """Build (but don't start) the status server; ``port=0`` picks a
    free port — read it back from ``server.server_address``.
    ``dashboard=True`` adds the ``/dashboard`` + ``/timeline`` pair."""
    handler = type("BoundStatusHandler", (StatusHandler,),
                   {"routes": read_routes(directory, dashboard=dashboard)})
    return ThreadingHTTPServer((host, port), handler)


def _terminate(signum, frame):
    raise KeyboardInterrupt


def serve(directory, host: str = "127.0.0.1", port: int = 8008,
          announce=None, dashboard: bool = False) -> None:
    """Run the status server until SIGINT or SIGTERM, then close the
    socket (CLI entry point).

    SIGTERM is routed onto the KeyboardInterrupt path — without that
    the stdlib HTTP loop ignores a supervisor's TERM until the process
    is killed hard.  Only the main thread can install it; servers
    driven from other threads (tests) skip it.
    """
    server = make_server(directory, host=host, port=port,
                         dashboard=dashboard)
    bound_host, bound_port = server.server_address[:2]
    extra = " /dashboard /timeline" if dashboard else ""
    if threading.current_thread() is threading.main_thread():
        try:
            signal.signal(signal.SIGTERM, _terminate)
        except (ValueError, OSError):   # non-main interpreter quirks
            pass
    # Everything after handler installation sits inside the try: a
    # TERM landing before serve_forever() still takes the clean path.
    try:
        if announce:
            announce(f"serving campaign {directory} on "
                     f"http://{bound_host}:{bound_port} "
                     f"(endpoints: /status /manifest /healthz "
                     f"/metrics{extra} /result/<sweep>)")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
