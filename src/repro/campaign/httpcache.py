"""``http:<url>`` cache backend — a remote result store over HTTP.

The client half, :class:`HttpCacheBackend`, is a full
:class:`~repro.harness.cache.CacheBackend` whose record storage lives
behind the coordinator's ``/cache/<key>`` endpoints.  Keying stays
client-side (trial spec + code fingerprint, exactly like the local
backends), so identical trials hit the same record whether the store
is a directory, a SQLite file, or a URL.  Every network call carries a
timeout and capped, jittered retries (:mod:`repro.campaign.netretry`),
and — like every backend — **never raises**: an unreachable or flaky
server degrades to a cache miss, because the cache must never change
experiment outcomes.

The server half, :class:`CacheRoutes` + :func:`make_cache_server`,
maps those endpoints onto any local backend.  The campaign coordinator
mounts the same routes (serialized under its state lock, in front of
its real ``dir:``/``sqlite:`` store); ``make_cache_server`` serves
them standalone so a plain sweep run on one host can use another
host's store via ``run_sweep(..., cache="http://host:port")``.

Wire protocol (all JSON):

====================  =============================================
``GET /cache/<key>``  200 + the raw record, or 404
``PUT /cache/<key>``  store the request body as the record → 204
``DELETE /cache/<key>``  200 ``{"removed": true|false}``
``GET /cache``        200 ``{"records": N}``
``DELETE /cache``     200 ``{"removed": N}`` (clear)
====================  =============================================
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..harness.cache import CacheBackend
from .netretry import DEFAULT_POLICY, RetryPolicy, Unreachable, request_json
from .server import StatusHandler

_KEY_CHARS = set("0123456789abcdef")


def _valid_key(key: str) -> bool:
    return bool(key) and len(key) <= 128 and set(key) <= _KEY_CHARS


class HttpCacheBackend(CacheBackend):
    """Cache client for a coordinator (or standalone cache server) URL.

    The URI *is* the URL (``http://host:port``), so ``resolve_cache``
    round-trips it like any other backend URI.
    """

    scheme = "http"

    def __init__(self, url: str, code_version: Optional[str] = None,
                 policy: RetryPolicy = DEFAULT_POLICY):
        super().__init__(code_version=code_version)
        self.base = str(url).rstrip("/")
        self.policy = policy

    def uri(self) -> str:
        return self.base

    def _cache_url(self, key: str = "") -> str:
        return f"{self.base}/cache/{key}" if key else f"{self.base}/cache"

    def _call(self, key: str, payload, method: str, default):
        try:
            code, body = request_json(
                self._cache_url(key), payload=payload, method=method,
                policy=self.policy, key=("httpcache", method, key))
        except Unreachable:
            return None, default
        return code, body

    # ------------------------------------------------- storage hooks

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        code, body = self._call(key, None, "GET", None)
        if code == 200 and isinstance(body, dict):
            return body
        return None

    def _store(self, key: str, record: Dict[str, Any]) -> None:
        self._call(key, record, "PUT", None)

    def _exists(self, key: str) -> bool:
        code, _ = self._call(key, None, "GET", False)
        return code == 200

    def _delete(self, key: str) -> bool:
        code, body = self._call(key, None, "DELETE", False)
        return bool(code == 200 and isinstance(body, dict)
                    and body.get("removed"))

    def count(self) -> int:
        code, body = self._call("", None, "GET", 0)
        if code == 200 and isinstance(body, dict):
            return int(body.get("records", 0))
        return 0

    def clear(self) -> int:
        code, body = self._call("", None, "DELETE", 0)
        if code == 200 and isinstance(body, dict):
            return int(body.get("removed", 0))
        return 0


class CacheRoutes:
    """Server-side ``/cache`` route logic over one local backend.

    All mutations run under ``lock`` — the coordinator shares its state
    lock here, which is what serializes concurrent writers onto the
    real store.
    """

    def __init__(self, backend: CacheBackend,
                 lock: Optional[threading.Lock] = None):
        self.backend = backend
        self.lock = lock or threading.Lock()

    def serve(self, handler: BaseHTTPRequestHandler, method: str,
              path: str) -> Tuple[int, Any]:
        """Answer one ``/cache[/<key>]`` request of an HTTP handler."""
        key = path[len("/cache/"):] if path.startswith("/cache/") else ""
        body = read_json_body(handler) if method == "PUT" else None
        if method == "PUT" and body is None:
            return 400, {"error": "malformed JSON body"}
        return self.handle(method, key, body)

    def handle(self, method: str, key: str,
               body: Optional[Dict[str, Any]]) -> Tuple[int, Any]:
        if key and not _valid_key(key):
            return 404, {"error": "malformed cache key"}
        with self.lock:
            if not key:
                if method == "GET":
                    return 200, {"records": self.backend.count()}
                if method == "DELETE":
                    return 200, {"removed": self.backend.clear()}
                return 405, {"error": f"{method} not allowed on /cache"}
            if method == "GET":
                record = self.backend._load(key)
                if record is None:
                    return 404, {"error": "no such record"}
                return 200, record
            if method == "PUT":
                if not isinstance(body, dict):
                    return 400, {"error": "record body must be a JSON "
                                          "object"}
                self.backend._store(key, body)
                return 204, None
            if method == "DELETE":
                return 200, {"removed": self.backend._delete(key)}
            return 405, {"error": f"{method} not allowed on /cache/<key>"}


def read_json_body(handler: BaseHTTPRequestHandler) \
        -> Optional[Dict[str, Any]]:
    """Decode a request's JSON body; ``None`` on anything malformed
    (missing/absurd Content-Length, truncated body, bad JSON) — the
    kind of wreckage a flaky link leaves behind."""
    try:
        length = int(handler.headers.get("Content-Length", 0))
    except (TypeError, ValueError):
        return None
    if length <= 0 or length > 64 * 1024 * 1024:
        return None
    try:
        raw = handler.rfile.read(length)
    except OSError:
        return None
    if len(raw) != length:
        return None
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return decoded if isinstance(decoded, dict) else None


class _CacheOnlyHandler(StatusHandler):
    """Standalone remote-cache server handler (no campaign attached)."""

    server_version = "repro-cache/1"
    endpoints = ["/cache", "/cache/<key>", "/healthz"]
    routes: CacheRoutes = None

    def _dispatch(self, method: str) -> None:
        path = self._path()
        if path == "/healthz":
            self._respond(200, {"status": "ok",
                                "records": self.routes.backend.count()})
            return
        if path == "/cache" or path.startswith("/cache/"):
            self._respond(*self.routes.serve(self, method, path))
            return
        self._respond(404, {"error": f"unknown path {path!r}",
                            "endpoints": self.endpoints})

    def do_GET(self):              # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_PUT(self):              # noqa: N802 (stdlib naming)
        self._dispatch("PUT")

    def do_DELETE(self):           # noqa: N802 (stdlib naming)
        self._dispatch("DELETE")


def make_cache_server(backend: CacheBackend, host: str = "127.0.0.1",
                      port: int = 0) -> ThreadingHTTPServer:
    """Build (don't start) a standalone remote-cache server over any
    local backend; ``port=0`` picks a free port."""
    handler = type("BoundCacheHandler", (_CacheOnlyHandler,),
                   {"routes": CacheRoutes(backend)})
    return ThreadingHTTPServer((host, port), handler)
