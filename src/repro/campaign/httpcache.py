"""``http:<url>`` cache backend — a remote result store over HTTP.

The client half, :class:`HttpCacheBackend`, is a full
:class:`~repro.harness.cache.CacheBackend` whose record storage lives
behind the coordinator's ``/cache/<key>`` endpoints.  Keying stays
client-side (trial spec + code fingerprint, exactly like the local
directory backend), so identical trials hit the same record whether
the store is a directory or a URL.  Every network call carries a
timeout and capped, jittered retries (:mod:`repro.campaign.netretry`),
and — like every backend — **never raises**: an unreachable or flaky
server degrades to a cache miss, because the cache must never change
experiment outcomes.

The server half, :class:`CacheRoutes`, maps those endpoints onto a
local backend.  The campaign coordinator mounts it (serialized under
its state lock, in front of the campaign's ``dir:`` store), so a plain
sweep run on one host can use a coordinator's store on another via
``run_sweep(..., cache="http://host:port")``.

Wire protocol (all JSON):

====================  =============================================
``GET /cache/<key>``  200 + the raw record, or 404
``PUT /cache/<key>``  store the request body as the record → 204
``GET /cache``        200 ``{"records": N}``
``DELETE /cache``     200 ``{"removed": N}`` (clear)
====================  =============================================
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Tuple

from ..harness.cache import CacheBackend
from .netretry import DEFAULT_POLICY, RetryPolicy, Unreachable, request_json

_KEY_CHARS = set("0123456789abcdef")


def _valid_key(key: str) -> bool:
    return bool(key) and len(key) <= 128 and set(key) <= _KEY_CHARS


class HttpCacheBackend(CacheBackend):
    """Cache client for a campaign coordinator's URL.

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

    def __init__(self, backend: CacheBackend, lock: threading.Lock):
        self.backend = backend
        self.lock = lock

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
