"""Content-addressed result cache behind a pluggable backend API.

Cache key = SHA-256 of (trial spec canonical JSON, code fingerprint,
external-input digests).  The code fingerprint hashes every ``.py``
file of the installed ``repro`` package, so any change to the
simulator invalidates every cached record automatically — no manual
versioning, no stale results after a refactor.  Changing a trial's
config changes its spec and therefore its key, giving per-trial
invalidation for free.  The one way a trial can reference data
*outside* its spec is a ``trace:<path>`` workload name
(:mod:`repro.trace` file replays); the content of every such file is
hashed into the key, so re-recording a trace invalidates exactly the
trials that replay it.

Storage is a :class:`CacheBackend`:

* :class:`DirectoryCacheBackend` (the historical layout, also exported
  as ``ResultCache``) keeps one JSON file per record under
  ``<root>/<key[:2]>/<key>.json`` so a CI cache restore is a plain
  directory copy.  The default root is ``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro-specrun``.  Each write goes to a temp file unique
  to the writer and is renamed into place, so concurrent writers —
  even of the same key — never expose a half-written record.
* :class:`repro.campaign.httpcache.HttpCacheBackend` (URI =
  ``http://host:port``) stores records behind a campaign coordinator
  on another host — the multi-host remote store.  It lives with the
  campaign network stack; ``resolve_cache`` loads it lazily so this
  module stays free of network code.

``resolve_cache`` turns user-facing cache arguments into backends and
understands ``dir:<path>`` / ``http://<url>`` URIs; every backend
reports its own URI via :meth:`CacheBackend.uri`.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import pathlib
import uuid
from functools import lru_cache
from typing import Any, Dict, Optional

from .spec import Trial, canonical_json

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable that disables caching entirely when set to "1".
CACHE_DISABLE_ENV = "REPRO_NO_CACHE"

_RECORD_VERSION = 1


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-specrun"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every .py file of the repro package (path + bytes)."""
    import repro
    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def _external_trace_paths(value: Any) -> list:
    """Collect ``trace:<path>`` workload references inside trial params."""
    if isinstance(value, str):
        return [value[len("trace:"):]] if value.startswith("trace:") else []
    if isinstance(value, dict):
        return [p for v in value.values() for p in _external_trace_paths(v)]
    if isinstance(value, (list, tuple)):
        return [p for v in value for p in _external_trace_paths(v)]
    return []


def _external_digests(paths) -> Dict[str, str]:
    """Content digest per referenced file (sentinel when unreadable —
    such trials fail at run time, so nothing wrong gets cached)."""
    digests: Dict[str, str] = {}
    for path in sorted(set(paths)):
        try:
            digest = hashlib.sha256(
                pathlib.Path(path).read_bytes()).hexdigest()
        except OSError:
            digest = "unreadable"
        digests[path] = digest
    return digests


class CacheBackend(abc.ABC):
    """Maps trial specs to stored result records.

    The public surface every backend implements identically:
    ``get``/``put``/``stats``/``count``/``clear``/``uri``.
    ``get``/``put`` never raise on I/O problems — a broken record or an
    unwritable store degrades to a miss, because the cache must never
    change experiment outcomes.  Keying is shared
    (:meth:`key`): identical trials hit the same record in any backend.

    Subclasses provide only the raw record storage:
    :meth:`_load` / :meth:`_store` / :meth:`count` / :meth:`clear` —
    none of which may raise.
    """

    #: URI scheme of the backend (``dir`` / ``http``).
    scheme = "?"

    def __init__(self, code_version: Optional[str] = None):
        self.code_version = code_version or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -------------------------------------------------------- keying

    def key(self, trial: Trial) -> str:
        payload_dict = {"code": self.code_version,
                        "trial": json.loads(trial.canonical())}
        externals = _external_trace_paths(trial.params)
        if externals:
            payload_dict["externals"] = _external_digests(externals)
        payload = canonical_json(payload_dict)
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------ public surface

    def get(self, trial: Trial) -> Optional[Dict[str, Any]]:
        """Return the cached result payload for this trial, or None."""
        record = self._load(self.key(trial))
        if record is None or record.get("version") != _RECORD_VERSION \
                or "result" not in record:
            self.misses += 1
            return None
        self.hits += 1
        return record["result"]

    def put(self, trial: Trial, result: Dict[str, Any]) -> None:
        key = self.key(trial)
        record = {
            "version": _RECORD_VERSION,
            "key": key,
            "code": self.code_version,
            "trial": trial.to_dict(),
            "result": result,
        }
        self._store(key, record)
        self.puts += 1

    def stats(self) -> Dict[str, Any]:
        """Counters + store-wide figures, JSON-ready (for ``status``)."""
        lookups = self.hits + self.misses
        return {
            "backend": self.scheme,
            "uri": self.uri(),
            "records": self.count(),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

    def describe(self) -> str:
        return (f"cache {self.uri()} (code {self.code_version[:12]}): "
                f"{self.hits} hits, {self.misses} misses")

    @abc.abstractmethod
    def uri(self) -> str:
        """``<scheme>:<location>`` string accepted by resolve_cache."""

    # ------------------------------------------------- storage hooks

    @abc.abstractmethod
    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        """Raw record for a key, or None (never raises)."""

    @abc.abstractmethod
    def _store(self, key: str, record: Dict[str, Any]) -> None:
        """Persist a record (never raises; failure degrades to a miss)."""

    @abc.abstractmethod
    def count(self) -> int:
        """Number of stored records (never raises)."""

    @abc.abstractmethod
    def clear(self) -> int:
        """Delete every record; returns the count removed."""


class DirectoryCacheBackend(CacheBackend):
    """One JSON file per record under ``<root>/<key[:2]>/<key>.json``.

    Byte-compatible with the historical ``ResultCache`` layout: records
    written by either spelling are interchangeable, and a CI cache
    restore stays a plain directory copy.
    """

    scheme = "dir"

    def __init__(self, root: Optional[pathlib.Path] = None,
                 code_version: Optional[str] = None):
        super().__init__(code_version=code_version)
        self.root = pathlib.Path(root) if root else default_cache_dir()

    def uri(self) -> str:
        return f"dir:{self.root}"

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _store(self, key: str, record: Dict[str, Any]) -> None:
        # A temp name unique to this writer, in the record's directory:
        # two writers of one key each rename a complete file into place
        # (last write wins), never each other's half-written one.
        path = self._path(key)
        tmp = path.with_name(f"{key}.{uuid.uuid4().hex}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True, indent=1),
                           encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))

    def clear(self) -> int:
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


#: Historical name of the directory backend (public API since PR 1).
ResultCache = DirectoryCacheBackend


def resolve_cache(cache="auto") -> Optional[CacheBackend]:
    """Turn a user-facing ``cache`` argument into a backend or None.

    * ``None``/``False`` disables caching;
    * an existing :class:`CacheBackend` passes through;
    * ``"auto"`` builds the default directory backend unless
      ``$REPRO_NO_CACHE=1``;
    * ``"dir:<path>"`` picks the directory backend explicitly;
      ``"http://host:port"`` builds the remote backend talking to a
      campaign coordinator;
    * any other path-like builds a directory backend rooted there
      (the historical behaviour).

    A URI of the removed single-file store raises ValueError instead
    of silently becoming a directory of that name.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, CacheBackend):
        return cache
    if cache == "auto":
        if os.environ.get(CACHE_DISABLE_ENV) == "1":
            return None
        return DirectoryCacheBackend()
    if isinstance(cache, str):
        if cache.startswith("dir:"):
            return DirectoryCacheBackend(
                root=pathlib.Path(cache[len("dir:"):]))
        if cache.startswith("sqlite:"):
            raise ValueError(f"the sqlite: result store was removed; "
                             f"use dir:<path> instead of {cache!r}")
        if cache.startswith(("http://", "https://")):
            # Lazy import: the remote backend lives with the campaign
            # network stack, keeping this module free of network code.
            from ..campaign.httpcache import HttpCacheBackend
            return HttpCacheBackend(cache)
    return DirectoryCacheBackend(root=pathlib.Path(cache))
