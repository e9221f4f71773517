"""Content-addressed result cache.

Cache key = SHA-256 of (trial spec canonical JSON, code fingerprint).
The code fingerprint hashes every ``.py`` file of the installed
``repro`` package, so any change to the simulator invalidates every
cached record automatically — no manual versioning, no stale results
after a refactor.  Changing a trial's config changes its spec and
therefore its key, giving per-trial invalidation for free.  A trial
references nothing outside its spec.

Storage is a :class:`CacheBackend`: one JSON file per record under
``<root>/<key[:2]>/<key>.json``, so a CI cache restore is a plain
directory copy.  The default root is ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-specrun``.  Each write goes to a temp file unique to
the writer and is renamed into place, so concurrent writers — even of
the same key — never expose a half-written record.

``resolve_cache`` turns user-facing cache arguments into a store and
understands ``dir:<path>`` URIs; a store reports its own URI via
:meth:`CacheBackend.uri`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
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


class CacheBackend:
    """Maps trial specs to stored result records: one JSON file per
    record under ``<root>/<key[:2]>/<key>.json``.

    ``get``/``put`` never raise on I/O problems — a broken record or an
    unwritable store degrades to a miss, because the cache must never
    change experiment outcomes.
    """

    #: URI scheme of the store (``dir``).
    scheme = "dir"

    def __init__(self, root: Optional[pathlib.Path] = None,
                 code_version: Optional[str] = None):
        self.code_version = code_version or code_fingerprint()
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -------------------------------------------------------- keying

    def key(self, trial: Trial) -> str:
        payload = canonical_json({"code": self.code_version,
                                  "trial": json.loads(trial.canonical())})
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

    def uri(self) -> str:
        """``dir:<root>``, accepted by :func:`resolve_cache`."""
        return f"dir:{self.root}"

    # ------------------------------------------------------- storage

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
        tmp = path.with_name(f"{key}.{os.urandom(16).hex()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Compact separators keep the C encoder (``indent=`` runs the
            # pure-Python one, whose closures leave a reference cycle
            # per call); ``_load`` reads either layout.
            tmp.write_text(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")),
                           encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def count(self) -> int:
        """Number of stored records (never raises)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))

    def clear(self) -> int:
        """Delete every record; returns the count removed."""
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

#: URI schemes of result stores that no longer exist.
_REMOVED_STORES = ("sqlite:", "http:", "https:")


def resolve_cache(cache="auto") -> Optional[CacheBackend]:
    """Turn a user-facing ``cache`` argument into a backend or None.

    * ``None``/``False`` disables caching;
    * an existing :class:`CacheBackend` passes through;
    * ``"auto"`` builds the default directory backend unless
      ``$REPRO_NO_CACHE=1``;
    * ``"dir:<path>"`` picks the directory backend explicitly;
    * any other path-like builds a directory backend rooted there
      (the historical behaviour).

    A URI of a removed store (``sqlite:``, ``http:``, ``https:``)
    raises ValueError instead of silently becoming a directory of
    that name.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, CacheBackend):
        return cache
    if cache == "auto":
        if os.environ.get(CACHE_DISABLE_ENV) == "1":
            return None
        return CacheBackend()
    if isinstance(cache, str):
        if cache.startswith("dir:"):
            return CacheBackend(root=pathlib.Path(cache[len("dir:"):]))
        if cache.startswith(_REMOVED_STORES):
            scheme = cache.partition(":")[0]
            raise ValueError(f"the {scheme}: result store was removed; "
                             f"use dir:<path> instead of {cache!r}")
    return CacheBackend(root=pathlib.Path(cache))
