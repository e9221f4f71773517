"""Campaign directory layout: manifest + write-ahead journal.

A campaign directory is fully self-describing::

    <dir>/campaign.json    manifest: the sweeps (full trial specs),
                           cache URI, engine settings, signatures
    <dir>/journal.jsonl    append-only event log, one JSON object per
                           line (trial completions, retries, run
                           start/finish markers, and the ``lease``
                           records of the scheduler carrying host
                           identities — ``local-<n>`` for a run's
                           workers)
    <dir>/cache/           the campaign's result store (a ``dir:``
                           CacheBackend URI; defaults to ``dir:cache``
                           inside the campaign dir)
    <dir>/<sweep>.result.json
                           canonical SweepResult.to_json per completed
                           sweep (name percent-encoded) — byte-identical
                           however the campaign was executed,
                           interrupted or resumed

The journal is *write-ahead bookkeeping*, not the source of truth for
results: payloads live in the cache, keyed by trial content, so a
campaign killed between a cache write and a journal append simply
recomputes (or cache-hits) that trial on resume.  Readers therefore
tolerate a truncated final line — the tail a SIGKILL can leave behind.

Everything here is file I/O only; nothing imports the simulator, which
is what lets ``repro campaign status`` / ``serve`` run against a live
campaign without perturbing it.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import quote

from ..harness.spec import Sweep

MANIFEST_NAME = "campaign.json"
JOURNAL_NAME = "journal.jsonl"

MANIFEST_VERSION = 1


class CampaignError(RuntimeError):
    """A campaign could not be created, opened, resumed or completed."""


def result_filename(sweep_name: str) -> str:
    """One flat file per sweep: the name is percent-encoded, so a
    ``/`` in it can neither nest a directory nor escape this one."""
    return f"{quote(sweep_name, safe='')}.result.json"


class CampaignDir:
    """Filesystem view of one campaign directory (manifest + journal)."""

    def __init__(self, directory):
        self.path = pathlib.Path(directory)

    # ------------------------------------------------------ manifest

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.path / MANIFEST_NAME

    @property
    def journal_path(self) -> pathlib.Path:
        return self.path / JOURNAL_NAME

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2),
                       encoding="utf-8")
        tmp.replace(self.manifest_path)

    def read_manifest(self) -> Dict[str, Any]:
        try:
            manifest = json.loads(
                self.manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CampaignError(
                f"no campaign at {self.path} (missing {MANIFEST_NAME}): "
                f"{exc}") from exc
        except ValueError as exc:
            raise CampaignError(
                f"corrupt manifest {self.manifest_path}: {exc}") from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise CampaignError(
                f"manifest {self.manifest_path} has version "
                f"{manifest.get('version')!r}; this build understands "
                f"{MANIFEST_VERSION}")
        return manifest

    def sweeps(self, manifest: Optional[Dict[str, Any]] = None) \
            -> List[Sweep]:
        manifest = manifest or self.read_manifest()
        return [Sweep.from_dict(d) for d in manifest["sweeps"]]

    # ------------------------------------------------------- journal

    def append_event(self, event: Dict[str, Any]) -> None:
        """Append one journal line, flushed before returning."""
        event = dict(event, time=time.time())
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
            handle.flush()

    def events(self) -> Iterator[Dict[str, Any]]:
        """Journal events in append order; skips any truncated tail."""
        try:
            with open(self.journal_path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue   # half-written line from a kill
                    if isinstance(event, dict):
                        yield event
        except OSError:
            return

    # ------------------------------------------------------- results

    def result_path(self, sweep_name: str) -> pathlib.Path:
        return self.path / result_filename(sweep_name)

    def write_result(self, sweep_name: str, text: str) -> None:
        tmp = self.result_path(sweep_name).with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(self.result_path(sweep_name))

    def read_result(self, sweep_name: str) -> Optional[str]:
        try:
            return self.result_path(sweep_name).read_text(encoding="utf-8")
        except OSError:
            return None
