"""Sweep execution: one trial order, byte-identical at any worker count.

Running a :class:`~repro.harness.spec.Sweep` yields a
:class:`SweepResult` with results **in trial order**, so the aggregated
output of a sweep is byte-identical however many workers computed it.
Each trial is self-contained — the worker resolves names to fresh
simulator objects via the registry, and the simulator itself is fully
deterministic — so sharding cannot change any measurement.  (A trial's
``seed`` is part of its spec and cache key; the ``extract`` runner
seeds its receiver noise from it unless the params carry their own
``seed``.)

A sweep runs one of two ways; the second is the only multi-process path:

* :class:`SerialExecutor` runs everything inline, no processes — the
  reference semantics;
* :func:`run_sweep` with ``workers > 1`` runs the sweep as a throwaway
  :class:`repro.campaign.Campaign`: the campaign's state machine
  (:mod:`repro.campaign.coordinator`) hands trials to local worker
  processes, retries a trial whose worker died, and seals the result
  exactly as a serial run would.  Journaled, resumable runs use the
  same scheduler directly (``repro campaign``).

``run_sweep`` is the convenience entry point (and what ``repro sweep``
calls).  All cache I/O happens in the calling process: workers only
compute.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cache import CacheBackend, resolve_cache
from .runner import run_trial
from .spec import Sweep, Trial

#: Environment variable providing the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

_warned_bad_workers = False


def default_workers() -> int:
    """Worker count from ``$REPRO_WORKERS``, else ``min(4, cpus)``.

    A malformed value warns once and falls back to the default — it is
    never silently ignored (and never re-parsed downstream: callers get
    a valid int from here, full stop).
    """
    global _warned_bad_workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            if not _warned_bad_workers:
                _warned_bad_workers = True
                warnings.warn(
                    f"ignoring malformed {WORKERS_ENV}={env!r} "
                    f"(expected an integer); using the default worker "
                    f"count", RuntimeWarning, stacklevel=2)
    return min(4, os.cpu_count() or 1)


@dataclass
class SweepResult:
    """Ordered results of one sweep run.

    ``records[i]`` corresponds to ``sweep.trials[i]`` and contains the
    deterministic payload only; volatile run metadata (cache hits,
    wall-clock) lives on the result object itself so ``to_json`` stays
    byte-stable across runs and worker counts.
    """

    name: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    cached: List[bool] = field(default_factory=list)
    workers: int = 1
    elapsed: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @staticmethod
    def _lookup(mapping: Dict[str, Any], dotted: str):
        value: Any = mapping
        for part in dotted.split("."):
            if not isinstance(value, dict) or part not in value:
                return None
            value = value[part]
        return value

    def select(self, kind: Optional[str] = None,
               pred: Optional[Callable[[Dict[str, Any]], bool]] = None,
               **filters) -> List[Dict[str, Any]]:
        """Records matching a kind and parameter equalities.

        Filter keys address trial params; dots descend into nested
        dicts, with ``__`` accepted as a dot stand-in for keyword use
        (``config__rob_size=64``).
        """
        out = []
        for record in self.records:
            if kind is not None and record["kind"] != kind:
                continue
            params = record["params"]
            if any(self._lookup(params, key.replace("__", ".")) != want
                   for key, want in filters.items()):
                continue
            if pred is not None and not pred(record):
                continue
            out.append(record)
        return out

    def one(self, kind: Optional[str] = None, **filters) -> Dict[str, Any]:
        matches = self.select(kind=kind, **filters)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one record for kind={kind} {filters}, "
                f"got {len(matches)}")
        return matches[0]

    def results(self, kind: Optional[str] = None,
                **filters) -> List[Dict[str, Any]]:
        """Just the result payloads of matching records."""
        return [r["result"] for r in self.select(kind=kind, **filters)]

    def to_json(self, indent: int = 2) -> str:
        """Canonical encoding — byte-identical for identical sweeps."""
        return json.dumps({"sweep": self.name, "records": self.records},
                          sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        data = json.loads(text)
        return cls(name=data["sweep"], records=data["records"],
                   cached=[False] * len(data["records"]))

    def describe(self) -> str:
        total = len(self.records)
        return (f"sweep {self.name}: {total} trials, "
                f"{self.cache_hits} cached, {self.cache_misses} computed, "
                f"{self.workers} worker(s), {self.elapsed:.2f}s")


def make_record(trial: Trial, result: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic per-trial record every sweep run emits."""
    return {"kind": trial.kind, "label": trial.label,
            "params": trial.params, "seed": trial.seed,
            "spec_hash": trial.spec_hash(), "result": result}


@dataclass
class _Plan:
    """Cache-scan outcome shared by the serial path and the campaign
    scheduler: what is already served and what still needs computing."""

    sweep: Sweep
    store: Optional[CacheBackend]
    records: List[Optional[Dict[str, Any]]]
    cached_flags: List[bool]
    pending: List[Tuple[int, Trial]]
    say: Callable[[str], None]

    def finish(self, index: int, trial: Trial, result: Dict[str, Any]):
        self.records[index] = make_record(trial, result)
        if self.store is not None:
            self.store.put(trial, result)
        self.say(f"[{index + 1}/{len(self.sweep.trials)}] "
                 f"{trial.label}: done")


def plan_sweep(sweep: Sweep, cache="auto", force: bool = False,
               progress: Optional[Callable[[str], None]] = None) -> _Plan:
    """Scan the cache and split a sweep into served + pending trials."""
    store = resolve_cache(cache)
    say = progress or (lambda line: None)
    records: List[Optional[Dict[str, Any]]] = [None] * len(sweep.trials)
    cached_flags = [False] * len(sweep.trials)
    pending: List[Tuple[int, Trial]] = []
    for index, trial in enumerate(sweep.trials):
        hit = None if (store is None or force) else store.get(trial)
        if hit is not None:
            records[index] = make_record(trial, hit)
            cached_flags[index] = True
            say(f"[{index + 1}/{len(sweep.trials)}] {trial.label}: cached")
        else:
            pending.append((index, trial))
    return _Plan(sweep=sweep, store=store, records=records,
                 cached_flags=cached_flags, pending=pending, say=say)


def _seal(plan: _Plan, workers: int, started: float) -> SweepResult:
    return SweepResult(
        name=plan.sweep.name,
        records=[r for r in plan.records if r is not None],
        cached=plan.cached_flags,
        workers=workers,
        elapsed=time.monotonic() - started,
        cache_hits=sum(plan.cached_flags),
        cache_misses=len(plan.pending))


class SerialExecutor:
    """Everything inline in the calling process — the reference
    semantics :func:`run_sweep` reproduces byte-for-byte at any worker
    count."""

    def execute(self, sweep: Sweep, cache="auto", force: bool = False,
                progress: Optional[Callable[[str], None]] = None) \
            -> SweepResult:
        started = time.monotonic()
        plan = plan_sweep(sweep, cache=cache, force=force,
                          progress=progress)
        for index, trial in plan.pending:
            plan.finish(index, trial, run_trial(trial))
        return _seal(plan, workers=1, started=started)


def run_sweep(sweep: Sweep, workers: Optional[int] = None, cache="auto",
              force: bool = False,
              progress: Optional[Callable[[str], None]] = None) \
        -> SweepResult:
    """Execute every trial of ``sweep``; results come back in trial
    order.  Serial at one worker; above that the sweep runs as a
    throwaway campaign (:class:`repro.campaign.Campaign` in a temporary
    directory), whose scheduler retries a trial lost to a dead worker
    process.

    Parameters
    ----------
    workers:
        Process count for the cache-missing trials.  ``None`` reads
        ``$REPRO_WORKERS`` (default: min(4, cpu count)); 1 runs inline.
    cache:
        "auto" (default on-disk cache, honouring ``$REPRO_NO_CACHE``),
        ``None`` to disable, a :class:`CacheBackend`, a directory path,
        or a ``dir:<path>`` URI.
    force:
        Recompute every trial even on a cache hit (fresh results are
        still written back).
    progress:
        Optional callable receiving one line per trial state change.
    """
    workers = default_workers() if workers is None else max(1, workers)
    if workers == 1:
        return SerialExecutor().execute(sweep, cache=cache, force=force,
                                        progress=progress)
    # Lazy import: the campaign package is built on this module.
    from ..campaign.engine import Campaign
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
        # With caching off the campaign computes into its own store,
        # which is deleted with the directory.
        campaign = Campaign.create(scratch, [sweep],
                                   cache=resolve_cache(cache))
        return campaign.run(workers=workers, progress=progress,
                            force=force)[0]
