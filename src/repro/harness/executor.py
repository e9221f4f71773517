"""Sweep execution behind a pluggable :class:`Executor` API.

An executor turns a :class:`~repro.harness.spec.Sweep` into a
:class:`SweepResult` with results **in trial order**, so the aggregated
output of a sweep is byte-identical no matter which executor ran it or
how many workers it used.  Each trial is self-contained — the worker
resolves names to fresh simulator objects via the registry, and the
simulator itself is fully deterministic — so sharding cannot change any
measurement.  (A trial's ``seed`` is part of its spec and cache key,
reserved for future stochastic workloads; current runners don't
consume it.)

Three executors ship today:

* :class:`SerialExecutor` — everything inline, no processes;
* :class:`ProcessPoolExecutor` — the classic ``multiprocessing`` pool
  fan-out (byte-identical to the serial path by construction);
* :class:`repro.campaign.CampaignExecutor` — journaled, resumable
  execution for large campaigns (crash resume, retries, per-trial
  timeouts, live status).  One lease state machine
  (:mod:`repro.campaign.coordinator`) hands trials to local worker
  processes or, over HTTP, to worker hosts on other machines, and
  ``http://`` cache URIs point any executor at a remote result store.

``run_sweep`` remains the convenience entry point (and what
``repro sweep`` calls): it picks a serial or pool executor from the
``workers`` argument exactly as it always has.

All cache I/O happens in the parent process: workers only compute.
"""

from __future__ import annotations

import abc
import json
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.metrics import get_registry
from .cache import CacheBackend, resolve_cache
from .runner import TrialError, run_trial
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
    byte-stable across runs, executors and worker counts.
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
    """The deterministic per-trial record every executor must emit."""
    return {"kind": trial.kind, "label": trial.label,
            "params": trial.params, "seed": trial.seed,
            "spec_hash": trial.spec_hash(), "result": result}


@dataclass
class _Plan:
    """Cache-scan outcome shared by every executor: what is already
    served and what still needs computing."""

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
        get_registry().counter(
            "repro_trials_finished_total",
            "Trials completed by any executor",
            labels={"kind": trial.kind}).inc()
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
    registry = get_registry()
    hits = len(sweep.trials) - len(pending)
    if hits:
        registry.counter("repro_cache_lookups_total",
                         "Result-cache lookups by outcome",
                         labels={"outcome": "hit"}).inc(hits)
    if pending:
        registry.counter("repro_cache_lookups_total",
                         "Result-cache lookups by outcome",
                         labels={"outcome": "miss"}).inc(len(pending))
    return _Plan(sweep=sweep, store=store, records=records,
                 cached_flags=cached_flags, pending=pending, say=say)


def _timed_run(trial: Trial) -> Dict[str, Any]:
    """Inline trial execution with a wall-time observation."""
    begin = time.monotonic()
    result = run_trial(trial)
    get_registry().histogram(
        "repro_trial_seconds",
        "Per-trial compute wall time").observe(
        time.monotonic() - begin)
    return result


def _seal(plan: _Plan, workers: int, started: float) -> SweepResult:
    return SweepResult(
        name=plan.sweep.name,
        records=[r for r in plan.records if r is not None],
        cached=plan.cached_flags,
        workers=workers,
        elapsed=time.monotonic() - started,
        cache_hits=sum(plan.cached_flags),
        cache_misses=len(plan.pending))


class Executor(abc.ABC):
    """Strategy for running a sweep's trials.

    The contract every implementation must honour:

    * ``execute(sweep, cache) -> SweepResult`` with ``records`` in
      trial order, **byte-identical** (``to_json``) to a serial run;
    * cache reads/writes happen in the calling process only;
    * a deterministic trial failure surfaces as
      :class:`~repro.harness.runner.TrialError`.
    """

    @abc.abstractmethod
    def execute(self, sweep: Sweep, cache="auto", force: bool = False,
                progress: Optional[Callable[[str], None]] = None) \
            -> SweepResult:
        """Run every trial; return ordered results."""


class SerialExecutor(Executor):
    """Everything inline in the calling process — the reference
    semantics all other executors must reproduce byte-for-byte."""

    def execute(self, sweep: Sweep, cache="auto", force: bool = False,
                progress: Optional[Callable[[str], None]] = None) \
            -> SweepResult:
        started = time.monotonic()
        plan = plan_sweep(sweep, cache=cache, force=force,
                          progress=progress)
        for index, trial in plan.pending:
            plan.finish(index, trial, _timed_run(trial))
        return _seal(plan, workers=1, started=started)


def _pool_worker(payload: Tuple[int, Dict[str, Any]]) \
        -> Tuple[int, Optional[Dict[str, Any]], Optional[str]]:
    index, trial_dict = payload
    try:
        return index, run_trial(Trial.from_dict(trial_dict)), None
    except Exception as exc:   # surfaced in the parent as TrialError
        return index, None, f"{type(exc).__name__}: {exc}"


class ProcessPoolExecutor(Executor):
    """Fan cache-missing trials out across a ``multiprocessing`` pool.

    Results are reassembled in trial order, so the output is
    byte-identical to :class:`SerialExecutor` at any worker count.
    With one worker (or at most one pending trial) it runs inline —
    no pool is spawned for work that cannot be parallelised.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = default_workers() if workers is None \
            else max(1, workers)

    def execute(self, sweep: Sweep, cache="auto", force: bool = False,
                progress: Optional[Callable[[str], None]] = None) \
            -> SweepResult:
        started = time.monotonic()
        plan = plan_sweep(sweep, cache=cache, force=force,
                          progress=progress)
        if len(plan.pending) <= 1 or self.workers == 1:
            for index, trial in plan.pending:
                plan.finish(index, trial, _timed_run(trial))
        else:
            by_index = {index: trial for index, trial in plan.pending}
            jobs = [(index, trial.to_dict())
                    for index, trial in plan.pending]
            procs = min(self.workers, len(plan.pending))
            with multiprocessing.Pool(processes=procs) as pool:
                for index, result, error in pool.imap_unordered(
                        _pool_worker, jobs, chunksize=1):
                    if error is not None:
                        pool.terminate()
                        raise TrialError(
                            f"trial {by_index[index].label!r} failed in "
                            f"worker: {error}")
                    plan.finish(index, by_index[index], result)
        return _seal(plan, workers=self.workers, started=started)


def run_sweep(sweep: Sweep, workers: Optional[int] = None, cache="auto",
              force: bool = False,
              progress: Optional[Callable[[str], None]] = None) \
        -> SweepResult:
    """Execute every trial of ``sweep``; results come back in trial
    order.  Thin wrapper that picks an :class:`Executor` from
    ``workers``: serial at 1, a process pool above.

    Parameters
    ----------
    workers:
        Process count for the cache-missing trials.  ``None`` reads
        ``$REPRO_WORKERS`` (default: min(4, cpu count)); 1 runs inline.
    cache:
        "auto" (default on-disk cache, honouring ``$REPRO_NO_CACHE``),
        ``None`` to disable, a :class:`CacheBackend`, a directory path,
        or a ``dir:<path>`` / ``http://host:port`` URI.
    force:
        Recompute every trial even on a cache hit (fresh results are
        still written back).
    progress:
        Optional callable receiving one line per trial state change.
    """
    workers = default_workers() if workers is None else max(1, workers)
    chosen = SerialExecutor() if workers == 1 \
        else ProcessPoolExecutor(workers=workers)
    return chosen.execute(sweep, cache=cache, force=force,
                          progress=progress)
