"""The campaign scheduler: one lease state machine.

:class:`CoordinatorState` owns a running campaign.  It plans against
the cache, queues the missing trials, hands them out under leases,
retries transient failures with capped jitter, aborts on
deterministic ones and seals each sweep.  ``Campaign.run`` drives it
from its local worker processes over pipes, or in-process; it is the
only code that writes the campaign directory or its result store:

* **Leases, not assignments.**  ``claim`` hands a worker the next
  pending trial under a *lease* (host id, trial index) journaled to
  ``journal.jsonl``.  A lease ends only by ``complete`` or ``fail``:
  the engine watches its workers through process sentinels and the
  per-trial timeout, and fails the lease of a worker it reaps.
* **Cache before journal.**  ``complete`` writes the result to the
  campaign's ``dir:`` store *before* appending the journal
  completion, preserving the ordering every resume proof relies on.
* **Failure taxonomy.**  ``fail`` with a deterministic
  ``trial-error`` aborts the campaign (journaled); transient
  ``worker-error``\\ s re-enqueue with bounded capped-jitter retries
  (:func:`backoff_delay`).  Exhausting the budget fails the campaign.
* **Kill-safe.**  SIGKILL the process at any instant and
  ``repro campaign resume`` finishes the directory: leases live in
  memory only, and every journaled completion is already cached.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..harness.executor import SweepResult, plan_sweep
from ..harness.spec import Trial

#: Default bound on per-trial re-executions after transient failures.
DEFAULT_RETRIES = 2
#: Default first-retry backoff base; the actual delay is drawn with
#: full jitter from [0, min(cap, base * 2**(attempt-1))] — see
#: :func:`backoff_delay`.
DEFAULT_BACKOFF = 0.25
#: Hard ceiling on any single backoff delay, in seconds.
DEFAULT_MAX_DELAY = 30.0


def backoff_delay(base: float, attempt: int,
                  cap: float = DEFAULT_MAX_DELAY,
                  key: Any = None) -> float:
    """Full-jitter delay for retry ``attempt`` (1-based), capped.

    The classic ``base * 2**(attempt-1)`` schedule is both uncapped
    (attempt 20 waits six days) and deterministic (every trial that
    failed in the same instant retries in the same instant).  Full
    jitter draws the delay uniformly from
    ``[0, min(cap, base * 2**(attempt-1))]``.

    ``key`` seeds the jitter: pass something that identifies the
    retrying entity (a ``(sweep, index)`` trial key) so distinct
    entities spread out while the same entity draws the same schedule
    on every run.  ``key=None`` draws from the global RNG (still
    capped, no longer reproducible).
    """
    ceiling = min(cap, base * (2 ** max(0, attempt - 1)))
    if ceiling <= 0:
        return 0.0
    if key is None:
        return random.uniform(0.0, ceiling)
    # str seeds hash stably (sha512 path) — identical across processes
    # and PYTHONHASHSEED values, unlike tuple hashes.
    rng = random.Random(f"{key!r}#{attempt}")
    return rng.uniform(0.0, ceiling)


class _Lease:
    __slots__ = ("host", "key", "issued")

    def __init__(self, host: str, key: Tuple[str, int], issued: float):
        self.host = host
        self.key = key                  # (sweep name, trial index)
        self.issued = issued            # monotonic


class CoordinatorState:
    """All mutable campaign state; one caller at a time.

    Construction plans against the cache and journals ``start`` +
    ``cached`` events; trials then leave via leases and come back via
    completions (``plan.finish`` → cache put → journal ``trial`` event
    → seal the sweep).  ``workers`` is the local worker count, for the
    ``start`` event and each sealed ``SweepResult``.  A settled state
    either ``finished`` or holds an ``error`` whose ``error_kind`` is
    ``"trial-error"`` (deterministic) or ``"retries-exhausted"``.
    """

    def __init__(self, campaign, workers: int,
                 progress: Optional[Callable[[str], None]] = None,
                 force: bool = False):
        self.cdir = campaign.cdir
        self.store = campaign.backend()
        self.timeout = campaign.manifest.get("timeout")
        self.max_retries = campaign.manifest.get("max_retries",
                                                 DEFAULT_RETRIES)
        self.backoff = campaign.manifest.get("backoff", DEFAULT_BACKOFF)
        self.workers = workers

        self.run_id = 1 + sum(1 for e in self.cdir.events()
                              if e.get("event") == "start")
        self.started = time.monotonic()
        self.plans = {}                        # sweep name -> _Plan
        self.trials: Dict[Tuple[str, int], Trial] = {}
        self.queue: deque = deque()            # ready (sweep, index)
        self.delayed: List = []                # heap (ready_time, key)
        self.unfinished: set = set()
        self.sealed: set = set()
        self.leases: Dict[str, _Lease] = {}
        self.retries: Dict[Tuple[str, int], int] = {}
        self.error: Optional[str] = None
        self.error_kind: Optional[str] = None
        self.finished = False
        self.results: Dict[str, SweepResult] = {}   # sealed sweeps

        for sweep in campaign.sweeps():
            plan = plan_sweep(sweep, cache=self.store, force=force,
                              progress=progress)
            self.plans[sweep.name] = plan
            for index, trial in plan.pending:
                key = (sweep.name, index)
                self.trials[key] = trial
                self.unfinished.add(key)
                self.queue.append(key)
        self.cdir.append_event({
            "event": "start", "run": self.run_id, "workers": workers,
            "pending": sum(len(p.pending) for p in self.plans.values()),
            "cached": sum(sum(p.cached_flags)
                          for p in self.plans.values())})
        for name, plan in self.plans.items():
            for index, flag in enumerate(plan.cached_flags):
                if flag:
                    self.cdir.append_event({
                        "event": "trial", "run": self.run_id,
                        "sweep": name, "index": index,
                        "spec_hash": plan.sweep.trials[index].spec_hash(),
                        "status": "cached", "retries": 0})
        # Sweeps fully served from the cache seal immediately; a run
        # on a finished campaign just re-seals and reports done.
        for name in list(self.plans):
            self._maybe_seal(name)
        self._maybe_finish()

    @property
    def settled(self) -> bool:
        return self.finished or self.error is not None

    # -------------------------------------------------- write routes

    def handle(self, endpoint: str, body: Dict[str, Any]) -> Dict[str, Any]:
        """One worker request, as a transport delivers it."""
        if endpoint == "claim":
            return self.claim(body["host"])
        if endpoint == "complete":
            return self.complete(body)
        if endpoint == "fail":
            return self.fail(body)
        raise ValueError(f"no worker route {endpoint!r}")

    def claim(self, host: str) -> Dict[str, Any]:
        self.reconcile()
        if self.error is not None:
            return {"state": "failed", "error": self.error}
        if self.finished:
            return {"done": True}
        if not self.queue:
            return {"retry_after": self._poll_hint()}
        key = self.queue.popleft()
        lease_id = os.urandom(16).hex()
        self.leases[lease_id] = _Lease(host, key, time.monotonic())
        sweep, index = key
        self.cdir.append_event({
            "event": "lease", "run": self.run_id, "sweep": sweep,
            "index": index, "host": host, "lease": lease_id})
        return {"lease": lease_id, "trial": self.trials[key].to_dict()}

    def complete(self, body: Dict[str, Any]) -> Dict[str, Any]:
        lease = self.leases.pop(body["lease"])
        key = lease.key
        trial = self.trials[key]
        sweep, index = key
        self.unfinished.discard(key)
        # Cache write happens inside plan.finish, BEFORE the journal
        # append below — the ordering every resume and kill test
        # relies on.
        self.plans[sweep].finish(index, trial, body["result"])
        self.cdir.append_event({
            "event": "trial", "run": self.run_id, "sweep": sweep,
            "index": index, "spec_hash": trial.spec_hash(),
            "status": "done", "retries": self.retries.get(key, 0),
            "host": lease.host,
            "elapsed": round(time.monotonic() - lease.issued, 6)})
        self._maybe_seal(sweep)
        self._maybe_finish()
        return {"ok": True}

    def fail(self, body: Dict[str, Any]) -> Dict[str, Any]:
        key = self.leases.pop(body["lease"]).key
        reason = str(body.get("reason", "worker reported failure"))
        if body.get("kind") == "trial-error":
            # Deterministic failure: rerunning can only fail the same
            # way — abort the campaign.
            self._abort(key[0], reason, "trial-error")
            return {"ok": True, "state": "failed"}
        self._schedule_retry(key, reason)
        return {"ok": True}

    # ------------------------------------------------------ retries

    def reconcile(self) -> None:
        """Queue the delayed retries whose backoff is over.  Runs from
        the engine's loop and at the top of every claim; a lease is
        never ended by the clock."""
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, key = heapq.heappop(self.delayed)
            self.queue.append(key)

    def _schedule_retry(self, key: Tuple[str, int], reason: str) -> None:
        if self.error is not None:
            return
        attempt = self.retries.get(key, 0) + 1
        if attempt > self.max_retries:
            label = self.trials[key].label
            self._abort(key[0],
                        f"trial {label!r} failed "
                        f"{self.max_retries + 1} times; last failure: "
                        f"{reason}", "retries-exhausted")
            return
        self.retries[key] = attempt
        self.cdir.append_event({
            "event": "retry", "run": self.run_id, "sweep": key[0],
            "index": key[1], "attempt": attempt, "reason": reason})
        delay = backoff_delay(self.backoff, attempt,
                              key=("coordinator",) + key)
        heapq.heappush(self.delayed, (time.monotonic() + delay, key))

    def _abort(self, sweep: str, message: str, kind: str) -> None:
        self.error = message
        self.error_kind = kind
        self.cdir.append_event({
            "event": "error", "run": self.run_id, "sweep": sweep,
            "message": message})

    def _poll_hint(self) -> float:
        """How long a worker that found nothing ready should wait:
        until the earliest delayed retry is due."""
        if self.delayed:
            return max(0.05, self.delayed[0][0] - time.monotonic())
        return 0.05

    # ---------------------------------------------------- completion

    def _maybe_seal(self, sweep_name: str) -> None:
        if sweep_name in self.sealed:
            return
        plan = self.plans[sweep_name]
        if any(record is None for record in plan.records):
            return
        result = SweepResult(
            name=sweep_name,
            records=[r for r in plan.records],
            cached=plan.cached_flags,
            workers=self.workers,
            elapsed=time.monotonic() - self.started,
            cache_hits=sum(plan.cached_flags),
            cache_misses=len(plan.pending))
        self.cdir.write_result(sweep_name, result.to_json())
        self.results[sweep_name] = result
        self.cdir.append_event({
            "event": "sweep-done", "run": self.run_id,
            "sweep": sweep_name, "trials": len(plan.sweep.trials),
            "computed": len(plan.pending)})
        self.sealed.add(sweep_name)

    def _maybe_finish(self) -> None:
        if self.finished or self.unfinished or self.error is not None:
            return
        for name in self.plans:
            self._maybe_seal(name)
        if len(self.sealed) == len(self.plans):
            self.finished = True
            self.cdir.append_event({
                "event": "finish", "run": self.run_id,
                "elapsed": time.monotonic() - self.started,
                "cache": self.store.stats()})
