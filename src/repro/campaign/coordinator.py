"""The campaign scheduler: one state machine, pushed to by its caller.

:class:`CoordinatorState` owns a running campaign.  It plans against
the cache, queues the missing trials, hands out the next ready one,
retries transient failures with capped jitter, aborts on
deterministic ones and seals each sweep.  ``Campaign.run`` drives it
from its local worker processes over pipes, or in-process; it is the
only code that writes the campaign directory or its result store:

* **Hand-out, then one outcome.**  :meth:`~CoordinatorState.next_trial`
  gives the caller the next ready trial as a *held* ``(key, host,
  issued)`` triple and journals a ``lease`` event for it;
  :meth:`~CoordinatorState.settle` takes the held triple back with the
  trial's outcome.  The engine watches its workers through process
  sentinels and the per-trial timeout, and settles the trial of a
  worker it reaps as a ``worker-error``.
* **Cache before journal.**  A ``done`` outcome writes the result to
  the campaign's ``dir:`` store *before* appending the journal
  completion, preserving the ordering every resume proof relies on.
* **Failure taxonomy.**  A deterministic ``trial-error`` aborts the
  campaign (journaled); a transient ``worker-error`` re-enqueues with
  bounded capped-jitter retries (:func:`backoff_delay`).  Exhausting
  the budget fails the campaign.
* **Kill-safe.**  SIGKILL the process at any instant and
  ``repro campaign resume`` finishes the directory: held trials live
  in memory only, and every journaled completion is already cached.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..harness.executor import SweepResult, _seal, plan_sweep
from ..harness.spec import Trial

#: Default bound on per-trial re-executions after transient failures.
DEFAULT_RETRIES = 2
#: Default first-retry backoff base; the actual delay is drawn with
#: full jitter from [0, min(DEFAULT_MAX_DELAY, base * 2**(attempt-1))]
#: — see :func:`backoff_delay`.
DEFAULT_BACKOFF = 0.25
#: Hard ceiling on any single backoff delay, in seconds.
DEFAULT_MAX_DELAY = 30.0


#: A worker's hold on a handed-out trial: (trial key, host, issued
#: monotonic time).
Held = Tuple[Tuple[str, int], str, float]


def backoff_delay(base: float, attempt: int, key: Any) -> float:
    """Full-jitter delay for retry ``attempt`` (1-based), capped.

    The classic ``base * 2**(attempt-1)`` schedule is both uncapped
    (attempt 20 waits six days) and deterministic (every trial that
    failed in the same instant retries in the same instant).  Full
    jitter draws the delay uniformly from
    ``[0, min(DEFAULT_MAX_DELAY, base * 2**(attempt-1))]``.

    ``key`` seeds the jitter: something that identifies the retrying
    entity (a ``(sweep, index)`` trial key), so distinct entities
    spread out while the same entity draws the same schedule on every
    run.
    """
    ceiling = min(DEFAULT_MAX_DELAY, base * (2 ** max(0, attempt - 1)))
    if ceiling <= 0:
        return 0.0
    # str seeds hash stably (sha512 path) — identical across processes
    # and PYTHONHASHSEED values, unlike tuple hashes.
    rng = random.Random(f"{key!r}#{attempt}")
    return rng.uniform(0.0, ceiling)


class CoordinatorState:
    """All mutable campaign state; one caller at a time.

    Construction plans against the cache and journals ``start`` +
    ``cached`` events; trials then leave via :meth:`next_trial` and
    come back via :meth:`settle` (``plan.finish`` → cache put → journal
    ``trial`` event → seal the sweep).  ``workers`` is the local worker
    count, for the ``start`` event and each sealed ``SweepResult``.  A
    settled state either ``finished`` or holds an ``error`` whose
    ``error_kind`` is ``"trial-error"`` (deterministic) or
    ``"retries-exhausted"``.
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

    # ---------------------------------------------------- hand-out

    def next_trial(self, host: str) -> Optional[Held]:
        """Hand ``host`` the next ready trial, journaled as a ``lease``;
        ``None`` when the campaign is settled or nothing is ready (the
        next delayed retry is due at :meth:`next_due`)."""
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, key = heapq.heappop(self.delayed)
            self.queue.append(key)
        if self.settled or not self.queue:
            return None
        key = self.queue.popleft()
        self.cdir.append_event({
            "event": "lease", "run": self.run_id, "sweep": key[0],
            "index": key[1], "host": host})
        return key, host, time.monotonic()

    def next_due(self) -> Optional[float]:
        """Monotonic time the earliest delayed retry is due, or
        ``None`` when no retry waits."""
        return self.delayed[0][0] if self.delayed else None

    def settle(self, held: Held, kind: str, payload: Any) -> None:
        """One handed-out trial's outcome: ``done`` with its result,
        ``trial-error`` (deterministic: abort) or ``worker-error``
        (transient: retry) with a reason.  A trial is never ended by
        the clock; the engine settles a reaped worker's trial."""
        key, host, issued = held
        if kind == "trial-error":
            # Rerunning can only fail the same way — abort.
            self._abort(key[0], payload, "trial-error")
            return
        if kind != "done":
            self._schedule_retry(key, payload)
            return
        trial = self.trials[key]
        sweep, index = key
        self.unfinished.discard(key)
        # Cache write happens inside plan.finish, BEFORE the journal
        # append below — the ordering every resume and kill test
        # relies on.
        self.plans[sweep].finish(index, trial, payload)
        self.cdir.append_event({
            "event": "trial", "run": self.run_id, "sweep": sweep,
            "index": index, "spec_hash": trial.spec_hash(),
            "status": "done", "retries": self.retries.get(key, 0),
            "host": host,
            "elapsed": round(time.monotonic() - issued, 6)})
        self._maybe_seal(sweep)
        self._maybe_finish()

    # ------------------------------------------------------ retries

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

    # ---------------------------------------------------- completion

    def _maybe_seal(self, sweep_name: str) -> None:
        if sweep_name in self.results:
            return
        plan = self.plans[sweep_name]
        if any(record is None for record in plan.records):
            return
        result = _seal(plan, self.workers, self.started)
        self.cdir.write_result(sweep_name, result.to_json())
        self.results[sweep_name] = result
        self.cdir.append_event({
            "event": "sweep-done", "run": self.run_id,
            "sweep": sweep_name, "trials": len(plan.sweep.trials),
            "computed": len(plan.pending)})

    def _maybe_finish(self) -> None:
        # Every completion seals its sweep, so with no trial left
        # unfinished every sweep is sealed.
        if self.finished or self.unfinished or self.error is not None:
            return
        self.finished = True
        self.cdir.append_event({
            "event": "finish", "run": self.run_id,
            "elapsed": time.monotonic() - self.started,
            "cache": self.store.stats()})
