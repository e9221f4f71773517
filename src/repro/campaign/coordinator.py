"""The campaign scheduler: one lease state machine, any transport.

:class:`CoordinatorState` owns a running campaign.  It plans against
the cache, queues the missing trials, hands them out under leases,
retries transient failures with capped jitter, aborts on
deterministic ones and seals each sweep.  Every campaign run goes
through it: ``Campaign.run`` drives it from local worker processes
over pipes (or in-process), and ``repro campaign coordinate <dir>``
serves it over HTTP to worker hosts (:mod:`repro.campaign.worker`).
Either way this is the only code that writes the campaign directory
or its result store:

* **Leases, not assignments.**  ``POST /claim`` hands a worker the
  next pending trial under a *lease* (host id, trial index, expiry)
  journaled to ``journal.jsonl``.  Workers heartbeat ``POST /renew``;
  the reconciliation loop expires leases whose host died, hung past
  the per-trial timeout, or vanished behind a partition, and
  re-enqueues the trial with bounded capped-jitter retries — a dead
  host is indistinguishable from a dead local worker.
* **Cache before journal.**  ``POST /complete`` writes the result to
  the campaign's real ``dir:`` store *before* appending
  the journal completion, preserving the ordering every resume proof
  relies on.  Completions are idempotent: a duplicate (expired lease,
  retried upload after a truncated response) is acknowledged and
  dropped.
* **Failure taxonomy unchanged.**  ``POST /fail`` with a
  deterministic ``trial-error`` aborts the campaign (journaled);
  transient ``worker-error``\\ s re-enqueue with bounded retries.
  Exhausting the budget fails the campaign.
* **Kill-safe.**  SIGKILL the coordinator at any instant and the
  directory is resumable by the existing paths — restart the
  coordinator, or finish locally with ``repro campaign resume``.
  In-memory leases die with the process; orphaned completions are
  accepted by spec-hash, never trusted blindly.

Over HTTP the read endpoints (``/``, ``/status``, ``/manifest``,
``/healthz``, ``/metrics``, ``/result/<sweep>``, and with
``--dashboard`` the ``/dashboard`` + ``/timeline`` pair) come from the
status server's handler, which :class:`CoordinatorHandler` extends;
``/cache`` mounts the store for
:class:`~repro.campaign.httpcache.HttpCacheBackend` clients;
``/coordinator`` reports live queue/lease state.
"""

from __future__ import annotations

import heapq
import threading
import time
import uuid
from collections import deque
from http.server import ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..harness.executor import SweepResult, plan_sweep
from ..harness.spec import Trial
from ..obs.metrics import get_registry
from .httpcache import CacheRoutes, read_json_body
from .netretry import backoff_delay
from .server import StatusHandler, read_routes, serve_until_stopped

#: Default bound on per-trial re-executions after transient failures.
DEFAULT_RETRIES = 2
#: Default first-retry backoff base; the actual delay is drawn with
#: full jitter from [0, min(cap, base * 2**(attempt-1))] — see
#: :func:`repro.campaign.netretry.backoff_delay`.
DEFAULT_BACKOFF = 0.25
#: Default lease lifetime; workers renew at a third of this.
DEFAULT_LEASE_SECONDS = 30.0
#: How often the background reconciliation loop wakes up.
_RECONCILE_INTERVAL = 0.25


#: Wire fields the state uses as keys, with the type each must have.
_FIELD_TYPES = (("lease", str), ("sweep", str), ("index", int))


class _Lease:
    __slots__ = ("lease_id", "host", "key", "issued", "expires",
                 "deadline")

    def __init__(self, lease_id: str, host: str, key: Tuple[str, int],
                 issued: float, expires: float,
                 deadline: Optional[float]):
        self.lease_id = lease_id
        self.host = host
        self.key = key                  # (sweep name, trial index)
        self.issued = issued            # monotonic
        self.expires = expires          # monotonic
        self.deadline = deadline        # monotonic cap (trial timeout)


class CoordinatorState:
    """All mutable campaign state, serialized under one lock.

    Construction plans against the cache and journals ``start`` +
    ``cached`` events; trials then leave via leases and come back via
    completions (``plan.finish`` → cache put → journal ``trial`` event
    → seal the sweep).  ``workers`` is the local worker count for the
    ``start`` event (``None`` under the HTTP coordinator).  A settled
    state either ``finished`` or holds an ``error`` whose
    ``error_kind`` is ``"trial-error"`` (deterministic) or
    ``"retries-exhausted"``.
    """

    def __init__(self, campaign,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 progress: Optional[Callable[[str], None]] = None,
                 force: bool = False, workers: Optional[int] = None):
        self.cdir = campaign.cdir
        self.lease_seconds = max(0.1, lease_seconds)
        self.lock = threading.RLock()
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
        self.by_key: Dict[Tuple[str, int], str] = {}   # key -> lease id
        self.retries: Dict[Tuple[str, int], int] = {}
        self.hosts: set = set()
        self.error: Optional[str] = None
        self.error_kind: Optional[str] = None
        self.finished = False
        self.results: Dict[str, SweepResult] = {}   # sealed sweeps

        registry = get_registry()
        self._m_claims = registry.counter(
            "repro_coordinator_claims_total",
            "Claim requests by outcome", labels={"outcome": "granted"})
        self._m_claims_empty = registry.counter(
            "repro_coordinator_claims_total",
            "Claim requests by outcome", labels={"outcome": "empty"})
        self._m_renewals = registry.counter(
            "repro_coordinator_renewals_total",
            "Lease heartbeats accepted")
        self._m_completions = registry.counter(
            "repro_coordinator_completions_total",
            "Trial uploads by outcome", labels={"outcome": "ok"})
        self._m_duplicates = registry.counter(
            "repro_coordinator_completions_total",
            "Trial uploads by outcome", labels={"outcome": "duplicate"})
        self._m_failures = registry.counter(
            "repro_coordinator_failures_total",
            "Worker-reported trial failures")
        self._m_expirations = registry.counter(
            "repro_coordinator_lease_expirations_total",
            "Leases expired by the reconcile loop")
        self._g_queued = registry.gauge(
            "repro_coordinator_queued", "Trials ready to lease")
        self._g_leased = registry.gauge(
            "repro_coordinator_leased", "Trials currently leased out")
        self._g_unfinished = registry.gauge(
            "repro_coordinator_unfinished",
            "Trials not yet completed")
        self._g_hosts = registry.gauge(
            "repro_coordinator_hosts", "Distinct worker hosts seen")
        self._trial_timer = registry.histogram(
            "repro_campaign_trial_seconds",
            "Per-trial compute wall time inside the campaign engine")
        self._m_retries = registry.counter(
            "repro_campaign_retries_total",
            "Trial retries scheduled by the campaign engine")

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
            "mode": "coordinator" if workers is None else "local",
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
        # Sweeps fully served from the cache seal immediately; a
        # coordinator restarted on a finished campaign just re-seals
        # and reports done.
        with self.lock:
            for name in list(self.plans):
                self._maybe_seal(name)
            self._maybe_finish()
            self._update_gauges()

    def _update_gauges(self) -> None:
        """Refresh the point-in-time metrics (caller holds the lock)."""
        self._g_queued.set(len(self.queue))
        self._g_leased.set(len(self.leases))
        self._g_unfinished.set(len(self.unfinished))
        self._g_hosts.set(len(self.hosts))

    @property
    def settled(self) -> bool:
        return self.finished or self.error is not None

    # -------------------------------------------------- write routes

    def handle(self, endpoint: str,
               body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """One worker request from any transport; a field of the wrong
        type is a 400, never an exception inside the state."""
        for field, kind in _FIELD_TYPES:
            value = body.get(field)
            if value is not None and (not isinstance(value, kind)
                                      or isinstance(value, bool)):
                return 400, {"error": f"`{field}` must be a "
                                      f"{kind.__name__}"}
        if endpoint == "claim":
            return self.claim(str(body.get("host", "unknown-host")))
        if endpoint == "renew":
            return self.renew(body.get("lease"))
        if endpoint == "complete":
            return self.complete(body)
        if endpoint == "fail":
            return self.fail(body)
        return 404, {"error": f"no worker route {endpoint!r}"}

    def claim(self, host: str) -> Tuple[int, Dict[str, Any]]:
        with self.lock:
            self._reconcile_locked()
            if self.error is not None:
                return 200, {"state": "failed", "error": self.error}
            if self.finished:
                return 200, {"done": True}
            self.hosts.add(host)
            key = self._next_ready()
            if key is None:
                self._m_claims_empty.inc()
                self._update_gauges()
                return 200, {"retry_after": self._poll_hint()}
            lease_id = uuid.uuid4().hex
            now = time.monotonic()
            deadline = now + self.timeout if self.timeout else None
            lease = _Lease(lease_id, host, key, now,
                           self._expiry(now, deadline), deadline)
            self.leases[lease_id] = lease
            self.by_key[key] = lease_id
            sweep, index = key
            # ttl_seconds is monotonic-relative (how long from *now*
            # the lease lives) — never a wall-clock timestamp.  Mixing
            # time.time() into a monotonic-derived expiry made an NTP
            # step or wall/monotonic drift mis-schedule renewals.
            ttl = round(lease.expires - now, 3)
            self.cdir.append_event({
                "event": "lease", "run": self.run_id, "sweep": sweep,
                "index": index, "host": host, "lease": lease_id,
                "ttl_seconds": ttl})
            self._m_claims.inc()
            self._update_gauges()
            return 200, {
                "lease": lease_id, "sweep": sweep, "index": index,
                "trial": self.trials[key].to_dict(),
                "spec_hash": self.trials[key].spec_hash(),
                "lease_seconds": self.lease_seconds,
                "ttl_seconds": ttl,
                "attempt": self.retries.get(key, 0),
            }

    def renew(self, lease_id: str) -> Tuple[int, Dict[str, Any]]:
        with self.lock:
            lease = self.leases.get(lease_id)
            if lease is None:
                return 200, {"ok": False, "reason": "unknown-lease"}
            now = time.monotonic()
            if lease.deadline is not None and now >= lease.deadline:
                # Past the per-trial timeout: refuse — the reconcile
                # loop will expire it and re-enqueue the trial.
                return 200, {"ok": False, "reason": "timeout"}
            lease.expires = self._expiry(now, lease.deadline)
            self.cdir.append_event({
                "event": "renew", "run": self.run_id,
                "sweep": lease.key[0], "index": lease.key[1],
                "host": lease.host, "lease": lease_id})
            self._m_renewals.inc()
            return 200, {"ok": True,
                         "lease_seconds": self.lease_seconds,
                         "ttl_seconds": round(lease.expires - now, 3)}

    def complete(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        lease_id = body.get("lease")
        result = body.get("result")
        if not isinstance(result, dict):
            return 400, {"error": "completion needs a JSON `result` "
                                  "object"}
        with self.lock:
            lease = self.leases.pop(lease_id, None)
            if lease is not None:
                self.by_key.pop(lease.key, None)
                key = lease.key
                host = lease.host
                elapsed = time.monotonic() - lease.issued
            else:
                # Orphaned upload (lease expired, or a pre-restart
                # lease): accept it iff it names a known unfinished
                # trial by position AND content hash.
                key = (body.get("sweep"), body.get("index"))
                host = body.get("host", "?")
                elapsed = None
            trial = self.trials.get(key)
            if trial is None or key not in self.unfinished:
                self._m_duplicates.inc()
                return 200, {"ok": True, "duplicate": True}
            if body.get("spec_hash") not in (None, trial.spec_hash()):
                return 409, {"error": "spec hash mismatch — different "
                                      "campaign or stale worker"}
            sweep, index = key
            self.unfinished.discard(key)
            # Cache write happens inside plan.finish, BEFORE the
            # journal append below — the ordering every resume and
            # kill test relies on.
            self.plans[sweep].finish(index, trial, result)
            event = {
                "event": "trial", "run": self.run_id, "sweep": sweep,
                "index": index, "spec_hash": trial.spec_hash(),
                "status": "done", "retries": self.retries.get(key, 0),
                "host": host}
            if elapsed is not None:
                event["elapsed"] = round(elapsed, 6)
            self.cdir.append_event(event)
            self._m_completions.inc()
            if elapsed is not None:
                self._trial_timer.observe(elapsed)
            self._maybe_seal(sweep)
            self._maybe_finish()
            self._update_gauges()
            return 200, {"ok": True}

    def fail(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        lease_id = body.get("lease")
        kind = body.get("kind", "worker-error")
        reason = str(body.get("reason", "worker reported failure"))
        with self.lock:
            lease = self.leases.pop(lease_id, None)
            if lease is not None:
                self.by_key.pop(lease.key, None)
                key = lease.key
            else:
                key = (body.get("sweep"), body.get("index"))
            if key not in self.unfinished:
                return 200, {"ok": True, "duplicate": True}
            self._m_failures.inc()
            if kind == "trial-error":
                # Deterministic failure: rerunning can only fail the
                # same way — abort the campaign.
                self._abort(key[0], reason, kind)
                return 200, {"ok": True, "state": "failed"}
            self._schedule_retry(key, reason)
            return 200, {"ok": True}

    # ------------------------------------------------- reconciliation

    def reconcile(self) -> None:
        """Expire dead hosts' leases, release delayed retries.  Runs
        from the background loop and at the top of every claim."""
        with self.lock:
            self._reconcile_locked()

    def _reconcile_locked(self) -> None:
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, key = heapq.heappop(self.delayed)
            if key in self.unfinished and key not in self.by_key:
                self.queue.append(key)
        for lease_id, lease in list(self.leases.items()):
            if now < lease.expires:
                continue
            del self.leases[lease_id]
            self.by_key.pop(lease.key, None)
            if lease.key not in self.unfinished:
                continue
            if lease.deadline is not None and now >= lease.deadline:
                reason = f"timeout after {self.timeout:g}s " \
                         f"(host {lease.host})"
            else:
                reason = f"lease expired (host {lease.host} dead, " \
                         f"hung, or partitioned)"
            self.cdir.append_event({
                "event": "lease-expired", "run": self.run_id,
                "sweep": lease.key[0], "index": lease.key[1],
                "host": lease.host, "lease": lease_id})
            self._m_expirations.inc()
            self._schedule_retry(lease.key, reason)
        self._update_gauges()

    def _schedule_retry(self, key: Tuple[str, int], reason: str) -> None:
        if self.error is not None or key not in self.unfinished:
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
        self._m_retries.inc()
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
        if sweep_name in self.sealed:
            return
        plan = self.plans[sweep_name]
        if any(record is None for record in plan.records):
            return
        result = SweepResult(
            name=sweep_name,
            records=[r for r in plan.records],
            cached=plan.cached_flags,
            workers=self.workers or max(1, len(self.hosts)),
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

    # ------------------------------------------------------- helpers

    def _next_ready(self) -> Optional[Tuple[str, int]]:
        while self.queue:
            key = self.queue.popleft()
            if key in self.unfinished and key not in self.by_key:
                return key
        return None

    def _poll_hint(self) -> float:
        """How long a worker should wait before asking again: until
        the earliest delayed retry, else a lease-expiry-scale pause."""
        if self.delayed:
            wait = self.delayed[0][0] - time.monotonic()
            return max(0.05, min(wait, self.lease_seconds))
        return min(1.0, self.lease_seconds / 3)

    def _expiry(self, now: float, deadline: Optional[float]) -> float:
        expires = now + self.lease_seconds
        if deadline is not None:
            expires = min(expires, deadline + self.lease_seconds / 3)
        return expires

    def snapshot(self) -> Dict[str, Any]:
        """Live in-memory view for the ``/coordinator`` endpoint."""
        with self.lock:
            return {
                "state": ("failed" if self.error is not None else
                          "finished" if self.finished else "serving"),
                "error": self.error,
                "run": self.run_id,
                "lease_seconds": self.lease_seconds,
                "queued": len(self.queue),
                "delayed": len(self.delayed),
                "leased": len(self.leases),
                "unfinished": len(self.unfinished),
                "sealed": sorted(self.sealed),
                "hosts": sorted(self.hosts),
                "leases": [
                    {"lease": lease.lease_id, "host": lease.host,
                     "sweep": lease.key[0], "index": lease.key[1],
                     "expires_in": round(
                         lease.expires - time.monotonic(), 3)}
                    for lease in self.leases.values()],
            }


class CoordinatorHandler(StatusHandler):
    """The status server's GET surface plus the write protocol."""

    server_version = "repro-coordinator/1"
    endpoints = StatusHandler.endpoints + [
        "/coordinator", "/cache/<key>", "/claim", "/renew", "/complete",
        "/fail"]
    #: Set by make_coordinator().
    state: CoordinatorState = None
    cache_routes: CacheRoutes = None

    def do_GET(self):                    # noqa: N802 (stdlib naming)
        path = self._path()
        if path == "/coordinator":
            self._respond(200, self.state.snapshot())
        elif path == "/cache" or path.startswith("/cache/"):
            self._respond(*self.cache_routes.serve(self, "GET", path))
        else:
            super().do_GET()

    def do_POST(self):                   # noqa: N802 (stdlib naming)
        path = self._path()
        if path not in ("/claim", "/renew", "/complete", "/fail"):
            self._respond(404, {"error": f"no POST route {path!r}"})
            return
        body = read_json_body(self)
        if body is None:
            # Truncated/garbled upload from a flaky link: reject; the
            # worker's retry layer re-sends the whole request.
            self._respond(400, {"error": "malformed JSON body"})
            return
        self._respond(*self.state.handle(path[1:], body))

    def do_PUT(self):                    # noqa: N802 (stdlib naming)
        path = self._path()
        if path.startswith("/cache/"):
            self._respond(*self.cache_routes.serve(self, "PUT", path))
        else:
            self._respond(404, {"error": f"no PUT route {path!r}"})

    def do_DELETE(self):                 # noqa: N802 (stdlib naming)
        path = self._path()
        if path == "/cache" or path.startswith("/cache/"):
            self._respond(*self.cache_routes.serve(self, "DELETE", path))
        else:
            self._respond(404, {"error": f"no DELETE route {path!r}"})


class _ReconcileLoop(threading.Thread):
    """Expires leases and releases retries even when no worker calls —
    the loop that turns a vanished host into re-enqueued work.  Calls
    ``on_settled`` (if set) once the campaign finishes or fails."""

    def __init__(self, state: CoordinatorState,
                 interval: float = _RECONCILE_INTERVAL):
        super().__init__(daemon=True, name="campaign-reconcile")
        self.state = state
        self.interval = interval
        self.on_settled: Optional[Callable[[], None]] = None
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            self.state.reconcile()
            if self.on_settled is not None and self.state.settled:
                self.on_settled()
                return

    def stop(self) -> None:
        self._stop.set()


def make_coordinator(directory, host: str = "127.0.0.1", port: int = 0,
                     lease_seconds: float = DEFAULT_LEASE_SECONDS,
                     progress: Optional[Callable[[str], None]] = None,
                     dashboard: bool = False) \
        -> Tuple[ThreadingHTTPServer, CoordinatorState, _ReconcileLoop]:
    """Open the campaign, build (don't start) the coordinator server
    plus its reconciliation loop; ``port=0`` picks a free port.
    ``dashboard=True`` adds the ``/dashboard`` + ``/timeline`` pair on
    top of the status server's routes (``/metrics`` is always on)."""
    from .engine import Campaign     # engine builds on this module
    campaign = Campaign.open(directory)
    state = CoordinatorState(campaign, lease_seconds=lease_seconds,
                             progress=progress)
    handler = type("BoundCoordinatorHandler", (CoordinatorHandler,),
                   {"state": state,
                    "routes": read_routes(directory,
                                          dashboard=dashboard),
                    "cache_routes": CacheRoutes(state.store, state.lock)})
    server = ThreadingHTTPServer((host, port), handler)
    loop = _ReconcileLoop(state)
    return server, state, loop


def coordinate(directory, host: str = "127.0.0.1", port: int = 8008,
               lease_seconds: float = DEFAULT_LEASE_SECONDS,
               until_done: bool = False, announce=None,
               progress: Optional[Callable[[str], None]] = None,
               dashboard: bool = False) -> int:
    """Run the coordinator until interrupted (SIGINT/SIGTERM both shut
    down cleanly) — or, with ``until_done``, until the campaign
    finishes or fails.  Returns a CLI exit code: 0 finished/stopped,
    1 campaign failed.
    """
    server, state, loop = make_coordinator(
        directory, host=host, port=port, lease_seconds=lease_seconds,
        progress=progress, dashboard=dashboard)
    bound_host, bound_port = server.server_address[:2]
    if until_done:
        loop.on_settled = server.shutdown
    try:
        serve_until_stopped(
            server, f"coordinating campaign {directory} on "
                    f"http://{bound_host}:{bound_port} "
                    f"(workers: `repro campaign worker "
                    f"http://{bound_host}:{bound_port}`)",
            announce=announce, helper=loop)
    finally:
        loop.stop()
    with state.lock:
        if state.error is not None:
            if announce:
                announce(f"campaign failed: {state.error}")
            return 1
        if announce and state.finished:
            announce("campaign finished")
    return 0
