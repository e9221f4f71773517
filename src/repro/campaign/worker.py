"""Campaign worker: the one loop that pulls and computes trials.

:func:`work` talks to the campaign's lease state machine
(:class:`~repro.campaign.coordinator.CoordinatorState`) through a
*transport* — a callable ``call(endpoint, payload) -> (code, body)``.
Three transports share it:

* HTTP (:func:`run_worker`, ``repro campaign worker <url>``) against
  a coordinator, on any number of hosts;
* a pipe to the parent process: the local workers ``Campaign.run``
  forks (:mod:`repro.campaign.engine`);
* direct calls into the state, in-process.

Each loop iteration:

1. ``claim`` — receive a leased trial (or a back-off hint when the
   queue is momentarily empty, or the campaign's final state);
2. heartbeat ``renew`` from a daemon thread at a third of the lease
   lifetime while the trial computes;
3. ``complete`` with the result payload — the state writes its cache
   *before* journaling, so the worker never touches shared state — or
   ``fail`` with the failure taxonomy (``trial-error`` deterministic /
   abort, ``worker-error`` transient / bounded retry).

Over HTTP every call goes through :func:`~repro.campaign.netretry
.request_json` (timeout + capped jittered retries), so a flaky link
or a coordinator restart is survived transparently.  A coordinator
that stays unreachable past the retry budget makes the worker exit
nonzero *without corrupting anything* — it holds no campaign state,
so the lease simply expires and another host picks the trial up.

Exit codes: 0 campaign finished, 1 campaign failed (deterministic
trial error), 3 coordinator unreachable.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..harness.runner import TrialError, run_trial
from ..harness.spec import Trial
from .netretry import DEFAULT_POLICY, RetryPolicy, Unreachable, request_json

#: Exit code when the coordinator cannot be reached within the retry
#: budget (distinct from campaign failure so supervisors can restart).
EXIT_UNREACHABLE = 3

#: ``call(endpoint, payload) -> (status code, body)``; raises
#: :class:`~repro.campaign.netretry.Unreachable` when the other side
#: is gone.
Transport = Callable[[str, Dict[str, Any]], Tuple[int, Any]]
TrialRunner = Callable[[Trial], Dict[str, Any]]


class _Heartbeat(threading.Thread):
    """Renews the lease its worker currently holds at a third of the
    lease's remaining lifetime.

    One thread serves every trial of a worker: starting a thread per
    trial cost milliseconds of trial latency on a busy host.
    :meth:`track` hands it a fresh lease, :meth:`release` ends the
    renewals when the trial is over.

    The cadence comes from the coordinator's monotonic-relative
    ``ttl_seconds`` — how long the lease lives from the moment it was
    issued/renewed — never from a wall-clock timestamp, so NTP steps
    and wall/monotonic drift cannot mis-schedule renewals.  Each
    successful renewal re-reads ``ttl_seconds``: near a per-trial
    deadline the coordinator caps the ttl below ``lease_seconds`` and
    the heartbeat tightens to match.

    A refused renewal (unknown lease / past the per-trial timeout)
    just means the coordinator will re-enqueue the trial; the worker
    finishes anyway and uploads — completions are idempotent, so the
    worst case is one harmlessly duplicated (deterministic) result.
    """

    def __init__(self, call: Transport):
        super().__init__(daemon=True, name="lease-heartbeat")
        self.call = call
        self.lease_id: Optional[str] = None
        self.interval = 0.0
        self._stopped = False
        self._changed = threading.Condition()

    def track(self, lease_id: str, ttl_seconds: float) -> None:
        with self._changed:
            self.lease_id = lease_id
            self.interval = max(0.05, ttl_seconds / 3.0)
            self._changed.notify()

    def release(self) -> None:
        # No wake-up: an idle heartbeat finds the lease gone when its
        # wait times out, then sleeps until the next track().
        with self._changed:
            self.lease_id = None

    def stop(self) -> None:
        with self._changed:
            self.lease_id = None
            self._stopped = True
            self._changed.notify()

    def run(self) -> None:
        with self._changed:
            while not self._stopped:
                lease = self.lease_id
                if lease is None:
                    self._changed.wait()
                elif not self._changed.wait(self.interval) \
                        and lease == self.lease_id:
                    self._changed.release()     # track() must not block
                    try:
                        ttl = self._renew(lease)
                    finally:
                        self._changed.acquire()
                    if ttl and lease == self.lease_id:
                        self.interval = max(0.05, float(ttl) / 3.0)

    def _renew(self, lease: str) -> Optional[float]:
        try:
            _, payload = self.call("renew", {"lease": lease})
        except Unreachable:
            # Keep trying on the next beat: the trial is still worth
            # finishing, and the lease may outlive a brief partition or
            # coordinator restart.
            return None
        return payload.get("ttl_seconds") if isinstance(payload, dict) \
            else None


def default_host_id() -> str:
    """Stable-ish identity for journal/status display: host + pid."""
    import os
    return f"{socket.gethostname()}:{os.getpid()}"


def run_worker(url: str, host: Optional[str] = None,
               runner: Optional[TrialRunner] = None,
               policy: RetryPolicy = DEFAULT_POLICY,
               poll: float = 0.5,
               announce: Optional[Callable[[str], None]] = None,
               max_trials: Optional[int] = None) -> int:
    """Pull and run trials from the coordinator at ``url`` until the
    campaign settles; returns the process exit code (see module
    docstring).  Each request is a ``POST <url>/<endpoint>`` JSON
    exchange."""
    base = str(url).rstrip("/")

    def call(endpoint: str, payload: Dict[str, Any]) -> Tuple[int, Any]:
        return request_json(
            f"{base}/{endpoint}", payload=payload, policy=policy,
            key=(endpoint, payload.get("lease") or payload.get("host")))
    return work(call, host or default_host_id(), runner=runner,
                poll=poll, announce=announce, max_trials=max_trials)


def work(call: Transport, host: str,
         runner: Optional[TrialRunner] = None,
         poll: float = 0.5,
         announce: Optional[Callable[[str], None]] = None,
         max_trials: Optional[int] = None) -> int:
    """The worker loop over any transport.

    ``max_trials`` bounds how many trials this worker computes —
    ``None`` runs until the campaign finishes or fails (tests use
    small bounds to exercise partial progress).
    """
    # Looked up per call, never bound as a default: instrumentation
    # that patches this module's ``run_trial`` must see every trial.
    runner = runner or run_trial
    say = announce or (lambda line: None)
    beat = _Heartbeat(call)
    beat.start()
    done = 0
    try:
        while True:
            if max_trials is not None and done >= max_trials:
                say(f"worker {host}: reached --max-trials {max_trials}")
                return 0
            try:
                code, claim = call("claim", {"host": host})
            except Unreachable as exc:
                say(f"worker {host}: coordinator unreachable ({exc})")
                return EXIT_UNREACHABLE
            if code != 200 or not isinstance(claim, dict):
                say(f"worker {host}: bad claim response (HTTP {code})")
                return EXIT_UNREACHABLE
            if claim.get("done"):
                say(f"worker {host}: campaign finished ({done} trial(s) "
                    f"computed here)")
                return 0
            if claim.get("state") == "failed":
                say(f"worker {host}: campaign failed: "
                    f"{claim.get('error')}")
                return 1
            if "lease" not in claim:
                time.sleep(min(float(claim.get("retry_after", poll)),
                               max(poll, 0.05)))
                continue

            lease_id = claim["lease"]
            trial = Trial.from_dict(claim["trial"])
            ttl = claim.get("ttl_seconds") or \
                claim.get("lease_seconds", 30.0)
            beat.track(lease_id, float(ttl))
            try:
                payload: Dict[str, Any] = {
                    "lease": lease_id, "host": host,
                    "sweep": claim["sweep"], "index": claim["index"],
                    "spec_hash": claim.get("spec_hash", trial.spec_hash()),
                }
                try:
                    result = runner(trial)
                except TrialError as exc:
                    payload.update(kind="trial-error", reason=str(exc))
                    endpoint = "fail"
                except Exception as exc:
                    payload.update(kind="worker-error",
                                   reason=f"{type(exc).__name__}: {exc}")
                    endpoint = "fail"
                else:
                    payload["result"] = result
                    endpoint = "complete"
            finally:
                beat.release()
            try:
                call(endpoint, payload)
            except Unreachable as exc:
                # The lease will expire and the trial re-runs elsewhere
                # — nothing is lost but this host's work.
                say(f"worker {host}: could not report trial "
                    f"{trial.label!r} ({exc})")
                return EXIT_UNREACHABLE
            if endpoint == "complete":
                done += 1
                say(f"worker {host}: {trial.label}: done")
            else:
                say(f"worker {host}: {trial.label}: "
                    f"{payload['kind']}: {payload['reason']}")
    finally:
        beat.stop()
