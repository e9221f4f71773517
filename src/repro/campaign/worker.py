"""Campaign worker: the one loop that pulls and computes trials.

:func:`work` talks to the campaign's lease state machine
(:class:`~repro.campaign.coordinator.CoordinatorState`) through a
*transport* — a callable ``call(endpoint, payload) -> reply``.  Two
transports share it: a pipe to the parent process, for the local
workers ``Campaign.run`` forks (:mod:`repro.campaign.engine`), and
direct calls into the state, in-process.

Each loop iteration:

1. ``claim`` — receive a leased trial (or a back-off hint when the
   queue is momentarily empty, or the campaign's final state);
2. ``complete`` with the result payload — the state writes its cache
   *before* journaling, so the worker never touches shared state — or
   ``fail`` with the failure taxonomy (``trial-error`` deterministic /
   abort, ``worker-error`` transient / bounded retry).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from ..harness.runner import TrialError, run_trial
from ..harness.spec import Trial

#: ``call(endpoint, payload) -> reply``.
Transport = Callable[[str, Dict[str, Any]], Dict[str, Any]]
TrialRunner = Callable[[Trial], Dict[str, Any]]


def work(call: Transport, host: str,
         runner: Optional[TrialRunner] = None) -> None:
    """The worker loop over any transport, until the campaign
    finishes or fails."""
    # Looked up per call, never bound as a default: instrumentation
    # that patches this module's ``run_trial`` must see every trial.
    runner = runner or run_trial
    while True:
        claim = call("claim", {"host": host})
        if claim.get("done") or claim.get("state") == "failed":
            return
        if "lease" not in claim:
            time.sleep(claim["retry_after"])
            continue
        trial = Trial.from_dict(claim["trial"])
        payload: Dict[str, Any] = {"lease": claim["lease"]}
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
        call(endpoint, payload)
