"""Campaign worker: run one trial and name its outcome.

:func:`run_one` is the failure taxonomy both execution paths of
``Campaign.run`` share (:mod:`repro.campaign.engine`): a result is
``("done", result)``, a deterministic
:class:`~repro.harness.runner.TrialError` is ``("trial-error",
message)`` and any other exception is a transient ``("worker-error",
message)``.  The engine's in-process loop calls it directly; a forked
local worker runs :func:`worker_loop`, which receives one trial at a
time from the campaign parent over a pipe and sends back one outcome.
The parent writes the cache and the journal — the worker never touches
shared state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..harness.runner import TrialError, run_trial
from ..harness.spec import Trial

TrialRunner = Callable[[Trial], Dict[str, Any]]


def run_one(trial: Trial, runner: Optional[TrialRunner] = None) \
        -> Tuple[str, Any]:
    """Run ``trial``; returns ``(kind, result or message)``."""
    # Looked up per call, never bound as a default: instrumentation
    # that patches this module's ``run_trial`` must see every trial.
    try:
        return "done", (runner or run_trial)(trial)
    except TrialError as exc:
        return "trial-error", str(exc)
    except Exception as exc:
        return "worker-error", f"{type(exc).__name__}: {exc}"


def worker_loop(conn, runner: Optional[TrialRunner]) -> None:
    """Body of a forked local worker: one outcome back for each trial
    the parent sends, until it sends ``None`` (stop) or goes away."""
    try:
        while True:
            trial = conn.recv()
            if trial is None:
                return
            conn.send(run_one(Trial.from_dict(trial), runner))
    except (EOFError, OSError):
        pass                        # the campaign parent is gone
