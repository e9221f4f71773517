"""Fault-injecting trial runners for campaign-engine tests.

Module-level functions so worker processes can unpickle them.  A trial
opts into a fault via a ``fault`` param (ignored by the real runners —
it only changes the spec hash); "once" faults mark a flag file under
``$REPRO_TEST_FAULT_DIR`` so the retry succeeds.
"""

import os
import pathlib
import signal
import time

from repro.harness.runner import run_trial

FAULT_DIR_ENV = "REPRO_TEST_FAULT_DIR"


def _first_attempt(trial) -> bool:
    flag = pathlib.Path(os.environ[FAULT_DIR_ENV]) / \
        f"{trial.spec_hash()}.tripped"
    if flag.exists():
        return False
    flag.write_text("tripped")
    return True


def kill_once(trial):
    """SIGKILL this worker on the first attempt of a marked trial,
    while it holds the trial: the parent must settle the trial as a
    ``worker died`` failure and retry it on a replacement worker."""
    if trial.params.get("fault") == "kill" and _first_attempt(trial):
        os.kill(os.getpid(), signal.SIGKILL)
    return run_trial(trial)


def hang_once(trial):
    """Hang far past any test timeout on the first attempt."""
    if trial.params.get("fault") == "hang" and _first_attempt(trial):
        time.sleep(300)
    return run_trial(trial)


def raise_once(trial):
    """Raise a non-TrialError (infrastructure-style) failure once."""
    if trial.params.get("fault") == "raise" and _first_attempt(trial):
        raise RuntimeError("injected transient failure")
    return run_trial(trial)


def always_raise(trial):
    """Every attempt of a marked trial fails transiently — exhausts
    the retry budget."""
    if trial.params.get("fault") == "always":
        raise RuntimeError("injected persistent transient failure")
    return run_trial(trial)
