"""Kill-and-resume acceptance: a campaign SIGKILLed mid-flight resumes
to a byte-identical result at any worker count.

The campaign subprocess runs in its own session so ``killpg`` takes out
the driver *and* its worker processes at once — the closest a test can
get to a power cut.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import Campaign, campaign_status
from repro.harness.executor import run_sweep
from repro.harness.spec import Sweep

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

_CHILD = """
import sys
from repro.campaign import Campaign
Campaign.open(sys.argv[1]).run(workers=2)
"""


def acceptance_sweep(n=200) -> Sweep:
    """n unique window trials, a few ms each on the small config."""
    sweep = Sweep("acceptance")
    for i in range(n):
        sweep.add("window", runahead="none", sled=512 + 6 * i,
                  config_base="small")
    return sweep


def run_campaign_child(directory):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [SRC] + os.environ.get("PYTHONPATH", "").split(
                       os.pathsep)).rstrip(os.pathsep))
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(directory)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def kill_at_halfway(proc, campaign_dir, total, deadline=60.0):
    """Poll the journal; SIGKILL the whole process group near 50%."""
    journal = campaign_dir / "journal.jsonl"
    target = total // 2
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if proc.poll() is not None:
            return False                      # finished before the kill
        try:
            done = journal.read_text().count('"status": "done"')
        except OSError:
            done = 0
        if done >= target:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            return True
        time.sleep(0.002)
    os.killpg(proc.pid, signal.SIGKILL)       # safety net
    proc.wait(timeout=30)
    raise AssertionError(f"campaign never reached {target} trials")


@pytest.mark.slow
@pytest.mark.parametrize("cache_uri", ["dir:cache"])
@pytest.mark.parametrize("resume_workers", [1, 3])
def test_sigkill_resume_byte_identical(tmp_path, cache_uri,
                                       resume_workers):
    sweep = acceptance_sweep()
    campaign_dir = tmp_path / "camp"
    Campaign.create(campaign_dir, sweep, cache=cache_uri)

    proc = run_campaign_child(campaign_dir)
    try:
        interrupted = kill_at_halfway(proc, campaign_dir, len(sweep))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
    assert interrupted, "campaign finished before it could be killed"

    status = campaign_status(campaign_dir)
    assert status["state"] == "in-progress"
    assert 0 < status["completed"] < len(sweep)

    result = Campaign.open(campaign_dir).run(workers=resume_workers)[0]
    reference = run_sweep(sweep, workers=1, cache=None).to_json()
    assert result.to_json() == reference
    assert Campaign.open(campaign_dir).cdir.read_result("acceptance") \
        == reference
    # The resume actually reused the interrupted run's work.  The cache
    # may be slightly ahead of the journal (a kill can land between a
    # cache write and its journal append), never behind.
    assert sum(result.cached) >= status["completed"] > 0

    final = campaign_status(campaign_dir)
    assert final["state"] == "finished"
    assert final["remaining"] == 0


@pytest.mark.slow
def test_double_kill_still_converges(tmp_path):
    """Two successive kills; the journal survives both truncations."""
    sweep = acceptance_sweep()
    campaign_dir = tmp_path / "camp"
    Campaign.create(campaign_dir, sweep)

    for _ in range(2):
        proc = run_campaign_child(campaign_dir)
        try:
            if not kill_at_halfway(proc, campaign_dir, len(sweep)):
                break                        # completed — nothing to kill
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)

    result = Campaign.open(campaign_dir).run(workers=2)[0]
    reference = run_sweep(sweep, workers=1, cache=None).to_json()
    assert result.to_json() == reference
