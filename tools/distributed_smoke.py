#!/usr/bin/env python3
"""CI driver for the multi-host campaign chaos smoke.

Runs the whole distributed story in one process tree:

1. build a clean single-host serial reference result;
2. start a ``repro campaign coordinate --until-done`` subprocess on a
   fixed port plus a fault-injecting proxy in front of it;
3. start two worker subprocesses pulling trials through the proxy;
4. SIGKILL one worker host mid-campaign and replace it;
5. wait for convergence and compare the campaign's result file
   byte-for-byte against the reference.

Usage: ``python tools/distributed_smoke.py [--trials N]`` (run from
the repository root; exits nonzero on any divergence).
"""

import argparse
import os
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, REPO)                     # for tests.campaign._chaos

from repro.campaign import Campaign, campaign_status          # noqa: E402
from repro.harness.executor import run_sweep                  # noqa: E402
from repro.harness.spec import Sweep                          # noqa: E402
from tests.campaign._chaos import (FlakyProxy, done_count,    # noqa: E402
                                   free_port, kill_host,
                                   spawn_coordinator, spawn_worker,
                                   wait_for_journal)


def smoke_sweep(n=80) -> Sweep:
    sweep = Sweep("smoke")
    for i in range(n):
        sweep.add("window", runahead="none", sled=512 + 6 * i,
                  config_base="small")
    return sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=80)
    args = parser.parse_args()

    sweep = smoke_sweep(args.trials)
    print(f"[smoke] reference: clean serial run of {len(sweep)} trials")
    reference = run_sweep(sweep, workers=1, cache=None).to_json()

    workdir = tempfile.mkdtemp(prefix="dist-smoke-")
    campaign_dir = os.path.join(workdir, "camp")
    journal = os.path.join(campaign_dir, "journal.jsonl")
    Campaign.create(campaign_dir, sweep, cache="dir:cache")

    port = free_port()
    proxy = FlakyProxy(port, seed=7).start()
    log = open(os.path.join(workdir, "children.log"), "w")
    procs = []
    started = time.monotonic()
    try:
        coordinator = spawn_coordinator(campaign_dir, port,
                                        lease_seconds=2.0, log=log)
        procs.append(coordinator)
        print(f"[smoke] coordinator on :{port}, workers via flaky "
              f"proxy {proxy.url}")
        workers = [spawn_worker(proxy.url, f"smoke-{i}", log=log)
                   for i in range(2)]
        procs += workers

        class _Path:
            def read_text(self):
                with open(journal, encoding="utf-8") as handle:
                    return handle.read()
        wait_for_journal(_Path(),
                         lambda text: done_count(text)
                         >= len(sweep) // 4)
        print("[smoke] ~25% done: SIGKILL worker host smoke-0")
        kill_host(workers[0])
        replacement = spawn_worker(proxy.url, "smoke-replacement",
                                   log=log)
        procs.append(replacement)

        for worker in (workers[1], replacement):
            worker.wait(timeout=600)
        code = coordinator.wait(timeout=120)
        if code != 0:
            print(f"[smoke] FAIL: coordinator exited {code}")
            return 1
        for worker in (workers[1], replacement):
            if worker.returncode not in (0, 3):
                print(f"[smoke] FAIL: worker exited "
                      f"{worker.returncode}")
                return 1
    finally:
        for proc in procs:
            try:
                kill_host(proc)
            except Exception:
                pass
        proxy.stop()
        log.close()
        sys.stdout.write(
            open(os.path.join(workdir, "children.log")).read())

    with open(os.path.join(campaign_dir, "smoke.result.json"),
              encoding="utf-8") as handle:
        produced = handle.read()
    if produced != reference:
        print("[smoke] FAIL: distributed result differs from the "
              "clean serial run")
        return 1
    status = campaign_status(campaign_dir)
    if status["state"] != "finished" or status["remaining"]:
        print(f"[smoke] FAIL: campaign state {status['state']}, "
              f"{status['remaining']} remaining")
        return 1
    if proxy.faults == 0:
        print("[smoke] FAIL: the proxy never injected a fault")
        return 1
    print(f"[smoke] OK: byte-identical after {proxy.faults} injected "
          f"faults / {proxy.exchanges} exchanges, 1 host killed, "
          f"{time.monotonic() - started:.1f}s; hosts seen: "
          f"{', '.join(status['hosts'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
