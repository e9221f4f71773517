#!/usr/bin/env python
"""The §6 defenses against the SPECRUN PoC.

Runs the identical attack program against three machines:

* original runahead            — leaks the secret;
* secure runahead (SL cache + taint tracking, Algorithm 1) — blocked;
* branch-skip restriction      — blocked.

Then shows the performance cost of each defense on a memory-bound
workload.  Both halves are one harness sweep (the quick tier of the
``sec6`` preset; full grid: ``python -m repro sweep sec6``).
"""

from repro.harness import presets, run_sweep
from repro.harness.presets import DEFENSE_MACHINES

LABELS = {"original": "original runahead", "secure": "secure runahead   ",
          "branch-skip": "branch-skip       "}


def main():
    preset = presets.get("sec6")
    result = run_sweep(preset.build(quick=True))

    print("=== SPECRUN vs the Section-6 defenses ===")
    for machine in DEFENSE_MACHINES:
        res = result.one("attack", variant="pht", runahead=machine)["result"]
        verdict = "LEAKED" if res["leaked"] else "blocked"
        detail = f" -> recovered {res['recovered']}" if res["leaked"] else ""
        print(f"  {LABELS[machine]}: {verdict}{detail}")

    print()
    print("=== performance retained on a memory-bound kernel (gems) ===")
    for machine in DEFENSE_MACHINES:
        res = result.one("ipc", workload="gems",
                         contender=machine)["result"]
        print(f"  {LABELS[machine]}: IPC {res['ipc_contender']:.3f}  "
              f"speedup over no-runahead {res['speedup']:.3f}x")
    print()
    print("secure runahead keeps most of the prefetch benefit (quarantined")
    print("fills promote to L1 on first use); branch-skip loses the slices")
    print("behind data-dependent branches.")
    print()
    print(result.describe())


if __name__ == "__main__":
    main()
