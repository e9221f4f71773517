"""Benchmark of the SPECRUN reproduction: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--scale <share>]

Run it from the repository root.  Workloads (see ``BENCHMARK.json`` and
:mod:`perfbench.workloads`): ``sim-sweep``, ``leak-extract``,
``verify-xcheck``, ``campaign-mixed``.

This launcher only uses the standard library.  It starts the measuring
process (``python3 -m perfbench.bench``) and times its set-up from
outside: from process start until the process reports that imports,
input generation and pre-warming are done.  With ``--trace 0`` it also
starts two set-up-only processes and reports the median of the three
set-up times as ``setup_s``.  End-to-end timings are in reference-host
time (see ``calibrate.py``).

Output: a human-readable report, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  All times are host time.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from calibrate import loop_seconds, scale

READY = "@@perfbench-ready"
SETUP_PROBES = 2
END_TO_END_EXTRA = (("sim_cycles_per_s", "cycles/s"),
                    ("secret_bytes_per_s", "bytes/s"),
                    ("fail_rate", "failed/attempted"))


def run_bench(args, extra=(), forward=False):
    """Start the measuring process and wait for it to end.

    Returns its set-up time in reference-host seconds (from start to
    READY, scaled by reference loops run just before the start and just
    after READY; see ``calibrate.py``) and, with ``forward``, its other
    output lines.
    """
    command = [sys.executable, "-m", "perfbench.bench",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), *extra]
    before = loop_seconds()
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    ready, lines = None, []
    for line in proc.stdout:
        if line.rstrip("\n") == READY and ready is None:
            ready = time.perf_counter() - started
            ready = scale(ready, (before + loop_seconds()) / 2)
        elif forward:
            lines.append(line.rstrip("\n"))
    if proc.wait() != 0 or ready is None:
        raise SystemExit(f"perfbench: measuring process failed "
                         f"(exit code {proc.returncode})")
    return ready, lines


def report(args, summary, setup_samples):
    rep = summary["report"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  (reference-host time, see calibrate.py)")
    if "digest" in rep:
        print(f"  pass-0 record digest {rep['digest']}")
    for name, (want, got) in rep.get("counter_drift", {}).items():
        print(f"  counter {name}: recorded {want}, now {got}")
    print(f"  attempted {summary['attempted']}  failed {summary['failed']}  "
          f"correct {summary['correct']}")
    if args.trace == 0:
        print(f"  {rep['trials']} trials in {rep['passes']} passes, "
              f"{rep['pass_seconds']:.2f} s of pass time; host ran at "
              f"{rep['host_speed']:.3f}x the reference speed "
              f"(raw {rep['raw_trials_per_s']:.4f} trials/s)")
        print(f"  setup_s samples: "
              + ", ".join(f"{s:.3f}" for s in setup_samples))
        for name, metric in summary["metrics"].items():
            note = ""
            if name == "trial_tail_ms":
                note = (f"  (p{rep['trial_tail_percentile']:.1f}: "
                        f"{rep['trial_tail_beyond']} of "
                        f"{rep['trial_tail_samples']} samples beyond)")
            print(f"  {name:<20} {metric['value']:>14.4f} "
                  f"{metric['unit']}{note}")
        for name, unit in END_TO_END_EXTRA:
            value = rep[name]
            shown = "n/a (no such output)" if value is None \
                else f"{value:>14.4f} {unit}"
            print(f"  {name:<20} {shown}")
        return
    lanes = rep["lanes"]
    print(f"  untraced {rep['untraced_wall_s']:.3f} s, traced "
          f"{rep['traced_wall_s']:.3f} s (overhead "
          f"{rep['traced_wall_s'] - rep['untraced_wall_s']:+.3f} s); "
          f"{lanes} lane(s), {rep['lane_seconds']:.3f} lane-seconds")
    print(f"  {'layer':<12} {'self s':>9} {'share %':>8}")
    for layer, seconds in rep["layers"].items():
        print(f"  {layer:<12} {seconds:>9.3f} "
              f"{100.0 * seconds / rep['lane_seconds']:>8.2f}")
    print("  us/step by controller: " + ", ".join(
        f"{k} {v:.2f}" for k, v in rep["us_per_step_by_controller"].items()))
    for name, metric in summary["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not pathlib.Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2

    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            setup_samples.append(run_bench(args, ["--setup-only"])[0])
    ready, lines = run_bench(args, forward=True)
    setup_samples.append(ready)
    if not lines:
        raise SystemExit("perfbench: measuring process printed no result")
    for line in lines[:-1]:
        print(line)
    summary = json.loads(lines[-1])
    if args.trace == 0:
        summary["metrics"] = {
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"}, **summary["metrics"]}
    report(args, summary, setup_samples)
    print(json.dumps({key: summary[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
