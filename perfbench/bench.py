"""The measuring process: set up one workload, run it, check it.

``python3 -m perfbench.bench --workload W --seed N --seconds S
--trace 0|1 [--scale F] [--setup-only]``, from the repository root.
:mod:`perfbench.run` starts it and times its set-up from outside: this
process prints :data:`READY` once imports, input generation and
pre-warming are done.

* ``--trace 0`` runs the workload's pass (its trial list, see
  :mod:`perfbench.workloads`) ``--seconds`` / nominal pass time times,
  at least three, tracing off, with every time scaled to the reference
  host (:mod:`perfbench.calibrate`).  campaign-mixed first runs one
  untimed warm-up pass.
* ``--trace 1`` runs the pass four times: an untraced warm-up, traced
  (spans, counters), untraced (the tracing-overhead baseline) and
  counting (``Core.step`` calls, distinct core runs).

Every pass is checked by the workload's oracle.  The last line of
output is a JSON object: ``correct``, ``attempted``, ``failed``,
``metrics`` and ``report`` (the figures printed above it).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

sys.path.insert(0, str(pathlib.Path.cwd() / "src"))

from repro.campaign.engine import Campaign  # noqa: E402
from repro.campaign.journal import CampaignError  # noqa: E402
from repro.harness.executor import SerialExecutor  # noqa: E402
from repro.harness.registry import get_workload  # noqa: E402
from repro.harness.runner import TrialError  # noqa: E402
from repro.harness.spec import Sweep  # noqa: E402

from perfbench import workloads as wl  # noqa: E402
from perfbench.calibrate import loop_seconds as calibrate_loop  # noqa: E402
from perfbench.calibrate import TwoCpuProbe, scale  # noqa: E402

READY = "@@perfbench-ready"
OUT_DIR = pathlib.Path(".perfbench")
EXPECTED = pathlib.Path(__file__).with_name("expected.json")
DEFAULT_SEED = 1
MIN_REPEATS = 3
WORKLOADS = ("sim-sweep", "leak-extract", "verify-xcheck", "campaign-mixed")


@dataclass
class PassResult:
    """One pass: its records, per-trial times and what its oracle found."""

    wall: float
    records: List[dict]
    #: Host seconds of each trial, scaled to the reference host (see
    #: :mod:`perfbench.calibrate`) when the pass was calibrated.
    trial_seconds: List[float]
    attempted: int
    #: The pass's wall time, scaled like ``trial_seconds``.
    scaled_wall: float = 0.0
    problems: List[str] = field(default_factory=list)
    errors: int = 0
    twin_mismatches: int = 0
    #: campaign-mixed only: result-file texts and journal events.
    texts: List[str] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return min(self.attempted, self.errors + len(self.problems))

    def digest(self) -> str:
        return wl.digest(self.texts) if self.texts \
            else wl.records_digest(self.records)


class SerialBench:
    """A workload whose passes run through ``SerialExecutor`` with the
    result cache off; per-trial times come from the executor's
    ``progress`` completion callbacks."""

    lanes = 1
    warmup_passes = 0
    generators = {"sim-sweep": wl.sim_sweep_pass,
                  "leak-extract": wl.leak_extract_pass,
                  "verify-xcheck": wl.verify_xcheck_pass}
    #: Host seconds of one full pass on a 2-CPU x86 sandbox.
    nominal_pass_seconds = {"sim-sweep": 6.0, "leak-extract": 5.0,
                            "verify-xcheck": 5.5}

    def __init__(self, name: str, seed: int, scale: float, workdir):
        self.name, self.seed, self.scale = name, seed, scale
        self.pass_seconds = self.nominal_pass_seconds[name] * scale
        self.golden: Dict[str, dict] = {}

    def setup(self) -> None:
        self.sweep = self.generators[self.name](self.seed, self.scale)
        if self.name == "sim-sweep":
            for kernel in wl.SIM_KERNELS:
                get_workload(kernel).materialize()
        if self.name == "verify-xcheck":
            self.golden = wl.load_golden()

    def run_pass(self, calibrate: bool = False) -> PassResult:
        """One pass.  With ``calibrate``, the reference loop runs before
        the first trial and after every trial (from the executor's
        ``progress`` callback, outside the trial's own time), and each
        trial is scaled by the mean of the two loops around it."""
        sweep = self.sweep
        loops = [calibrate_loop()] if calibrate else []
        starts, ends = [time.perf_counter()], []

        def progress(line):
            ends.append(time.perf_counter())
            if calibrate:
                loops.append(calibrate_loop())
            starts.append(time.perf_counter())

        try:
            result = SerialExecutor().execute(sweep, cache=None,
                                              progress=progress)
        except TrialError as exc:
            return PassResult(wall=time.perf_counter() - starts[0],
                              records=[], trial_seconds=[],
                              attempted=len(ends) + 1, errors=1,
                              problems=[str(exc)])
        times = [end - begin for begin, end in zip(starts, ends)]
        # Calibrated passes count trial time only, not the loops between.
        wall = sum(times) if calibrate else time.perf_counter() - starts[0]
        if calibrate:
            times = [scale(t, (before + after) / 2)
                     for t, before, after in zip(times, loops, loops[1:])]
        out = PassResult(wall=wall, records=result.records,
                         trial_seconds=times,
                         attempted=len(sweep.trials),
                         scaled_wall=sum(times))
        self.check(out)
        return out

    def check(self, out: PassResult) -> None:
        if self.name == "sim-sweep":
            out.problems = wl.check_sim_sweep(out.records)
        elif self.name == "leak-extract":
            out.problems, out.twin_mismatches = \
                wl.check_leak_extract(out.records)
        else:
            out.problems = wl.check_verify_xcheck(out.records, self.golden)

    def finish(self, passes: List[PassResult]) -> List[str]:
        return []

    def close(self) -> None:
        pass

    def traffic(self) -> Dict[str, float]:
        return {"traffic.repeated_baseline_share":
                wl.repeated_baseline_share([self.sweep]),
                "traffic.cross_sweep_repeat_share": 0.0}


class CampaignBench:
    """``Campaign`` runs of three sweeps with a ``dir:`` cache and two
    local workers.  Every pass starts from a fresh copy of the cache
    that set-up pre-warmed, so each pass reads the same pre-warmed
    trials and computes and writes the rest."""

    lanes = 1 + wl.CAMPAIGN_WORKERS
    #: The first campaign run of a process is ~1.5x slower than the
    #: rest (one-time costs in the coordinator and forked workers).
    warmup_passes = 1

    def __init__(self, name: str, seed: int, scale: float, workdir):
        self.name, self.seed, self.scale = name, seed, scale
        #: Host seconds of one full pass on a 2-CPU x86 sandbox.
        self.pass_seconds = 1.0 * scale
        self.workdir = pathlib.Path(workdir)
        self.template = self.workdir / "prewarmed-cache"
        self.probe = None

    def setup(self) -> None:
        self.sweeps, prewarm = wl.campaign_sweeps(self.seed, self.scale)
        SerialExecutor().execute(Sweep("prewarm", prewarm),
                                 cache=f"dir:{self.template}")

    def run_pass(self, calibrate: bool = False) -> PassResult:
        """One campaign run.  With ``calibrate``, the reference loop runs
        on both CPUs before and after it (workers idle) and the pass and
        its trials are scaled by the mean of the two."""
        directory = self.workdir / "campaign"
        shutil.copytree(self.template, directory / "cache")
        if calibrate and self.probe is None:
            self.probe = TwoCpuProbe()
        before = self.probe.loop_seconds() if calibrate else None
        start = time.perf_counter()
        try:
            campaign = Campaign.create(directory, self.sweeps,
                                       cache="dir:cache",
                                       workers=wl.CAMPAIGN_WORKERS)
            results = campaign.run(workers=wl.CAMPAIGN_WORKERS)
        except (TrialError, CampaignError) as exc:
            wall = time.perf_counter() - start
            shutil.rmtree(directory)
            return PassResult(wall=wall, records=[], trial_seconds=[],
                              attempted=self.size(), errors=1,
                              problems=[str(exc)])
        wall = time.perf_counter() - start
        loop = (before + self.probe.loop_seconds()) / 2 if calibrate \
            else None
        events = list(campaign.cdir.events())
        texts = [campaign.cdir.read_result(s.name) or ""
                 for s in self.sweeps]
        shutil.rmtree(directory)
        times = [e["elapsed"] for e in events
                 if e.get("event") == "trial" and e.get("status") == "done"]
        if calibrate:
            times = [scale(t, loop) for t in times]
        return PassResult(wall=wall,
                          records=[r for res in results for r in res.records],
                          trial_seconds=times, attempted=self.size(),
                          scaled_wall=scale(wall, loop) if calibrate else wall,
                          texts=texts, events=events)

    def size(self) -> int:
        return sum(len(s.trials) for s in self.sweeps)

    def close(self) -> None:
        if self.probe is not None:
            self.probe.close()

    def finish(self, passes: List[PassResult]) -> List[str]:
        """Oracle: every pass's result files equal a serial run of the
        same sweeps with no cache, byte for byte."""
        want = [SerialExecutor().execute(s, cache=None).to_json()
                for s in self.sweeps]
        return [f"pass {i}: campaign result files differ from a serial run"
                for i, p in enumerate(passes)
                if p.texts and p.texts != want]

    def traffic(self) -> Dict[str, float]:
        return {"traffic.repeated_baseline_share": 0.0,
                "traffic.cross_sweep_repeat_share":
                wl.cross_sweep_repeat_share(self.sweeps)}


# --------------------------------------------------------------- metrics

def _cycles(record: dict) -> int:
    result = record["result"]
    kind = record["kind"]
    if kind == "ipc":
        return result["stats_base"]["cycles"] + \
            result["stats_contender"]["cycles"]
    if kind == "extract":
        return result["total_cycles"]
    if kind == "window":
        return result["cycles"]
    if kind == "attack":
        return result["stats"]["cycles"]
    return 0


def _secret_bytes(record: dict) -> int:
    if record["kind"] != "extract":
        return 0
    result = record["result"]
    return sum(a == b for a, b in zip(result["secret"], result["recovered"]))


def tail(samples: List[float]):
    """(value, percentile, samples beyond): the highest percentile with
    at least ten samples beyond it (the maximum below eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(lanes: int) -> float:
    """This process's peak RSS, plus the largest worker's for every
    worker lane (campaign-mixed)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (lanes - 1) * child) / 1024.0


def end_to_end(bench, passes: List[PassResult]) -> Dict[str, object]:
    """End-to-end metrics over repeated calibrated passes, in
    reference-host time (see :mod:`perfbench.calibrate`).

    Every pass runs the same trials, so ``trials_per_s`` divides the
    trials of one pass by the median pass time, which resists a burst
    of load that slows one pass.  ``trial_p50_ms`` and the tail pool
    the trial times of every pass.
    """
    pooled = [t for p in passes for t in p.trial_seconds]
    value, pct, beyond = tail(pooled)
    pass_seconds = statistics.median(p.scaled_wall for p in passes)
    first = passes[0].records
    wall = sum(p.wall for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "trials_per_s": (len(first) / pass_seconds, "trials/s"),
        "trial_p50_ms": (1000.0 * statistics.median(pooled), "ms"),
        "trial_tail_ms": (1000.0 * value, "ms"),
        "peak_rss_mb": (peak_rss_mb(bench.lanes), "MB"),
    }
    report = {
        "passes": len(passes), "trials": len(first) * len(passes),
        "pass_seconds": wall,
        "raw_trials_per_s": len(first) * len(passes) / wall,
        "host_speed": sum(p.scaled_wall for p in passes) / wall,
        "trial_tail_percentile": pct, "trial_tail_samples": len(pooled),
        "trial_tail_beyond": beyond,
        "sim_cycles_per_s":
            sum(_cycles(r) for r in first) / pass_seconds or None,
        "secret_bytes_per_s":
            sum(_secret_bytes(r) for r in first) / pass_seconds
            if bench.name == "leak-extract" else None,
        "fail_rate": failed / attempted,
    }
    return {"metrics": metrics, "report": report}


def per_layer(bench, base: PassResult, traced: PassResult, spans: Tracer,
              counts: Tracer) -> Dict[str, object]:
    """Per-layer metrics from the traced and counting passes."""
    lane_time = traced.wall * bench.lanes
    self_times = spans.self_times()
    calls = spans.span_counts()
    c = spans.counts

    def pct(seconds):
        return 100.0 * seconds / lane_time

    layers: Dict[str, float] = {}
    for name, seconds in self_times.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) \
            + seconds
    metrics: Dict[str, tuple] = {
        "tracing.wall_s": (traced.wall, "s"),
        "tracing.overhead_pct":
            (100.0 * (traced.scaled_wall - base.scaled_wall)
             / base.scaled_wall, "%"),
    }
    for layer in ("pipeline", "runahead", "multicore", "workloads", "trace",
                  "attack", "isa", "channel", "verify", "harness",
                  "campaign"):
        metrics[f"{layer}.self_pct"] = (pct(layers.get(layer, 0.0)), "%")
    metrics["other.self_pct"] = (pct(lane_time - sum(layers.values())), "%")
    for name in ("channel.prepare", "channel.measure", "channel.decode",
                 "verify.check", "harness.plan", "harness.cache_get",
                 "harness.cache_put"):
        metrics[f"{name}_pct"] = (pct(self_times.get(name, 0.0)), "%")
    metrics["verify.replay_pct"] = (pct(spans.replay_seconds()), "%")
    trial_time = sum(end - start for *_, name, start, end in spans.spans
                     if name == "harness.run_trial")
    work_lanes = max(1, bench.lanes - 1)
    metrics["harness.overhead_pct"] = (
        100.0 * (1 - trial_time / (traced.wall * work_lanes)), "%")
    compute = sum(e.get("elapsed", 0.0) for e in traced.events
                  if e.get("event") == "trial")
    metrics["campaign.idle_pct"] = (
        100.0 * (1 - compute / (traced.wall * work_lanes))
        if traced.events else 0.0, "%")

    # Window probes return no CoreStats, so their steps count in
    # pipeline.steps but not against the cycles of the other runs.
    steps = sum(counts.run_steps.values())
    stat_steps = steps - counts.run_steps["window"]
    core_steps = stat_steps - counts.run_steps["multicore"]
    cycles = c["core.cycles"]

    def us_per_step(controller=None):
        if controller is None:
            seconds = sum(spans.run_seconds.values())
            taken = core_steps
        else:
            seconds = spans.run_seconds.get(controller, 0.0)
            taken = counts.run_steps.get(controller, 0)
        return 1e6 * seconds / taken if taken else 0.0

    secure, original = us_per_step("secure"), us_per_step("original")
    records = traced.records
    extracts = [r["result"] for r in records if r["kind"] == "extract"]
    verifies = [r["result"] for r in records if r["kind"] == "verify"]
    bytes_total = sum(len(r["secret"]) for r in extracts)
    extract_cycles = sum(r["total_cycles"] for r in extracts)
    lookups = calls["harness.cache_get"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics.update({
        "pipeline.steps": (steps, "count"),
        "pipeline.skipped_cycle_share":
            (1 - ratio(stat_steps, cycles), "ratio"),
        "pipeline.us_per_step": (us_per_step(), "us"),
        "pipeline.secure_vs_original_step_cost":
            (ratio(secure, original), "us/us"),
        "pipeline.core_runs": (c["pipeline.core_runs"], "count"),
        "pipeline.distinct_core_runs": (len(counts.core_keys), "count"),
        "pipeline.cycles": (cycles, "count"),
        "pipeline.committed": (c["core.committed"], "count"),
        "pipeline.fetched": (c["core.fetched"], "count"),
        "pipeline.dispatched": (c["core.dispatched"], "count"),
        "pipeline.squashed": (c["core.squashed"], "count"),
        "pipeline.useful_ratio":
            (ratio(c["core.committed"], c["core.fetched"]), "ratio"),
        "memory.data_accesses": (c["memory.data_accesses"], "count"),
        "memory.mem_requests": (c["memory.mem_requests"], "count"),
        "memory.merged_requests": (c["memory.merged_requests"], "count"),
        "memory.flushes": (c["memory.flushes"], "count"),
        "memory.prefetch_requests": (c["memory.prefetch_requests"], "count"),
        "branch.mispredicts": (c["core.branch_mispredicts"], "count"),
        "branch.inv_branches": (c["core.inv_branches"], "count"),
        "runahead.episodes": (c["core.runahead_episodes"], "count"),
        "runahead.cycle_share":
            (ratio(c["core.runahead_cycles"], cycles), "ratio"),
        "runahead.pseudo_retired": (c["core.pseudo_retired"], "count"),
        "runahead.prefetches": (c["core.runahead_prefetches"], "count"),
        "runahead.prefetch_yield":
            (ratio(c["core.runahead_prefetches"],
                   c["core.pseudo_retired"]), "ratio"),
        "defense.twin_mismatches": (traced.twin_mismatches, "count"),
        "workloads.materializations":
            (calls["workloads.materialize"], "count"),
        "workloads.builds": (c["workloads.builds"], "count"),
        "workloads.memo_hits": (c["workloads.memo_hits"], "count"),
        "trace.lowers": (calls["trace.lower"], "count"),
        "attack.builds": (calls["attack.build"], "count"),
        "isa.assembles": (calls["isa.assemble"], "count"),
        "channel.measures": (calls["channel.measure"], "count"),
        "channel.byte_success_ratio":
            (ratio(sum(_secret_bytes(r) for r in records), bytes_total),
             "ratio"),
        "channel.calibration_cycle_share":
            (ratio(sum(r["calibration_cycles"] for r in extracts),
                   extract_cycles), "ratio"),
        "multicore.runs": (calls["multicore.run"], "count"),
        "verify.checks": (calls["verify.check"], "count"),
        "verify.arch_steps": (sum(r["arch_steps"] for r in verifies), "count"),
        "verify.window_steps":
            (sum(r["window_steps"] for r in verifies), "count"),
        "verify.spec_forks": (sum(r["spec_forks"] for r in verifies), "count"),
        "verify.runahead_forks":
            (sum(r["runahead_forks"] for r in verifies), "count"),
        "verify.reports": (sum(r["n_reports"] for r in verifies), "count"),
        "verify.disagreements":
            (sum(len(r["disagreements"]) for r in verifies), "count"),
        "harness.trials": (calls["harness.run_trial"], "count"),
        "harness.cache_lookups": (lookups, "count"),
        "harness.cache_hit_ratio":
            (ratio(c["harness.cache_hits"], lookups), "ratio"),
        "campaign.journal_events": (len(traced.events), "count"),
        "campaign.retries":
            (sum(e.get("event") == "retry" for e in traced.events), "count"),
    })
    for name, value in bench.traffic().items():
        metrics[name] = (value, "ratio")
    report = {
        "layers": {layer: seconds for layer, seconds in sorted(
            layers.items(), key=lambda kv: -kv[1])},
        "lane_seconds": lane_time, "lanes": bench.lanes,
        "untraced_wall_s": base.scaled_wall,
        "traced_wall_s": traced.scaled_wall,
        "us_per_step_by_controller": {
            name: us_per_step(name) for name in sorted(spans.run_seconds)},
        "steps_by_controller": dict(counts.run_steps),
    }
    return {"metrics": metrics, "report": report}


# ------------------------------------------------------------------ runs

def make_bench(name: str, seed: int, scale: float, workdir):
    if name == "campaign-mixed":
        return CampaignBench(name, seed, scale, workdir)
    return SerialBench(name, seed, scale, workdir)


def timed_run(bench, seconds: float) -> Dict[str, object]:
    """The pass, repeated ``--seconds`` / nominal pass time times (at
    least three), so every run does the same work."""
    reps = max(MIN_REPEATS, round(seconds / bench.pass_seconds))
    for _ in range(bench.warmup_passes):
        bench.run_pass()
    passes = [bench.run_pass(calibrate=True) for _ in range(reps)]
    out = end_to_end(bench, passes)
    out["passes"] = passes
    return out


def traced_run(bench, workdir) -> Dict[str, object]:
    """The pass four times: an untraced warm-up, traced, untraced (the
    overhead baseline, as warm as the traced pass) and counting.  The
    shims are imported only here, so untraced runs never load them."""
    from perfbench.tracing import Tracer

    warmup = bench.run_pass()
    spans = Tracer(pathlib.Path(workdir) / "spill-spans", "spans")
    spans.install()
    try:
        traced = bench.run_pass(calibrate=True)
    finally:
        spans.uninstall()
    spans.collect()
    base = bench.run_pass(calibrate=True)
    counts = Tracer(pathlib.Path(workdir) / "spill-count", "count")
    counts.install()
    try:
        counted = bench.run_pass()
    finally:
        counts.uninstall()
    counts.collect()
    out = per_layer(bench, base, traced, spans, counts)
    out["passes"] = [warmup, traced, base, counted]
    out["tracer"] = spans
    return out


def recorded(name: str) -> Dict[str, object]:
    """What ``expected.json`` holds for a workload at the default seed:
    its pass-0 ``digest`` and the exact work ``counters``."""
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle).get(name, {})


def exact_counters(metrics: Dict[str, tuple]) -> Dict[str, object]:
    """The per-layer metrics that are counts of work, not timings."""
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "ratio")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of each pass to run (self-test: 0.25)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = None
    try:
        bench = make_bench(args.workload, args.seed, args.scale, workdir)
        bench.setup()
        print(READY, flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            out = traced_run(bench, workdir)
            out["tracer"].write(OUT_DIR / f"spans-{args.workload}.jsonl")
        else:
            out = timed_run(bench, args.seconds)
        passes: List[PassResult] = out["passes"]
        problems = [p for r in passes for p in r.problems]
        finish = bench.finish(passes)
        problems += finish
        if args.seed == DEFAULT_SEED and args.scale == 1.0:
            want = recorded(args.workload)
            got = passes[0].digest()
            out["report"]["digest"] = got
            if "digest" in want and got != want["digest"]:
                problems.append(f"pass 0 record digest {got} differs from "
                                f"the recorded {want['digest']}")
            if args.trace:
                counters = exact_counters(out["metrics"])
                out["report"]["counters"] = counters
                out["report"]["counter_drift"] = {
                    name: [want["counters"].get(name), value]
                    for name, value in counters.items()
                    if "counters" in want
                    and want["counters"].get(name) != value}
        for problem in problems:
            print(f"oracle: {problem}", file=sys.stderr)
        attempted = sum(p.attempted for p in passes)
        failed = min(attempted, sum(p.failed for p in passes) + len(finish))
        summary = {
            "correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in out["metrics"].items()},
            "report": out["report"],
        }
        print(json.dumps(summary), flush=True)
        return 0
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
