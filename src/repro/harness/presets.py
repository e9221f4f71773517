"""Paper experiments as named sweep presets.

Each preset maps one table/figure/section of the paper to a declarative
:class:`~repro.harness.spec.Sweep` plus a renderer that turns the sweep
result back into the text block the reproduction reports, plus a
checker that holds the result to the paper's claims.  The examples and
``python -m repro sweep <name>`` build their experiments here, so a
figure and its claims are defined in exactly one place.

``build(quick=True)`` returns a reduced grid for CI smoke runs — fewer
axis points, same trial kinds and the same code paths end to end.

Public contract
---------------
* :data:`PRESETS` / :func:`get` are the catalogue: every entry is a
  :class:`Preset` whose ``build(quick=False)`` returns a fresh,
  JSON-serializable :class:`~repro.harness.spec.Sweep`, whose
  ``render(result)`` turns the executed sweep back into the report
  text, and whose ``check(result)`` returns one problem string per
  claim that fails (empty when every claim holds).  A claim whose bound
  differs by tier works the tier out from the records.  ``repro
  sweep``/``repro report``/``repro campaign`` print the problems and
  exit 1; the examples resolve experiments only through here.
* Sweeps must be **byte-identical at any worker count**: trial params
  may contain only registry names and numbers, and any randomness must
  derive from committed seed constants (`FIG9_NOISE_SEED` et al.).
* Trial params are the *cache identity*: renaming or reordering presets
  is free (the sweep name is not hashed), but changing a trial's params
  recomputes it — which is also how two presets share cached rows by
  emitting identical trials (see ``cross_core_bandwidth``).
* Some rendered *findings* are empirical properties of the committed
  constants (Fig. 9's monotone success curve, the smt/trace co-runner
  calibration results) — pinned by each preset's ``check``; re-verify
  when retuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..analysis.report import format_bars, format_latency_plot, format_table
from .aggregate import (attack_matrix, geometric_mean_speedup, ipc_table,
                        speedup_bars)
from .executor import SweepResult
from .registry import make_config
from .spec import Sweep

ATTACK_VARIANTS = ("pht", "btb", "rsb-overwrite", "rsb-flush")
CHANNEL_RECEIVERS = ("flush-reload", "evict-reload", "prime-probe")
DEFENSE_MACHINES = ("original", "secure", "branch-skip")
RUNAHEAD_VARIANTS = ("original", "precise", "vector")
FIG7_KERNELS = ("zeusmp", "wrf", "bwaves", "lbm", "mcf", "gems")
FIG7_KERNELS_QUICK = ("zeusmp", "mcf", "gems")
SEC6_PERF_KERNELS = ("lbm", "mcf", "gems")


@dataclass(frozen=True)
class Preset:
    name: str
    title: str
    build: Callable[..., Sweep]          # build(quick=False) -> Sweep
    render: Callable[[SweepResult], str]
    check: Callable[[SweepResult], List[str]]   # [] when every claim holds


def _failed(*claims) -> List[str]:
    """The messages of the ``(holds, message)`` claims that fail."""
    return [message for holds, message in claims if not holds]


# ---------------------------------------------------------------- table1

def _build_table1(quick: bool = False) -> Sweep:
    sweep = Sweep("table1", description="Table 1 reference machine")
    sweep.add("run", workload="reference", runahead="none",
              config_base="paper")
    return sweep


def _render_table1(result: SweepResult) -> str:
    config = make_config("paper")
    h = config.hierarchy
    rows = [
        ("Core", "out-of-order (cycle model)"),
        ("Processor width", f"{config.width}-wide fetch/decode/dispatch/"
                            "commit"),
        ("Pipeline depth", f"{config.frontend_depth} front-end stages"),
        ("Branch predictor", "two-level adaptive predictor"),
        ("Functional units",
         "4 int add (1cy), 2 int mult (2cy), 1 int div (5cy), "
         "2 fp add (5cy), 1 fp mult (10cy), 1 fp div (15cy)"),
        ("Register file", f"{config.int_regs} int, {config.fp_regs} fp, "
                          f"{config.vec_regs} xmm"),
        ("ROB", f"{config.rob_size} entries"),
        ("Queues", f"i ({config.iq_size}), load ({config.lq_size}), "
                   f"store ({config.sq_size})"),
        ("L1 I-cache", "16KB, 4 way, 2 cycle"),
        ("L1 D-cache", "16KB, 4 way, 2 cycle"),
        ("L2 cache", "128KB, 8 way, 8 cycle"),
        ("L3 cache", "4MB, 8 way, 32 cycle"),
        ("Memory", f"request-based contention model, {h.mem_latency} cycle"),
    ]
    ref = result.one("run", workload="reference")["result"]
    return (format_table(["Component", "Parameter"], rows) +
            f"\n\nreference run: {ref['cycles']} cycles, "
            f"IPC {ref['ipc']:.3f}")


def _check_table1(result: SweepResult) -> List[str]:
    ref = result.one("run", workload="reference")["result"]
    return _failed(
        (ref["halted"], "reference run did not halt"),
        (ref["cycles"] > 0,
         f"reference run took {ref['cycles']} cycles, want > 0"))


# ------------------------------------------------------------------ fig4

def _build_fig4(quick: bool = False) -> Sweep:
    variants = ("pht", "rsb-flush") if quick else ATTACK_VARIANTS
    return Sweep.grid("fig4", "attack",
                      base={"runahead": "original"},
                      description="Fig. 4: Spectre variants under runahead",
                      variant=list(variants))


def _render_fig4(result: SweepResult) -> str:
    rows = []
    for record in result.select("attack"):
        res = record["result"]
        rows.append((res["variant"], res["recovered"],
                     res["stats"]["runahead_episodes"],
                     res["stats"]["inv_branches"],
                     res["stats"]["runahead_prefetches"]))
    table = format_table(
        ["variant", "recovered secret", "episodes", "unresolved branches",
         "prefetches"], rows)
    return (f"{table}\n\nplanted secret: 86 — every Fig. 4 variant leaks "
            "under runahead.\n"
            "rsb-flush models ret2spec-style RSB/stack desync; the "
            "stalling\nload is the victim's own return-address read "
            "(Fig. 4c).")


def _check_fig4(result: SweepResult) -> List[str]:
    attacks = result.results("attack")
    return _failed(
        (attacks, "sweep produced no attack records"),
        *((res["succeeded"],
           f"{res['variant']}: recovered {res['recovered']}, want "
           f"{res['secret']} (paper: every variant leaks under runahead)")
          for res in attacks))


# ------------------------------------------------------------------ fig7

def _build_fig7(quick: bool = False) -> Sweep:
    kernels = FIG7_KERNELS_QUICK if quick else FIG7_KERNELS
    return Sweep.grid("fig7", "ipc",
                      base={"baseline": "none", "contender": "original"},
                      description="Fig. 7: normalized IPC, no-runahead vs "
                                  "runahead",
                      workload=list(kernels))


def _render_fig7(result: SweepResult) -> str:
    rows = result.results("ipc")
    mean = geometric_mean_speedup(rows)
    return (ipc_table(rows, baseline_label="no-runahead") +
            "\n\nnormalized IPC (runahead / no-runahead):\n" +
            speedup_bars(rows) +
            f"\n\ngeometric mean speedup: {mean:.3f}x "
            "(paper: ~1.11x average)")


def _check_fig7(result: SweepResult) -> List[str]:
    rows = result.results("ipc")
    by_name = {row["workload"]: row for row in rows}
    if "zeusmp" not in by_name or "mcf" not in by_name:
        return [f"ran {sorted(by_name)}, want zeusmp and mcf among them"]
    zeusmp = by_name["zeusmp"]["speedup"]
    mean = geometric_mean_speedup(rows)
    # The paper's band applies to its six-kernel average only.
    if set(by_name) == set(FIG7_KERNELS):
        mean_claim = (1.05 < mean < 1.30, f"geomean speedup {mean:.3f}x, "
                      "want in (1.05, 1.30) (paper ~1.11x)")
    else:
        mean_claim = (mean > 1.0, f"geomean speedup {mean:.3f}x over "
                      f"{sorted(by_name)}, want > 1.0")
    return _failed(
        (0.95 < zeusmp < 1.15,
         f"zeusmp (compute bound) speedup {zeusmp:.3f}x, "
         "want in (0.95, 1.15)"),
        *((by_name[name]["speedup"] > 1.05,
           f"{name} (memory bound) speedup "
           f"{by_name[name]['speedup']:.3f}x, want > 1.05")
          for name in ("bwaves", "lbm", "mcf", "gems") if name in by_name),
        mean_claim)


# ------------------------------------------------------------------ fig9

FIG9_SECRET = 86


def _build_fig9(quick: bool = False) -> Sweep:
    sweep = Sweep("fig9", description="Fig. 9: probe latencies of the PoC")
    sweep.add("attack", variant="pht", runahead="original",
              secret_value=FIG9_SECRET)
    return sweep


def _render_fig9(result: SweepResult) -> str:
    res = result.one("attack", variant="pht")["result"]
    latencies = res["latencies"]
    secret = res["secret"]
    plot = format_latency_plot(
        latencies, title="probe access time (cycles) per index:")
    return (f"{plot}\n\n"
            f"planted secret       : {secret}\n"
            f"recovered            : {res['recovered']}\n"
            f"dip latency          : {latencies[secret]} cycles\n"
            f"median probe latency : "
            f"{sorted(latencies)[len(latencies) // 2]} cycles\n"
            f"runahead episodes    : {res['stats']['runahead_episodes']}\n"
            f"unresolved branches  : {res['stats']['inv_branches']}\n"
            f"(paper: drop at index 86, ~100 vs ~350 cycles)")


def _check_fig9(result: SweepResult) -> List[str]:
    res = result.one("attack", variant="pht")["result"]
    latencies = res["latencies"]
    dip = latencies[FIG9_SECRET]
    fastest_other = min(lat for i, lat in enumerate(latencies)
                        if i != FIG9_SECRET)
    return _failed(
        (res["succeeded"] and res["recovered"] == FIG9_SECRET,
         f"recovered {res['recovered']}, want {FIG9_SECRET} "
         f"(paper {FIG9_SECRET})"),
        (dip < 50, f"dip latency {dip} cycles at index {FIG9_SECRET}, "
                   "want < 50 (paper ~100)"),
        (fastest_other > 150,
         f"fastest non-secret probe {fastest_other} cycles, want > 150 "
         "(paper ~350)"))


# ------------------------------------------------------- fig9_noise_sweep

#: A noisy covert channel: probe jitter, co-runner evictions and
#: prefetch pollution — strong enough that one trial usually fails and
#: multi-trial aggregation is required.
FIG9_NOISE = {"jitter": 24, "evict_rate": 0.04, "pollute_rate": 0.04}
FIG9_NOISE_TRIALS = (1, 3, 5, 9)
FIG9_NOISE_TRIALS_QUICK = (1, 5)
FIG9_NOISE_SECRET = [83, 80, 69, 67]          # "SPEC"
FIG9_NOISE_SECRET_QUICK = [83, 67]            # "SC"
#: Fixed base seed shared by every trials point, so a larger trial
#: count extends (rather than re-rolls) the smaller one's noise draws.
#: That makes the points comparable (prefix property), but decoding is
#: a majority vote, so monotonicity of the success curve is an
#: *empirical* property of these committed constants — pinned by
#: ``_check_fig9_noise``, re-verify when retuning.
FIG9_NOISE_SEED = 7


def _build_fig9_noise(quick: bool = False) -> Sweep:
    trials_axis = FIG9_NOISE_TRIALS_QUICK if quick else FIG9_NOISE_TRIALS
    secret = FIG9_NOISE_SECRET_QUICK if quick else FIG9_NOISE_SECRET
    sweep = Sweep("fig9_noise_sweep",
                  description="Fig. 9 under a noisy receiver: "
                              "success rate vs measurement trials")
    for trials in trials_axis:
        sweep.add("extract", variant="pht", receiver="flush-reload",
                  secret=secret, trials=trials, noise=dict(FIG9_NOISE),
                  runahead="original", seed=FIG9_NOISE_SEED)
    return sweep


def _render_fig9_noise(result: SweepResult) -> str:
    rows = []
    labels, rates = [], []
    for record in result.select("extract"):
        res = record["result"]
        rows.append((res["trials"], f"{res['success_rate']:.2f}",
                     _recovered_text(res["recovered"]),
                     f"{res['bits_per_kcycle']:.3f}",
                     f"{res['bandwidth_bits_per_s']:,.0f}"))
        labels.append(f"{res['trials']} trial(s)")
        rates.append(res["success_rate"])
    table = format_table(
        ["trials", "success rate", "recovered", "bits/kcycle", "bits/s"],
        rows)
    secret = result.select("extract")[0]["result"]["secret"]
    return (f"{table}\n\nsuccess rate vs trials:\n"
            f"{format_bars(labels, rates)}\n\n"
            f"planted secret: {_recovered_text(secret)!r} | noise: "
            f"{FIG9_NOISE} | receiver: flush-reload\n"
            "one noisy trial rarely decodes; median aggregation + "
            "majority vote across\ntrials recovers the full secret "
            "(bandwidth = correctly recovered bits /\nsimulated cycles "
            "at a nominal 2 GHz clock).")


def _check_fig9_noise(result: SweepResult) -> List[str]:
    rows = result.results("extract")
    trials = [res["trials"] for res in rows]
    rates = [res["success_rate"] for res in rows]
    final = rows[-1]
    return _failed(
        (trials == sorted(trials), f"trials axis {trials} is not ascending"),
        (all(a <= b for a, b in zip(rates, rates[1:])),
         f"success rate {rates} is not monotone in trials"),
        (rates[-1] == 1.0 and final["recovered"] == final["secret"],
         f"{final['trials']} trials recovered "
         f"{_recovered_text(final['recovered'])!r} at rate {rates[-1]:.2f}, "
         f"want the full secret {_recovered_text(final['secret'])!r}"),
        (final["bandwidth_bits_per_s"] > 0 and final["bits_per_kcycle"] > 0,
         f"{final['trials']} trials: bandwidth "
         f"{final['bandwidth_bits_per_s']} bits/s, "
         f"{final['bits_per_kcycle']} bits/kcycle, want both > 0"))


# ------------------------------------------------------ channel_bandwidth

CHANNEL_BW_NOISE = {"jitter": 12, "evict_rate": 0.01, "pollute_rate": 0.01}
#: Trials cost only measurement (the victim run is simulated once), so
#: the bandwidth table can afford enough of them that prime+probe — the
#: noisiest strategy (any of 8 primed ways per set can be hit) — votes
#: its way past per-trial false positives.
CHANNEL_BW_TRIALS = 5


def _build_channel_bandwidth(quick: bool = False) -> Sweep:
    secret = FIG9_NOISE_SECRET_QUICK if quick else FIG9_NOISE_SECRET
    sweep = Sweep("channel_bandwidth",
                  description="covert-channel bandwidth per receiver "
                              "strategy")
    for receiver in CHANNEL_RECEIVERS:
        sweep.add("extract", variant="pht", receiver=receiver,
                  secret=secret, trials=CHANNEL_BW_TRIALS,
                  noise=dict(CHANNEL_BW_NOISE), runahead="original",
                  seed=FIG9_NOISE_SEED)
    return sweep


def _render_channel_bandwidth(result: SweepResult) -> str:
    rows = []
    for record in result.select("extract"):
        res = record["result"]
        kcycles = res["total_cycles"] / 1000.0
        rows.append((res["receiver"], f"{res['success_rate']:.2f}",
                     _recovered_text(res["recovered"]),
                     f"{kcycles:.1f}",
                     f"{res['bits_per_kcycle']:.3f}",
                     f"{res['bandwidth_bits_per_s']:,.0f}"))
    table = format_table(
        ["receiver", "success rate", "recovered", "kcycles",
         "bits/kcycle", "bits/s @2GHz"], rows)
    return (f"{table}\n\nmild noise ({CHANNEL_BW_NOISE}), "
            f"{CHANNEL_BW_TRIALS} trials per byte.\n"
            "flush+reload is the paper's channel; evict+reload drops the "
            "clflush\nrequirement (training-warmed entries are excluded); "
            "prime+probe watches its\nown primed L3 sets and pays one "
            "benign calibration run.")


def _check_channel_bandwidth(result: SweepResult) -> List[str]:
    by_receiver = {res["receiver"]: res
                   for res in result.results("extract")}
    if set(by_receiver) != set(CHANNEL_RECEIVERS):
        return [f"receivers {sorted(by_receiver)}, "
                f"want {sorted(CHANNEL_RECEIVERS)}"]
    return _failed(
        (by_receiver["flush-reload"]["success_rate"] == 1.0,
         "flush-reload success rate "
         f"{by_receiver['flush-reload']['success_rate']:.2f}, want 1.0"),
        *((res["success_rate"] >= 0.5 and res["bandwidth_bits_per_s"] > 0,
           f"{name}: success rate {res['success_rate']:.2f} at "
           f"{res['bandwidth_bits_per_s']} bits/s, want >= 0.5 at > 0")
          for name, res in by_receiver.items()),
        (by_receiver["prime-probe"]["calibration_cycles"] > 0,
         "prime-probe spent no calibration cycles, want > 0"))


def _recovered_text(values) -> str:
    from ..channel.extract import render_byte_text
    return render_byte_text(values)


# ------------------------------------------------------- fig10_cross_core

#: Mild measurement noise for the cross-core sweeps: enough that one
#: trial can err, easily voted away at CROSS_CORE_TRIALS.
CROSS_CORE_NOISE = {"jitter": 12, "evict_rate": 0.01, "pollute_rate": 0.01}
CROSS_CORE_TRIALS = 5


def _build_fig10_cross_core(quick: bool = False) -> Sweep:
    secret = FIG9_NOISE_SECRET_QUICK if quick else FIG9_NOISE_SECRET
    receivers = ("flush-reload", "prime-probe") if quick \
        else CHANNEL_RECEIVERS
    sweep = Sweep("fig10_cross_core",
                  description="cross-core covert channel (shared "
                              "inclusive L3) vs the runahead defenses")
    for machine in DEFENSE_MACHINES:
        for receiver in receivers:
            sweep.add("extract", variant="pht", receiver=receiver,
                      secret=secret, trials=CROSS_CORE_TRIALS,
                      noise=dict(CROSS_CORE_NOISE), runahead=machine,
                      seed=FIG9_NOISE_SEED, cores=2)
    return sweep


def _render_fig10_cross_core(result: SweepResult) -> str:
    records = result.select("extract")
    receivers = list(dict.fromkeys(
        r["result"]["receiver"] for r in records))
    rows = []
    for machine in DEFENSE_MACHINES:
        row: List[str] = [machine]
        for receiver in receivers:
            res = result.one("extract", runahead=machine,
                             receiver=receiver)["result"]
            row.append(f"{res['success_rate']:.2f} "
                       f"({_recovered_text(res['recovered'])})")
        rows.append(tuple(row))
    table = format_table(
        ["machine"] + [f"{r} success" for r in receivers], rows)
    secret = records[0]["result"]["secret"]
    return (f"{table}\n\n"
            f"planted secret: {_recovered_text(secret)!r} | transmitter "
            f"on core 0, receiver probing the shared L3 from core 1 | "
            f"noise {CROSS_CORE_NOISE}, {CROSS_CORE_TRIALS} trials/byte.\n"
            "the baseline machine leaks the full secret *cross-core* — "
            "eviction and priming\nwork through inclusive-L3 "
            "back-invalidation — while the secure-runahead and\n"
            "branch-skip defenses close the channel entirely (nothing "
            "decodes).")


def _check_fig10_cross_core(result: SweepResult) -> List[str]:
    by_machine: Dict[str, List[dict]] = {}
    for record in result.select("extract"):
        by_machine.setdefault(record["params"]["runahead"],
                              []).append(record["result"])
    return _failed(
        *((res["topology"]["cores"] == 2,
           f"{machine}/{res['receiver']}: ran on "
           f"{res['topology']['cores']} cores, want 2")
          for machine, rows in by_machine.items() for res in rows),
        *((res["success_rate"] >= 0.9,
           f"original/{res['receiver']}: success rate "
           f"{res['success_rate']:.2f}, want >= 0.9 (baseline leaks "
           "cross-core)")
          for res in by_machine["original"]),
        *((res["success_rate"] == 0.0,
           f"{machine}/{res['receiver']}: success rate "
           f"{res['success_rate']:.2f}, recovered "
           f"{_recovered_text(res['recovered'])!r}, want 0.0 (defense "
           "closes the channel)")
          for machine in ("secure", "branch-skip")
          for res in by_machine[machine]))


# ----------------------------------------------------- cross_core_bandwidth

def _build_cross_core_bandwidth(quick: bool = False) -> Sweep:
    secret = FIG9_NOISE_SECRET_QUICK if quick else FIG9_NOISE_SECRET
    sweep = Sweep("cross_core_bandwidth",
                  description="channel capacity: same-core vs cross-core "
                              "per receiver strategy")
    for receiver in CHANNEL_RECEIVERS:
        # Same-core rows are exactly the channel_bandwidth trials (no
        # topology key), so the two presets share cached results.
        sweep.add("extract", variant="pht", receiver=receiver,
                  secret=secret, trials=CHANNEL_BW_TRIALS,
                  noise=dict(CHANNEL_BW_NOISE), runahead="original",
                  seed=FIG9_NOISE_SEED)
        sweep.add("extract", variant="pht", receiver=receiver,
                  secret=secret, trials=CHANNEL_BW_TRIALS,
                  noise=dict(CHANNEL_BW_NOISE), runahead="original",
                  seed=FIG9_NOISE_SEED, cores=2)
    return sweep


def _render_cross_core_bandwidth(result: SweepResult) -> str:
    rows = []
    for record in result.select("extract"):
        res = record["result"]
        cores = record["params"].get("cores", 1)
        rows.append((res["receiver"],
                     "cross-core" if cores > 1 else "same-core",
                     f"{res['success_rate']:.2f}",
                     _recovered_text(res["recovered"]),
                     f"{res['bits_per_kcycle']:.3f}",
                     f"{res['bandwidth_bits_per_s']:,.0f}"))
    table = format_table(
        ["receiver", "placement", "success rate", "recovered",
         "bits/kcycle", "bits/s @2GHz"], rows)
    return (f"{table}\n\nmild noise ({CHANNEL_BW_NOISE}), "
            f"{CHANNEL_BW_TRIALS} trials per byte.\n"
            "cross-core reload hits land at LLC latency instead of L1 "
            "(the receiver's\nprivate caches never hold the victim's "
            "lines), shrinking the timing margin\nbut leaving every "
            "strategy a working cross-core channel.")


def _check_cross_core_bandwidth(result: SweepResult) -> List[str]:
    pairs: Dict[str, Dict[int, dict]] = {}
    for record in result.select("extract"):
        pairs.setdefault(record["result"]["receiver"], {})[
            record["params"].get("cores", 1)] = record["result"]
    if set(pairs) != set(CHANNEL_RECEIVERS):
        return [f"receivers {sorted(pairs)}, "
                f"want {sorted(CHANNEL_RECEIVERS)}"]
    problems = []
    for receiver, by_cores in pairs.items():
        same, cross = by_cores[1], by_cores[2]
        problems += _failed(
            (cross["success_rate"] >= 0.5
             and cross["bandwidth_bits_per_s"] > 0,
             f"{receiver} cross-core: success rate "
             f"{cross['success_rate']:.2f} at "
             f"{cross['bandwidth_bits_per_s']} bits/s, "
             "want >= 0.5 at > 0"),
            # Cross-core reload hits pay LLC latency, so a reload
            # channel never runs faster on another core.
            (receiver == "prime-probe"
             or same["bits_per_kcycle"] >= 0.9 * cross["bits_per_kcycle"],
             f"{receiver}: same-core {same['bits_per_kcycle']:.3f} "
             f"bits/kcycle, want >= 0.9x cross-core "
             f"{cross['bits_per_kcycle']:.3f}"))
    return problems


# ------------------------------------------------------ smt_corunner_sweep

#: Overlay co-runner model from PR 3 (measurement-layer evictions) used
#: as the comparison point for real interfering instruction streams.
SMT_OVERLAY_NOISE = {"jitter": 12, "evict_rate": 0.04}
SMT_CORUNNERS = ("zeusmp", "lbm", "mcf")
SMT_CORUNNERS_QUICK = ("lbm",)
SMT_SWEEP_RECEIVERS = ("flush-reload", "prime-probe")


def _build_smt_corunner(quick: bool = False) -> Sweep:
    secret = FIG9_NOISE_SECRET_QUICK if quick else FIG9_NOISE_SECRET
    corunners = SMT_CORUNNERS_QUICK if quick else SMT_CORUNNERS
    sweep = Sweep("smt_corunner_sweep",
                  description="co-runner interference: overlay noise "
                              "model vs real SMT / cross-core streams")
    for receiver in SMT_SWEEP_RECEIVERS:
        base = dict(variant="pht", receiver=receiver, secret=secret,
                    trials=CROSS_CORE_TRIALS, runahead="original",
                    seed=FIG9_NOISE_SEED)
        sweep.add("extract", cores=2, **base)
        sweep.add("extract", cores=2, noise=dict(SMT_OVERLAY_NOISE),
                  **base)
        for corunner in corunners:
            sweep.add("extract", cores=2, corunner=corunner, smt=True,
                      **base)
            sweep.add("extract", cores=3, corunner=corunner, **base)
    return sweep


def _smt_scenario_label(params) -> str:
    corunner = params.get("corunner")
    if corunner is None:
        return "overlay noise" if params.get("noise") else "clean"
    if params.get("smt"):
        return f"SMT co-runner ({corunner})"
    return f"cross-core co-runner ({corunner})"


def _render_smt_corunner(result: SweepResult) -> str:
    rows = []
    for record in result.select("extract"):
        res = record["result"]
        rows.append((res["receiver"],
                     _smt_scenario_label(record["params"]),
                     f"{res['success_rate']:.2f}",
                     _recovered_text(res["recovered"]),
                     f"{res['bits_per_kcycle']:.3f}",
                     f"{res['bandwidth_bits_per_s']:,.0f}"))
    table = format_table(
        ["receiver", "co-runner scenario", "success rate", "recovered",
         "bits/kcycle", "bits/s @2GHz"], rows)
    return (f"{table}\n\nall scenarios cross-core "
            f"({CROSS_CORE_TRIALS} trials/byte); overlay noise = "
            f"{SMT_OVERLAY_NOISE}.\n"
            "the overlay model draws i.i.d. per-trial evictions, which "
            "majority voting\nremoves; a real co-runner's interference "
            "is *structured* — the same sets are\ndisturbed in every "
            "re-measurement — so it either misses the probe sets\n"
            "entirely (streaming kernels, calibrated away) or defeats "
            "prime+probe's\nbenign-run calibration outright "
            "(pointer-chasing mcf).  reload channels only\nlose "
            "bandwidth to contention: a co-runner in its own physical "
            "window cannot\nfake a reload hit on the victim's lines.")


def _check_smt_corunner(result: SweepResult) -> List[str]:
    records = result.select("extract")
    real = [r for r in records if r["params"].get("corunner")]
    overlay = [r for r in records if r["params"].get("noise")
               and r["params"].get("corunner") is None]
    clean = [r for r in records if not r["params"].get("noise")
             and r["params"].get("corunner") is None]
    return _failed(
        (overlay and real, "want both overlay-noise and real co-runner "
                           "rows"),
        *((r["result"]["total_cycles"] > 0
           and r["result"]["topology"]["corunner"]
           == r["params"]["corunner"],
           f"{_smt_scenario_label(r['params'])}: co-runner "
           f"{r['result']['topology']['corunner']!r} over "
           f"{r['result']['total_cycles']} cycles, want "
           f"{r['params']['corunner']!r} over > 0")
          for r in real),
        # A co-runner in its own physical window cannot fake a reload
        # hit on the victim's lines.
        *((r["result"]["success_rate"] == 1.0,
           f"flush-reload under {_smt_scenario_label(r['params'])}: "
           f"success rate {r['result']['success_rate']:.2f}, want 1.0")
          for r in real if r["result"]["receiver"] == "flush-reload"),
        *((r["result"]["success_rate"] == 1.0,
           f"{r['result']['receiver']} clean cross-core: success rate "
           f"{r['result']['success_rate']:.2f}, want 1.0")
          for r in clean))


# ------------------------------------------------------------ fig7_traces

TRACE_KERNELS = ("trace-mcf", "trace-stream", "trace-gcc", "trace-zipf")
TRACE_KERNELS_QUICK = ("trace-mcf", "trace-stream")


def _build_fig7_traces(quick: bool = False) -> Sweep:
    kernels = TRACE_KERNELS_QUICK if quick else TRACE_KERNELS
    return Sweep.grid("fig7_traces", "ipc",
                      base={"baseline": "none", "contender": "original"},
                      description="Fig. 7 under trace-driven workloads: "
                                  "IPC with/without runahead",
                      workload=list(kernels))


def _render_fig7_traces(result: SweepResult) -> str:
    rows = result.results("ipc")
    mean = geometric_mean_speedup(rows)
    return (ipc_table(rows, baseline_label="no-runahead") +
            "\n\nnormalized IPC (runahead / no-runahead):\n" +
            speedup_bars(rows) +
            f"\n\ngeometric mean speedup: {mean:.3f}x\n"
            "trace replays are pure access streams (no compute to hide "
            "latency), so gains\nrun higher than the Fig. 7 kernels; the "
            "structure still differentiates: the\nmcf-style chase is "
            "serialized (dependent loads go INV — runahead prefetches\n"
            "only the arc streams), streaming prefetches everything, "
            "zipf's hot set is\ncache-resident.")


def _check_fig7_traces(result: SweepResult) -> List[str]:
    rows = {res["workload"]: res for res in result.results("ipc")}
    mcf, stream = rows["trace-mcf"], rows["trace-stream"]
    return _failed(
        *((res["ipc_base"] > 0, f"{name}: baseline IPC {res['ipc_base']}, "
                                "want > 0")
          for name, res in rows.items()),
        # The chase gains through its arc streams even though the
        # chase itself is unprefetchable.
        (mcf["speedup"] > 1.3,
         f"trace-mcf speedup {mcf['speedup']:.3f}x, want > 1.3"),
        (stream["speedup"] > 1.2,
         f"trace-stream speedup {stream['speedup']:.3f}x, want > 1.2"),
        (mcf["prefetches"] > 0,
         f"trace-mcf issued {mcf['prefetches']} runahead prefetches, "
         "want > 0"))


# ---------------------------------------------------- trace_pressure_sweep

#: Co-runner rows of the trace-pressure sweep: clean cross-core baseline,
#: a streaming trace, and the mcf-style chase trace.
TRACE_PRESSURE_CORUNNERS = (None, "trace-stream", "trace-mcf")
TRACE_PRESSURE_RECEIVERS = ("prime-probe", "flush-reload")


def _build_trace_pressure(quick: bool = False) -> Sweep:
    secret = FIG9_NOISE_SECRET_QUICK if quick else FIG9_NOISE_SECRET
    sweep = Sweep("trace_pressure_sweep",
                  description="extraction success under trace-driven "
                              "co-runner cache pressure")
    for receiver in TRACE_PRESSURE_RECEIVERS:
        for corunner in TRACE_PRESSURE_CORUNNERS:
            params = dict(variant="pht", receiver=receiver, secret=secret,
                          trials=CROSS_CORE_TRIALS, runahead="original",
                          seed=FIG9_NOISE_SEED)
            if corunner is None:
                params["cores"] = 2
            else:
                params.update(cores=3, corunner=corunner,
                              corunner_runahead="original")
            sweep.add("extract", **params)
    return sweep


def _trace_pressure_label(params) -> str:
    corunner = params.get("corunner")
    if corunner is None:
        return "no co-runner"
    return f"{corunner} (runahead)"


def _render_trace_pressure(result: SweepResult) -> str:
    rows = []
    for record in result.select("extract"):
        res = record["result"]
        rows.append((res["receiver"],
                     _trace_pressure_label(record["params"]),
                     f"{res['success_rate']:.2f}",
                     _recovered_text(res["recovered"]),
                     f"{res['bits_per_kcycle']:.3f}",
                     f"{res['bandwidth_bits_per_s']:,.0f}"))
    table = format_table(
        ["receiver", "co-runner pressure", "success rate", "recovered",
         "bits/kcycle", "bits/s @2GHz"], rows)
    return (f"{table}\n\nall rows cross-core, no measurement noise, "
            f"{CROSS_CORE_TRIALS} trials/byte; co-runners are\n"
            "trace replays on a *runahead* core (the paper's machine), "
            "whose prefetch\ntraffic densifies their cache pressure.\n"
            "the streaming trace sweeps a contiguous low set band the "
            "benign calibration\nrun learns to ignore; the mcf-style "
            "chase's node graph + arc arrays alias the\nset range where "
            "the probe entries live, so calibration ignores the secret's"
            "\nown sets and prime+probe decodes nothing.  reload "
            "channels lose only\nbandwidth: a co-runner in its own "
            "physical window cannot fake a reload hit.")


def _check_trace_pressure(result: SweepResult) -> List[str]:
    table = {(r["result"]["receiver"], r["params"].get("corunner")):
             r["result"] for r in result.select("extract")}
    pp = {corunner: table[("prime-probe", corunner)]["success_rate"]
          for corunner in TRACE_PRESSURE_CORUNNERS}
    fr = {corunner: table[("flush-reload", corunner)]
          for corunner in TRACE_PRESSURE_CORUNNERS}
    return _failed(
        (pp["trace-mcf"] < pp["trace-stream"],
         f"prime-probe success {pp['trace-mcf']:.2f} under trace-mcf, "
         f"want below trace-stream's {pp['trace-stream']:.2f}"),
        (pp["trace-mcf"] == 0.0,
         f"prime-probe success {pp['trace-mcf']:.2f} under trace-mcf, "
         "want 0.0 (the chase defeats calibration)"),
        *((pp[corunner] == 1.0, f"prime-probe success {pp[corunner]:.2f} "
                                f"with co-runner {corunner}, want 1.0")
          for corunner in (None, "trace-stream")),
        *((res["success_rate"] == 1.0,
           f"flush-reload success {res['success_rate']:.2f} with "
           f"co-runner {corunner}, want 1.0")
          for corunner, res in fr.items()),
        (fr["trace-mcf"]["bandwidth_bits_per_s"]
         < fr[None]["bandwidth_bits_per_s"],
         "flush-reload bandwidth under trace-mcf "
         f"{fr['trace-mcf']['bandwidth_bits_per_s']:,.0f} bits/s, want "
         f"below the clean {fr[None]['bandwidth_bits_per_s']:,.0f}"))


# ----------------------------------------------------------------- fig10

def _build_fig10(quick: bool = False) -> Sweep:
    sweep = Sweep("fig10", description="Fig. 10: transient-window scenarios")
    sled = 2048 if quick else 4096
    sweep.add("window", runahead="none", sled=sled)
    sweep.add("window", runahead="original", sled=sled)
    sweep.add("window", runahead="original", async_flushes=1, sled=sled)
    return sweep


def _render_fig10(result: SweepResult) -> str:
    n1 = result.one("window", runahead="none")["result"]
    n2 = result.one("window", runahead="original", async_flushes=None,
                    )["result"]
    n3 = result.one("window", runahead="original",
                    async_flushes=1)["result"]
    rows = [
        ("1 normal: flush once (N1)", n1["window"], n1["pseudo_retired"],
         n1["runahead_episodes"], n1["cycles"], 255),
        ("2 runahead: flush once (N2)", n2["window"], n2["pseudo_retired"],
         n2["runahead_episodes"], n2["cycles"], 480),
        ("3 runahead: flush repeatedly (N3)", n3["window"],
         n3["pseudo_retired"], n3["runahead_episodes"], n3["cycles"], 840),
    ]
    table = format_table(
        ["scenario", "window", "pseudo-retired", "episodes", "cycles",
         "paper"], rows)
    return (f"{table}\n\n"
            f"ratios: N2/N1 = {n2['window'] / n1['window']:.2f} "
            f"(paper 1.88), N3/N2 = {n3['window'] / n2['window']:.2f} "
            f"(paper 1.75)\n"
            "N1 matches the paper exactly (ROB-bound); N2/N3 exceed the "
            "ROB\nwith the paper's ordering.")


def _check_fig10(result: SweepResult) -> List[str]:
    n1 = result.one("window", runahead="none")["result"]["window"]
    n2 = result.one("window", runahead="original",
                    async_flushes=None)["result"]["window"]
    n3 = result.one("window", runahead="original",
                    async_flushes=1)["result"]["window"]
    rob = make_config("paper").rob_size
    return _failed(
        (n1 == rob - 1, f"N1 = {n1}, want ROB-1 = {rob - 1} (paper 255)"),
        (n2 > rob, f"N2 = {n2}, want > ROB = {rob} (paper 480)"),
        (n3 > n2, f"N3 = {n3}, want > N2 = {n2} (paper 840)"))


# ----------------------------------------------------------------- fig11

FIG11_SECRET = 127
FIG11_PADDING = 300


def _build_fig11(quick: bool = False) -> Sweep:
    return Sweep.grid("fig11", "attack",
                      base={"variant": "pht",
                            "secret_value": FIG11_SECRET,
                            "nop_padding": FIG11_PADDING},
                      description="Fig. 11: gadget beyond the ROB",
                      runahead=["none", "original"])


def _render_fig11(result: SweepResult) -> str:
    baseline = result.one("attack", runahead="none")["result"]
    runahead = result.one("attack", runahead="original")["result"]
    base_plot = format_latency_plot(
        baseline["latencies"], height=8,
        title=f"no-runahead machine ({FIG11_PADDING}-nop padded gadget):")
    ra_plot = format_latency_plot(
        runahead["latencies"], height=8,
        title="runahead machine (same gadget):")
    return (f"{base_plot}\n\n{ra_plot}\n\n"
            f"no-runahead: "
            f"{'leak' if baseline['leaked'] else 'NO leak'} | "
            f"runahead: leak at {runahead['recovered']} "
            f"(planted {FIG11_SECRET})\n"
            "(paper: leakage only on the runahead machine, index 127)")


def _check_fig11(result: SweepResult) -> List[str]:
    baseline = result.one("attack", runahead="none")["result"]
    runahead = result.one("attack", runahead="original")["result"]
    return _failed(
        (not baseline["leaked"],
         f"no-runahead machine leaked {baseline['recovered']}, want no "
         "leak (paper: no drop)"),
        (runahead["succeeded"] and runahead["recovered"] == FIG11_SECRET,
         f"runahead machine recovered {runahead['recovered']}, want "
         f"{FIG11_SECRET} (paper {FIG11_SECRET})"))


# ----------------------------------------------------------------- fig12

def _build_fig12(quick: bool = False) -> Sweep:
    sweep = Sweep("fig12", description="Fig. 12: Btag / IS tagging table")
    sweep.add("taint")
    return sweep


def _render_fig12(result: SweepResult) -> str:
    res = result.one("taint")["result"]
    display = []
    for label, want_btag, got_btag, want_is, got_is in res["rows"]:
        if want_btag is not None:
            status = "ok" if label not in res["mismatches"] else "MISMATCH"
            display.append((label, want_btag, got_btag, want_is, got_is,
                            status))
        else:
            display.append((label, "-", "-", "-", "-", ""))
    table = format_table(
        ["instr", "Btag (paper)", "Btag (ours)", "IS (paper)", "IS (ours)",
         ""], display)
    verdict = ("every Btag and IS cell matches Fig. 12."
               if not res["mismatches"]
               else f"MISMATCHES: {res['mismatches']}")
    return f"{table}\n\n{verdict}"


def _check_fig12(result: SweepResult) -> List[str]:
    res = result.one("taint")["result"]
    return _failed(
        (res["rows"], "taint trial produced no rows"),
        (not res["mismatches"],
         f"cells differ from the paper's Fig. 12: {res['mismatches']}"))


# ----------------------------------------------------------------- sec43

def _build_sec43(quick: bool = False) -> Sweep:
    machines = ("original", "precise") if quick else RUNAHEAD_VARIANTS
    return Sweep.grid("sec43", "attack",
                      base={"variant": "pht"},
                      description="§4.3: SPECRUN on runahead variants",
                      runahead=list(machines))


def _render_sec43(result: SweepResult) -> str:
    rows = []
    for record in result.select("attack"):
        res = record["result"]
        extra = ""
        if res["runahead"] == "precise":
            extra = f"filtered={res['stats']['filtered_instructions']}"
        elif res["runahead"] == "vector":
            extra = f"vector-prefetches={res['stats']['vector_prefetches']}"
        rows.append((res["runahead"], res["recovered"],
                     res["stats"]["runahead_episodes"],
                     res["stats"]["runahead_prefetches"], extra))
    table = format_table(
        ["runahead variant", "recovered secret", "episodes", "prefetches",
         "variant-specific"], rows)
    return (f"{table}\n\nall runahead designs leak the planted secret "
            "(paper §4.3).")


def _check_sec43(result: SweepResult) -> List[str]:
    by_machine = {res["runahead"]: res for res in result.results("attack")}
    if "precise" not in by_machine:
        return [f"ran {sorted(by_machine)}, want precise among them"]
    filtered = by_machine["precise"]["stats"]["filtered_instructions"]
    return _failed(
        *((res["succeeded"], f"{name}: recovered {res['recovered']}, want "
                             f"{res['secret']} (paper: every runahead "
                             "design leaks)")
          for name, res in by_machine.items()),
        (filtered > 0, f"precise runahead filtered {filtered} "
                       "instructions, want > 0"))


# ------------------------------------------------------------------ sec6

def _build_sec6(quick: bool = False) -> Sweep:
    variants = ("pht", "rsb-flush") if quick else ATTACK_VARIANTS
    kernels = ("gems",) if quick else SEC6_PERF_KERNELS
    sweep = Sweep("sec6",
                  description="§6: secure runahead — security + overhead")
    for machine in DEFENSE_MACHINES:
        for variant in variants:
            sweep.add("attack", variant=variant, runahead=machine)
    for machine in DEFENSE_MACHINES:
        for kernel in kernels:
            sweep.add("ipc", workload=kernel, baseline="none",
                      contender=machine)
    return sweep


def _render_sec6(result: SweepResult) -> str:
    attacks = result.results("attack")
    variants = list(dict.fromkeys(res["variant"] for res in attacks))
    sec_table = attack_matrix(attacks, rows=variants,
                              cols=list(DEFENSE_MACHINES))
    perf_rows = []
    kernels = list(dict.fromkeys(
        res["workload"] for res in result.results("ipc")))
    for kernel in kernels:
        row: List[str] = [kernel]
        for machine in DEFENSE_MACHINES:
            res = result.one("ipc", workload=kernel,
                             contender=machine)["result"]
            row.append(f"{res['speedup']:.3f}x")
        perf_rows.append(tuple(row))
    perf_table = format_table(
        ["kernel"] + [f"{m} speedup" for m in DEFENSE_MACHINES], perf_rows)
    return (f"security matrix (cell = attack outcome):\n{sec_table}\n\n"
            f"speedup over no-runahead:\n{perf_table}\n\n"
            "both defenses block every variant while retaining a benefit\n"
            "on the streaming kernels (paper §6: overhead may increase).")


def _check_sec6(result: SweepResult) -> List[str]:
    attacks = result.results("attack")
    by_cell = {(res["runahead"], res["variant"]): res for res in attacks}
    variants = sorted({res["variant"] for res in attacks})
    claims = [(attacks, "sweep produced no attack records")]
    for variant in variants:
        original = by_cell[("original", variant)]
        claims.append((original["succeeded"],
                       f"original/{variant}: recovered "
                       f"{original['recovered']}, want the secret to leak"))
        claims += [(not by_cell[(machine, variant)]["leaked"],
                    f"{machine}/{variant}: leaked "
                    f"{by_cell[(machine, variant)]['recovered']}, want no "
                    "leak (paper: the defense blocks every variant)")
                   for machine in ("secure", "branch-skip")]
    for machine in DEFENSE_MACHINES:
        gems = result.one("ipc", workload="gems",
                          contender=machine)["result"]["speedup"]
        claims.append((gems > 1.0, f"{machine} gems speedup {gems:.3f}x, "
                                   "want > 1.0"))
    return _failed(*claims)


# -------------------------------------------------------------- ablations

ABLATION_ROBS = (64, 128, 256, 512)
ABLATION_ROBS_QUICK = (64, 256)
ABLATION_LATENCIES = (100, 200, 400)
ABLATION_LATENCIES_QUICK = (100, 400)
ABLATION_PREDICTORS = ("bimodal", "gshare", "twolevel")
ABLATION_PREDICTORS_QUICK = ("bimodal", "twolevel")
ABLATION_SL_CAPS = (4, 16, 64)
ABLATION_SL_CAPS_QUICK = (4, 64)


def _build_ablations(quick: bool = False) -> Sweep:
    robs = ABLATION_ROBS_QUICK if quick else ABLATION_ROBS
    lats = ABLATION_LATENCIES_QUICK if quick else ABLATION_LATENCIES
    preds = ABLATION_PREDICTORS_QUICK if quick else ABLATION_PREDICTORS
    caps = ABLATION_SL_CAPS_QUICK if quick else ABLATION_SL_CAPS
    sweep = Sweep("ablations",
                  description="design-parameter sweeps (DESIGN.md)")
    for rob in robs:
        sweep.add("window", runahead="none", sled=1024,
                  config={"rob_size": rob})
    for latency in lats:
        sweep.add("window", runahead="original", sled=8192,
                  config={"mem_latency": latency})
    for predictor in preds:
        sweep.add("attack", variant="pht", runahead="original",
                  config={"predictor": predictor})
    for capacity in caps:
        sweep.add("attack", variant="pht", runahead="secure",
                  runahead_kwargs={"sl_capacity": capacity})
    return sweep


def _render_ablations(result: SweepResult) -> str:
    rob_rows = [(r["params"]["config"]["rob_size"], r["result"]["window"])
                for r in result.select("window", runahead="none")]
    lat_rows = [(r["params"]["config"]["mem_latency"],
                 r["result"]["window"])
                for r in result.select("window", runahead="original")]
    pred_rows = [(r["params"]["config"]["predictor"],
                  r["result"]["recovered"] if r["result"]["leaked"]
                  else "no leak")
                 for r in result.select("attack", runahead="original")
                 if r["params"].get("config")]
    sl_rows = [(r["params"]["runahead_kwargs"]["sl_capacity"],
                "yes" if r["result"]["leaked"] else "no")
               for r in result.select("attack", runahead="secure")]
    text = [
        "ROB sweep (no runahead) — transient window == ROB-1:",
        format_table(["ROB", "window"], rob_rows),
        "",
        "memory-latency sweep (runahead) — window grows with stall "
        "length:",
        format_table(["mem latency", "window"], lat_rows),
        "",
        "direction-predictor sweep — recovered secret per predictor:",
        format_table(["predictor", "recovered"], pred_rows),
        "",
        "SL-cache capacity sweep (secure runahead) — leak blocked at "
        "every size:",
        format_table(["capacity (lines)", "leaked"], sl_rows),
    ]
    return "\n".join(text)


def _check_ablations(result: SweepResult) -> List[str]:
    robs = result.select("window", runahead="none")
    latency_windows = [r["result"]["window"] for r in sorted(
        result.select("window", runahead="original"),
        key=lambda r: r["params"]["config"]["mem_latency"])]
    secure = result.select("attack", runahead="secure")
    return _failed(
        (robs, "no ROB-sweep rows"),
        *((r["result"]["window"] == r["params"]["config"]["rob_size"] - 1,
           f"ROB {r['params']['config']['rob_size']}: window "
           f"{r['result']['window']}, want ROB-1")
          for r in robs),
        (latency_windows == sorted(latency_windows)
         and latency_windows[0] < latency_windows[-1],
         f"windows {latency_windows} by ascending memory latency, want "
         "them to grow"),
        # gshare may need path-exact training: reported, not required.
        *((r["result"]["recovered"] == 86,
           f"predictor {r['params']['config']['predictor']}: recovered "
           f"{r['result']['recovered']}, want 86")
          for r in result.select("attack", runahead="original")
          if r["params"]["config"]["predictor"] != "gshare"),
        (secure, "no SL-capacity rows"),
        *((not r["result"]["leaked"],
           f"SL capacity {r['params']['runahead_kwargs']['sl_capacity']} "
           "leaked, want no leak")
          for r in secure))


# ----------------------------------------------------- verify_cross_check

VERIFY_DEFENSES_QUICK = ("original", "branch-skip")
VERIFY_GEN_FAMILIES = ("spec", "stale", "straight")
VERIFY_GEN_SEEDS = 200
VERIFY_GEN_SEEDS_QUICK = 12


def _build_verify_cross_check(quick: bool = False) -> Sweep:
    from ..verify.crosscheck import DEFAULT_DEFENSES
    from ..verify.targets import target_names
    defenses = VERIFY_DEFENSES_QUICK if quick else DEFAULT_DEFENSES
    n_seeds = VERIFY_GEN_SEEDS_QUICK if quick else VERIFY_GEN_SEEDS
    sweep = Sweep("verify_cross_check",
                  description="differential gate: static checker verdicts "
                              "vs simulator ground truth")
    for name in target_names():
        for defense in defenses:
            sweep.add("verify", target=name, defense=defense,
                      cross_check=True)
    # Seeded random gadgets: families cycle so any seed count covers all
    # three.  Seeds are plain 0..N-1 — the generator is deterministic,
    # so the sweep stays byte-identical at any worker count.
    for seed in range(n_seeds):
        family = VERIFY_GEN_FAMILIES[seed % len(VERIFY_GEN_FAMILIES)]
        for defense in defenses:
            sweep.add("verify", target=f"gen:{family}:{seed}",
                      defense=defense, cross_check=True)
    return sweep


def _render_verify_cross_check(result: SweepResult) -> str:
    records = result.select("verify")
    named, gen = [], []
    for record in records:
        (gen if record["result"]["target"].startswith("gen:")
         else named).append(record["result"])
    rows = []
    for res in named:
        windows = ",".join(sorted({r["window"] for r in res["reports"]}))
        verdict = f"flag({windows})" if not res["clean"] else "clean"
        cell = res["cross_check"]
        rows.append((res["target"], res["defense"], verdict,
                     "leak" if cell["leaked"] else "quiet",
                     cell["oracle"], "ok" if res["ok"] else "DISAGREE"))
    table = format_table(
        ["target", "defense", "checker", "simulator", "oracle", "cell"],
        rows)
    fam_rows = []
    for family in VERIFY_GEN_FAMILIES:
        cells = [res for res in gen
                 if res["target"].split(":")[1] == family]
        programs = len({res["target"] for res in cells})
        flagged = sum(1 for res in cells if not res["clean"])
        agreed = sum(1 for res in cells if res["ok"])
        fam_rows.append((family, programs, len(cells), flagged,
                         f"{agreed}/{len(cells)}"))
    gen_table = format_table(
        ["family", "programs", "cells", "flagged", "agreed"], fam_rows)
    disagreements = [line for res in named + gen
                     for line in res.get("disagreements", [])]
    n_cells = len(named) + len(gen)
    verdict = (f"CROSS-CHECK OK: {n_cells} cells, checker and simulator "
               "agree everywhere." if not disagreements else
               f"CROSS-CHECK FAILED: {len(disagreements)} disagreement(s)"
               ":\n" + "\n".join(f"  - {d}" for d in disagreements))
    return (f"registered attack workloads:\n{table}\n\n"
            f"seeded random gadgets:\n{gen_table}\n\n"
            "contract: flagged under 'original' => the simulator extracts "
            "the secret;\nclean under a defense => that controller "
            f"extracts nothing.\n\n{verdict}")


def _check_verify_cross_check(result: SweepResult) -> List[str]:
    return [f"checker and simulator disagree: {line}"
            for res in result.results("verify")
            for line in res.get("disagreements", [])]


PRESETS: Dict[str, Preset] = {
    p.name: p for p in [
        Preset("table1", "Table 1: processor configuration",
               _build_table1, _render_table1, _check_table1),
        Preset("fig4", "Fig. 4: SPECRUN across Spectre variants",
               _build_fig4, _render_fig4, _check_fig4),
        Preset("fig7", "Fig. 7: normalized IPC with/without runahead",
               _build_fig7, _render_fig7, _check_fig7),
        Preset("fig9", "Fig. 9: PoC probe-latency dip",
               _build_fig9, _render_fig9, _check_fig9),
        Preset("fig9_noise_sweep",
               "noisy-channel success rate vs measurement trials",
               _build_fig9_noise, _render_fig9_noise, _check_fig9_noise),
        Preset("channel_bandwidth",
               "covert-channel bandwidth per receiver strategy",
               _build_channel_bandwidth, _render_channel_bandwidth,
               _check_channel_bandwidth),
        Preset("fig10_cross_core",
               "cross-core covert channel vs the runahead defenses",
               _build_fig10_cross_core, _render_fig10_cross_core,
               _check_fig10_cross_core),
        Preset("cross_core_bandwidth",
               "channel capacity: same-core vs cross-core",
               _build_cross_core_bandwidth, _render_cross_core_bandwidth,
               _check_cross_core_bandwidth),
        Preset("smt_corunner_sweep",
               "co-runner interference: overlay vs real streams",
               _build_smt_corunner, _render_smt_corunner, _check_smt_corunner),
        Preset("fig7_traces",
               "Fig. 7 under trace-driven workloads",
               _build_fig7_traces, _render_fig7_traces, _check_fig7_traces),
        Preset("trace_pressure_sweep",
               "extraction success under trace-driven co-runner pressure",
               _build_trace_pressure, _render_trace_pressure,
               _check_trace_pressure),
        Preset("fig10", "Fig. 10: transient-window scenarios",
               _build_fig10, _render_fig10, _check_fig10),
        Preset("fig11", "Fig. 11: leaking beyond the ROB",
               _build_fig11, _render_fig11, _check_fig11),
        Preset("fig12", "Fig. 12: Btag / IS tagging table",
               _build_fig12, _render_fig12, _check_fig12),
        Preset("sec43", "§4.3: SPECRUN on runahead variants",
               _build_sec43, _render_sec43, _check_sec43),
        Preset("sec6", "§6: secure-runahead defense matrix",
               _build_sec6, _render_sec6, _check_sec6),
        Preset("ablations", "design-parameter ablation sweeps",
               _build_ablations, _render_ablations, _check_ablations),
        Preset("verify_cross_check",
               "differential gate: leak checker vs cycle simulator",
               _build_verify_cross_check, _render_verify_cross_check,
               _check_verify_cross_check),
    ]
}


def get(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; "
                       f"known: {sorted(PRESETS)}") from None
