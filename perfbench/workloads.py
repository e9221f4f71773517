"""Seeded inputs and output oracles for the four benchmark workloads.

Every input is a pure function of ``(workload, seed, scale)``:
secrets, noise seeds, ``gen:`` program seeds, config points and the
campaign pre-warm set all come from a :class:`random.Random` seeded
with those values, so one seed always gives the same trials.  The
program under test only ever receives the generated
:class:`~repro.harness.spec.Trial` lists.

A *pass* is the workload's list of distinct trials.  The structure of
the list (which trial classes, in which proportions) is the same for
every seed; the seed only moves values whose host cost is about the
same, so a metric does not depend on which seed a run was given.

Oracles return a list of problem strings; an empty list means every
output checked holds.  They hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Dict, List, Sequence, Tuple

from repro.harness.spec import Sweep, Trial, canonical_json

#: The six Fig. 7 kernels and the four synthetic trace-replay kernels.
SIM_KERNELS = ("zeusmp", "wrf", "bwaves", "lbm", "mcf", "gems",
               "trace-mcf", "trace-stream", "trace-gcc", "trace-zipf")
SIM_CONTENDERS = ("original", "precise", "vector", "secure")
#: One Fig. 7 kernel and one trace kernel meet two contenders.
SIM_REPEATED_KERNELS = ("lbm", "trace-gcc")
#: Cycle ceiling given to every ipc trial; the longest kernel needs
#: under 70k cycles, so reaching it means a core failed to halt.
SIM_MAX_CYCLES = 2_000_000

VARIANTS = ("pht", "btb", "rsb-overwrite", "rsb-flush")
RECEIVERS = ("flush-reload", "evict-reload", "prime-probe")
#: Fig. 11: nop padding that puts the gadget beyond a 256-entry ROB.
FIG11_PADDING = 300
CHANNEL_NOISE = {"jitter": 12, "evict_rate": 0.01, "pollute_rate": 0.01}
CHANNEL_TRIALS = 9
SECRET_BYTES = 3
#: Secret bytes are printable ASCII; none of them is a probe index the
#: gadgets reserve (the training index 1 or the training-warmed 8).
SECRET_ALPHABET = tuple(range(33, 127))

VERIFY_DEFENSES = ("original", "no-runahead", "secure", "branch-skip")
#: Named (target, defense) cells: the paper's static story (pht leaks
#: under runahead; the runahead-only stale-store leak passes branch-skip
#: and secure stops it) plus btb and both rsb shapes.  All 32 named
#: cells cost ~22 s, too long for a pass; tier-1 pins them all.  The
#: four slowest cells give the pass a tail that does not move with the
#: seed.
NAMED_CELLS = (("pht", "original"), ("btb", "branch-skip"),
               ("rsb-overwrite", "secure"), ("rsb-flush", "original"),
               ("stale-store", "branch-skip"), ("stale-store", "secure"))
GEN_FAMILIES = ("spec", "stale", "straight")
#: A spec program's cost depends mostly on its drawn nop padding (0, 40
#: or 300); the pass takes one whose padding is 40, the class whose
#: cost varies least with the seed.
SPEC_NOTE = "padding=40 "
GOLDEN_REPORTS = pathlib.Path("tests/verify/golden_reports.json")

WINDOW_CONTROLLERS = ("none", "original", "secure", "precise")
ATTACK_CONTROLLERS = ("original", "secure", "none")
CAMPAIGN_WORKERS = 2
PREWARM_EVERY = 3


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _scaled(items: Sequence, scale: float) -> List:
    """The first ``scale`` share of a pass (at least one trial)."""
    return list(items[:max(1, round(len(items) * scale))])


def _secret(rng: random.Random) -> List[int]:
    return rng.sample(SECRET_ALPHABET, SECRET_BYTES)


def _twin_secret(rng: random.Random, secret: List[int]) -> List[int]:
    """A secret that differs from ``secret`` at every byte."""
    return [rng.choice([b for b in SECRET_ALPHABET if b != value])
            for value in secret]


def digest(texts: Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def records_digest(records: Sequence[dict]) -> str:
    return digest([canonical_json(r) for r in records])


# ---------------------------------------------------------------- sim-sweep

def sim_sweep_pass(seed: int, scale: float) -> Sweep:
    """Every kernel once against one contender and ``none``, plus two
    kernels run again with the next contender at the same point, as the
    contenders of one Fig. 7 column are (their ``none`` baseline core
    runs repeat)."""
    points = _rng("sim-sweep", seed)
    sweep = Sweep("sim-sweep")
    for k, kernel in enumerate(SIM_KERNELS):
        # Narrow ranges (192-224 cycles) keep every seed at about the
        # same host cost.
        config = {"mem_latency": 192 + 4 * ((3 * k + seed) % 9),
                  "rob_size": points.choice((224, 256))}
        contenders = [SIM_CONTENDERS[k % len(SIM_CONTENDERS)]]
        if kernel in SIM_REPEATED_KERNELS:
            contenders.append(SIM_CONTENDERS[(k + 1) % len(SIM_CONTENDERS)])
        for contender in contenders:
            sweep.trials.append(Trial("ipc", {
                "workload": kernel, "baseline": "none",
                "contender": contender, "config": config,
                "max_cycles": SIM_MAX_CYCLES}))
    sweep.trials = _scaled(sweep.trials, scale)
    return sweep


def check_sim_sweep(records: Sequence[dict]) -> List[str]:
    problems = []
    for record in records:
        result = record["result"]
        for side in ("stats_base", "stats_contender"):
            stats = result[side]
            if not 0 < stats["cycles"] < SIM_MAX_CYCLES \
                    or stats["committed"] <= 0:
                problems.append(f"{record['label']}: {side} ran "
                                f"{stats['cycles']} cycles, committed "
                                f"{stats['committed']}")
    return problems


def repeated_baseline_share(sweeps: Sequence[Sweep]) -> float:
    """Share of ipc baseline core runs that repeat an earlier one."""
    seen, repeats, total = set(), 0, 0
    for sweep in sweeps:
        for trial in sweep.trials:
            if trial.kind != "ipc":
                continue
            key = canonical_json([trial.params["workload"],
                                  trial.params["baseline"],
                                  trial.params.get("config")])
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / total if total else 0.0


# ------------------------------------------------------------- leak-extract

def leak_extract_pass(seed: int, scale: float) -> Sweep:
    """Extraction rows covering the paper's claim table.

    ``original`` rows (every variant, inside and beyond the ROB,
    cross-core) and ``none`` rows inside the ROB must recover the
    secret.  ``none`` beyond the ROB and the ``secure``/``branch-skip``
    rows come as twins: identical rows whose secrets differ at every
    byte, which must decode identically.  Receivers rotate by row, so
    each receiver measures five rows; secrets and noise seeds come from
    the seed.
    """
    rng = _rng("leak-extract", seed)
    rows: List[List[dict]] = []   # each inner list: one row or one twin pair

    def row(runahead, variant="pht", padding=0, cores=1, twin=False):
        params = {"secret": _secret(rng), "variant": variant,
                  "receiver": RECEIVERS[len(rows) % len(RECEIVERS)],
                  "noise": dict(CHANNEL_NOISE), "trials": CHANNEL_TRIALS,
                  "runahead": runahead, "seed": rng.randrange(1 << 30)}
        if padding:
            params["nop_padding"] = padding
        if cores > 1:
            params["cores"] = cores
        group = [params]
        if twin:
            group.append(dict(params,
                              secret=_twin_secret(rng, params["secret"])))
        rows.append(group)

    for variant in VARIANTS:
        row("original", variant)
    row("original", padding=FIG11_PADDING)
    row("original", padding=FIG11_PADDING, cores=2)
    row("none")
    row("none", "btb")
    row("none", cores=2)
    row("none", padding=FIG11_PADDING, twin=True)
    row("secure", padding=FIG11_PADDING, twin=True)
    row("branch-skip", twin=True)
    rows = _scaled(rows, scale)
    sweep = Sweep("leak-extract")
    sweep.trials = [Trial("extract", params)
                    for group in rows for params in group]
    return sweep


def _must_recover(params: dict) -> bool:
    if params["runahead"] == "original":
        return True
    return params["runahead"] == "none" and not params.get("nop_padding")


def check_leak_extract(records: Sequence[dict]) -> Tuple[List[str], int]:
    """Claim-table oracle; returns (problems, twin mismatches)."""
    problems, twins = [], {}
    for record in records:
        params, result = record["params"], record["result"]
        if _must_recover(params):
            if result["recovered"] != result["secret"]:
                problems.append(f"{record['label']}: recovered "
                                f"{result['recovered']} of secret "
                                f"{result['secret']}")
        else:
            key = canonical_json({k: v for k, v in params.items()
                                  if k != "secret"})
            twins.setdefault(key, []).append(record)
    mismatches = 0
    for pair in twins.values():
        if len(pair) != 2:
            problems.append(f"{pair[0]['label']}: defended row without "
                            f"its twin")
            continue
        first, second = (r["result"] for r in pair)
        if first["recovered"] != second["recovered"]:
            mismatches += 1
            problems.append(
                f"{pair[0]['label']}: twins decode differently "
                f"({first['recovered']} for {first['secret']}, "
                f"{second['recovered']} for {second['secret']})")
    return problems, mismatches


# ------------------------------------------------------------ verify-xcheck

def verify_xcheck_pass(seed: int, scale: float) -> Sweep:
    """The named cells plus one ``gen:`` program per family under all
    four defenses, every trial with ``cross_check`` on."""
    from repro.verify.gen import generate_case

    rng = _rng("verify-xcheck", seed)
    sweep = Sweep("verify-xcheck")
    for target, defense in NAMED_CELLS:
        sweep.trials.append(Trial("verify", {
            "target": target, "defense": defense, "cross_check": True}))
    for family in GEN_FAMILIES:
        for _ in range(1000):
            gen_seed = rng.randrange(1_000_000)
            if family != "spec" or SPEC_NOTE in \
                    generate_case(gen_seed, family).notes + " ":
                break
        else:
            raise RuntimeError("no spec program with padding 40 drawn")
        for defense in VERIFY_DEFENSES:
            sweep.trials.append(Trial("verify", {
                "target": f"gen:{family}:{gen_seed}", "defense": defense,
                "cross_check": True}))
    sweep.trials = _scaled(sweep.trials, scale)
    return sweep


def load_golden() -> Dict[str, dict]:
    with open(GOLDEN_REPORTS, encoding="utf-8") as handle:
        return json.load(handle)


def check_verify_xcheck(records: Sequence[dict],
                        golden: Dict[str, dict]) -> List[str]:
    problems = []
    for record in records:
        result = record["result"]
        if not result["ok"] or result["disagreements"]:
            problems.append(f"{record['label']}: disagreements "
                            f"{result['disagreements']}")
        want = golden.get(f"{result['target']}/{result['defense']}")
        if want is not None:
            fresh = json.loads(canonical_json(
                {k: result.get(k) for k in want}))
            if fresh != want:
                problems.append(f"{record['label']}: checker verdict "
                                f"differs from golden_reports.json")
    return problems


# ----------------------------------------------------------- campaign-mixed

def campaign_sweeps(seed: int, scale: float) -> Tuple[List[Sweep],
                                                       List[Trial]]:
    """Three sweeps of short distinct trials and the pre-warm subset.

    ``windows-b`` repeats one ``windows-a`` trial (cross-sweep repeats
    occur at about that rate across the presets); otherwise the two
    window sweeps draw sleds from disjoint grids.  Window sleds are
    stratified (window ``i`` draws from ``[1024 + 192i, 1216 + 192i)``,
    long enough that coordinator latency is a small part of a trial) and
    every attack is a ``pht`` gadget, so the seed moves values, not the
    cost of a pass.  Every third trial of each sweep, from a seeded
    phase, is pre-warmed into the cache during set-up.
    """
    rng = _rng("campaign-mixed", seed)

    def window(i, shift=0):
        runahead = WINDOW_CONTROLLERS[i % len(WINDOW_CONTROLLERS)]
        params = {"runahead": runahead,
                  "sled": 1024 + 192 * i + shift + rng.randrange(0, 176, 32),
                  "config": {"mem_latency": rng.randrange(192, 225, 4)}}
        if runahead == "original" and i % 8 == 1:
            params["async_flushes"] = 1
        return Trial("window", params)

    def attack(i):
        return Trial("attack", {
            "variant": "pht",
            "runahead": ATTACK_CONTROLLERS[i % len(ATTACK_CONTROLLERS)],
            "secret_value": rng.choice(SECRET_ALPHABET)})

    n_windows = max(2, round(16 * scale))
    windows_a = Sweep("windows-a", [window(i) for i in range(n_windows)])
    attacks = Sweep("attacks",
                    [attack(i) for i in range(max(1, round(6 * scale)))])
    windows_b = Sweep("windows-b",
                      [window(i, shift=16) for i in range(n_windows - 1)])
    windows_b.trials.insert(rng.randrange(len(windows_b.trials) + 1),
                            Trial.from_dict(
                                rng.choice(windows_a.trials).to_dict()))
    sweeps = [windows_a, attacks, windows_b]
    prewarm = []
    for sweep in sweeps:
        phase = rng.randrange(PREWARM_EVERY)
        prewarm += sweep.trials[phase::PREWARM_EVERY]
    return sweeps, prewarm


def cross_sweep_repeat_share(sweeps: Sequence[Sweep]) -> float:
    seen, repeats, total = set(), 0, 0
    for sweep in sweeps:
        hashes = {t.spec_hash() for t in sweep.trials}
        repeats += len(hashes & seen)
        total += len(sweep.trials)
        seen |= hashes
    return repeats / total if total else 0.0
