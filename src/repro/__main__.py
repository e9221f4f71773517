"""``python -m repro`` — run paper experiments from the command line.

Subcommands
-----------
``repro sweep <preset>``
    Build a paper-figure sweep, execute it (sharded, cached), print the
    rendered report and check the preset's paper claims: exit status 1
    if any claim fails.  ``--quick`` runs the reduced CI grid, ``--out``
    writes the canonical JSON, ``--list`` enumerates presets.
``repro run <kind> [key=value ...]``
    Execute one ad-hoc trial (``attack``, ``ipc``, ``window``, ``run``,
    ``taint``, ``extract``, ``verify``) and print its result record as
    JSON.
``repro verify <target>``
    Static speculative-leak check of a gadget program
    (:mod:`repro.verify`): explore its speculation and runahead windows
    under a defense model (``--defense``) and report every
    secret-tainted load address.  ``--windows`` narrows the exploration,
    ``--spec-depth``/``--runahead-len`` bound the windows,
    ``--cross-check`` also runs the target on the cycle simulator and
    holds the differential contract, ``--list`` enumerates registered
    targets (``gen:<family>:<seed>`` names are generated on the fly).
    Exit status: 0 clean, 1 leak reports, 2 cross-check disagreement.
``repro attack``
    End-to-end covert-channel secret extraction: pick a receiver
    strategy, noise intensity and trial count, and read a multi-byte
    secret out of the simulated machine (``--secret``, ``--receiver``,
    ``--trials``, ``--jitter``/``--evict-rate``/``--pollute-rate``).
    ``--cores N`` moves the receiver to another core of a shared-L3
    multi-core topology; ``--corunner <workload>`` (with ``--cores 3``
    or ``--smt``) runs a real interfering instruction stream.
``repro campaign run|resume|status|serve``
    Journaled, resumable campaigns (:mod:`repro.campaign`):
    ``run <preset...>`` lays down a self-contained campaign directory
    (manifest + write-ahead journal + its own result store) and
    leases every trial to local worker processes with bounded
    retries and optional per-trial ``--timeout``; ``resume <dir>``
    completes an interrupted campaign — skipping everything already
    cached — with final results byte-identical to an uninterrupted
    run; ``status <dir>`` reports live progress (trials done/cached/
    retried, cache hit rate, trials/s, ETA, hosts/leases) from the
    journal only; ``serve <dir>`` exposes the same read-only view
    over HTTP.
``repro report <file.json | preset>``
    Render a previously saved sweep result, or re-render a preset from
    the cache without recomputing anything that is already stored;
    claims are checked as for ``sweep``.
``repro cache [--clear]``
    Show (or empty) the on-disk result cache.

Examples::

    python -m repro sweep fig7 --workers 4
    python -m repro run attack variant=pht runahead=original
    python -m repro run window runahead=original config.rob_size=64
    python -m repro report fig7
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from .harness.spec import Sweep, Trial, TrialError


def _parse_value(text: str) -> Any:
    """Best-effort literal parsing: int, float, bool, null, else str."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_assignments(pairs: List[str]) -> Dict[str, Any]:
    """Turn ``a=1 config.rob_size=64`` into a nested params dict."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        target = params
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise SystemExit(f"cannot nest under scalar key {part!r}")
        target[parts[-1]] = _parse_value(raw)
    return params


def _cache_arg(args) -> Any:
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return "auto"


def _run_cached(args, trial: Trial) -> Tuple[Dict[str, Any], bool]:
    """Run ``trial`` as a one-trial sweep, so it is served from and
    written to the result cache exactly as sweep trials are.  Returns
    ``(result, cached)``."""
    from .harness.executor import SerialExecutor

    result = SerialExecutor().execute(Sweep(trial.kind, [trial]),
                                      cache=_cache_arg(args),
                                      force=args.force)
    return result.records[0]["result"], result.cached[0]


def _cmd_sweep(args) -> int:
    from .harness import presets
    from .harness.executor import run_sweep

    if args.list or not args.preset:
        for name in sorted(presets.PRESETS):
            preset = presets.PRESETS[name]
            print(f"{name:10s} {preset.title}")
        return 0
    preset = presets.get(args.preset)
    sweep = preset.build(quick=args.quick)
    progress = None if args.json else (lambda line: print(line,
                                                          file=sys.stderr))
    result = run_sweep(sweep, workers=args.workers, cache=_cache_arg(args),
                       force=args.force, progress=progress)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"wrote {args.out}", file=sys.stderr)
    status = _render_and_check(preset, result, args.json)
    if not args.json:
        print()
        print(result.describe())
    return status


def _render_and_check(preset, result, as_json: bool) -> int:
    """Print ``result`` (the preset's report, or the canonical JSON with
    ``as_json``), then the preset's claims: ``claims: all hold`` or each
    failing one, on stderr under ``as_json``.  Returns 1 if any claim
    fails, else 0."""
    if as_json:
        print(result.to_json())
    else:
        print(f"== {preset.title} ==")
        print(preset.render(result))
    out = sys.stderr if as_json else sys.stdout
    problems = preset.check(result)
    for problem in problems:
        print(f"claim failed: {preset.name}: {problem}", file=out)
    if not problems:
        print("claims: all hold", file=out)
    return 1 if problems else 0


def _cmd_run(args) -> int:
    params = _parse_assignments(args.params)
    trial = Trial(kind=args.kind, params=params)
    result, cached = _run_cached(args, trial)
    record = {"trial": trial.to_dict(), "cached": cached, "result": result}
    print(json.dumps(record, sort_keys=True, indent=2))
    return 0


def _cmd_attack(args) -> int:
    from .analysis.report import format_table

    noise = {"jitter": args.jitter, "evict_rate": args.evict_rate,
             "pollute_rate": args.pollute_rate}
    if args.no_noise or not any(noise.values()):
        noise = None
    params: Dict[str, Any] = {
        "variant": args.variant,
        "receiver": args.receiver,
        "secret": args.secret,
        "trials": args.trials,
        "runahead": args.runahead,
        "seed": args.seed,
    }
    if noise:
        params["noise"] = noise
    # Topology keys enter the trial spec only when non-default, so
    # single-core invocations keep their historical cache identity.
    topology: Dict[str, Any] = {}
    if args.cores != 1:
        topology["cores"] = args.cores
    if args.corunner:
        topology["corunner"] = args.corunner
    if args.smt:
        topology["smt"] = True
    if args.corunner_runahead != "none":
        topology["corunner_runahead"] = args.corunner_runahead
    if topology:
        from .multicore.scenario import Topology
        try:
            Topology.from_params(dict(topology, cores=args.cores))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        params.update(topology)
    trial = Trial(kind="extract", params=params)
    result, cached = _run_cached(args, trial)
    if args.json:
        print(json.dumps({"trial": trial.to_dict(), "cached": cached,
                          "result": result}, sort_keys=True, indent=2))
    else:
        from .channel.extract import render_byte_text
        recovered = render_byte_text(result["recovered"])
        rows = []
        for i, planted in enumerate(result["secret"]):
            got = result["recovered"][i]
            rows.append((
                i, planted, "-" if got is None else got,
                "ok" if got == planted else "MISS",
                f"{result['confidences'][i]:.2f}",
                result["trials_to_recover"][i] or "-"))
        print(f"== covert-channel extraction "
              f"[{args.variant} / {args.receiver}] ==")
        print(format_table(
            ["byte", "planted", "recovered", "", "confidence",
             "trials-to-recover"], rows))
        print()
        if result.get("topology"):
            topo = result["topology"]
            placement = f"{topo['cores']} core(s)"
            if topo.get("corunner"):
                placement += (f", {'SMT' if topo.get('smt') else 'cross-core'}"
                              f" co-runner: {topo['corunner']}")
            print(f"topology       : {placement}")
        print(f"recovered      : {recovered!r}")
        print(f"success rate   : {result['success_rate']:.2f} "
              f"({result['bits_recovered']}/{result['bits_attempted']} "
              f"bits)")
        print(f"noise          : {noise or 'none'} | trials: "
              f"{args.trials} | seed: {args.seed}")
        print(f"cycles         : {result['total_cycles']:,} "
              f"(calibration: {result['calibration_cycles']:,})")
        print(f"bandwidth      : {result['bits_per_kcycle']:.3f} "
              f"bits/kcycle = {result['bandwidth_bits_per_s']:,.0f} "
              f"bits/s @ {result['clock_hz'] / 1e9:.1f} GHz"
              + (" [cached]" if cached else ""))
    if result["success_rate"] < args.min_success:
        print(f"error: success rate {result['success_rate']:.2f} below "
              f"--min-success {args.min_success}", file=sys.stderr)
        return 1
    return 0


def _verify_defense(name: str) -> str:
    """``--defense`` type: a defense model the checker knows."""
    from .verify.engine import DEFENSES

    if name not in DEFENSES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from "
            f"{', '.join(map(repr, DEFENSES))})")
    return name


def _cmd_verify(args) -> int:
    from .analysis.report import format_table
    from .harness.runner import resolve_verify_target

    if args.list or not args.target:
        from .verify.targets import target_names
        rows = []
        for name in target_names():
            case = resolve_verify_target(name)
            rows.append((name, "leaks" if case.expect_leak else "safe",
                         case.notes))
        print(format_table(["target", "expected", "notes"], rows))
        print("\ngenerated gadgets: gen:<family>:<seed> "
              "(families: spec, stale, straight)")
        return 0

    params: Dict[str, Any] = {"target": args.target,
                              "defense": args.defense}
    if args.windows != "both":
        params["windows"] = [args.windows]
    if args.spec_depth is not None:
        params["spec_depth"] = args.spec_depth
    if args.runahead_len is not None:
        params["runahead_len"] = args.runahead_len
    if args.cross_check:
        params["cross_check"] = True
    trial = Trial(kind="verify", params=params)
    result, cached = _run_cached(args, trial)

    disagreement = args.cross_check and not result["ok"]
    if args.json:
        print(json.dumps({"trial": trial.to_dict(), "cached": cached,
                          "result": result}, sort_keys=True, indent=2))
    else:
        print(f"== speculative-leak verifier "
              f"[{result['target']} / {result['defense']}] ==")
        print(f"windows       : {', '.join(result['windows'])}")
        print(f"exploration   : {result['arch_steps']} arch steps, "
              f"{result['window_steps']} window steps, "
              f"{result['spec_forks']} spec + "
              f"{result['runahead_forks']} runahead forks"
              + (" [cached]" if cached else ""))
        if result["suppressed"]:
            print(f"suppressed    : {result['suppressed']} report(s) "
                  f"killed by the defense model")
        for report in result["reports"]:
            print(f"\nLEAK  pc={report['pc']}  "
                  f"window={report['window']}  "
                  f"taint={','.join(report['taint'])}")
            print(f"      entered via fork at pc={report['fork_pc']} "
                  f"(+{report['depth']} instructions)")
            print(f"      taint chain: "
                  f"{' -> '.join(str(pc) for pc in report['chain'])}")
        print()
        if result["clean"]:
            print("verdict       : clean — no secret-tainted load "
                  "address in any explored window")
        else:
            print(f"verdict       : {result['n_reports']} leak "
                  f"report(s)")
        if args.cross_check:
            cell = result["cross_check"]
            print(f"cross-check   : simulator "
                  f"{'extracted the secret' if cell['leaked'] else 'extracted nothing'} "
                  f"({cell['oracle']} oracle: {cell['detail']})")
            print("agreement     : "
                  + ("checker and simulator agree" if result["ok"] else
                     "DISAGREEMENT:\n" + "\n".join(
                         f"  - {d}" for d in result["disagreements"])))
    if disagreement:
        return 2
    return 0 if result["clean"] else 1


def _cmd_obs_record(args) -> int:
    from .harness.registry import get_workload, make_controller
    from .obs.sink import FileSink

    workload = get_workload(args.workload)
    controller = make_controller(args.runahead) if args.runahead else None
    out = args.out or f"{args.workload}.evt"
    with FileSink(out) as sink:
        core = workload.run(runahead=controller, trace=sink,
                            max_cycles=args.max_cycles)
    stats = core.stats
    print(f"{args.workload}: {stats.cycles} cycles, "
          f"{stats.committed} committed, IPC {stats.ipc:.3f}")
    print(f"wrote {out}  ({sink.count} events; "
          f"view with: repro obs view {out})")
    return 0


def _cmd_obs_view(args) -> int:
    from .obs.events import load_events
    from .obs.view import render_html, render_text, summarize_events

    events = load_events(args.trace)
    summary = summarize_events(events, bins=args.bins)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(summary, title=args.trace))
        print(f"wrote {args.html}", file=sys.stderr)
    print(render_text(summary))
    return 0


def _cmd_obs_help(args) -> int:
    args.obs_parser.print_help()
    return 2


def _cmd_report(args) -> int:
    from .harness import presets
    from .harness.executor import SerialExecutor, SweepResult

    source = args.source
    if source.endswith(".json"):
        with open(source, encoding="utf-8") as handle:
            result = SweepResult.from_json(handle.read())
        name = result.name
    else:
        preset = presets.get(source)
        result = SerialExecutor().execute(preset.build(quick=args.quick),
                                          cache=_cache_arg(args))
        name = source
    return _render_and_check(presets.get(name), result, False)


def _cmd_cache(args) -> int:
    from .harness.cache import CacheBackend

    cache = CacheBackend(root=args.cache_dir) if args.cache_dir \
        else CacheBackend()
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached records from {cache.root}")
        return 0
    print(f"cache root   : {cache.root}")
    print(f"code version : {cache.code_version}")
    print(f"records      : {cache.count()}")
    return 0


def _campaign_report(results, as_json: bool) -> int:
    """Render and check every campaign sweep; 1 if any claim fails."""
    from .harness import presets

    status = 0
    for result in results:
        preset = presets.PRESETS.get(result.name)
        if preset is not None:
            status |= _render_and_check(preset, result, as_json)
        elif as_json:
            print(result.to_json())
        if not as_json:
            print()
            print(result.describe())
    return status


def _cmd_campaign_run(args) -> int:
    from .campaign.engine import Campaign
    from .harness import presets

    sweeps = [presets.get(name).build(quick=args.quick)
              for name in args.presets]
    directory = args.dir or f"campaigns/{'+'.join(args.presets)}"
    campaign = Campaign.create_or_open(
        directory, sweeps, cache=args.cache, workers=args.workers,
        timeout=args.timeout, max_retries=args.retries)
    progress = lambda line: print(line, file=sys.stderr)   # noqa: E731
    results = campaign.run(workers=args.workers, progress=progress,
                           force=args.force)
    status = _campaign_report(results, args.json)
    if not args.json:
        print(f"campaign directory: {campaign.directory}")
    return status


def _cmd_campaign_resume(args) -> int:
    from .campaign.engine import Campaign

    campaign = Campaign.open(args.dir)
    progress = lambda line: print(line, file=sys.stderr)   # noqa: E731
    results = campaign.run(workers=args.workers, progress=progress)
    return _campaign_report(results, args.json)


def _cmd_campaign_status(args) -> int:
    from .campaign.status import campaign_status, render_status

    status = campaign_status(args.dir)
    if args.json:
        print(json.dumps(status, sort_keys=True, indent=2))
    else:
        print(render_status(status))
    return 0 if status["state"] != "failed" else 1


def _cmd_campaign_serve(args) -> int:
    from .campaign.server import serve

    serve(args.dir, host=args.host, port=args.port,
          announce=lambda line: print(line, file=sys.stderr),
          dashboard=args.dashboard)
    return 0


def _cmd_campaign_help(args) -> int:
    args.campaign_parser.print_help()
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPECRUN reproduction — experiment harness CLI")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
        p.add_argument("--cache-dir", help="cache root directory")
        p.add_argument("--force", action="store_true",
                       help="recompute even on cache hits")

    p_sweep = sub.add_parser("sweep", help="run a paper-figure sweep")
    p_sweep.add_argument("preset", nargs="?",
                         help="preset name (omit with --list)")
    p_sweep.add_argument("--list", action="store_true",
                         help="list available presets")
    p_sweep.add_argument("--quick", action="store_true",
                         help="reduced smoke-tier grid")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes "
                              "(default: $REPRO_WORKERS or min(4, CPUs))")
    p_sweep.add_argument("--out", help="write canonical result JSON here")
    p_sweep.add_argument("--json", action="store_true",
                         help="print canonical JSON instead of the report")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_run = sub.add_parser("run", help="run one ad-hoc trial")
    p_run.add_argument("kind",
                       choices=("attack", "ipc", "window", "run", "taint",
                                "extract", "verify"))
    p_run.add_argument("params", nargs="*", metavar="key=value",
                       help="trial params, dots nest "
                            "(config.rob_size=64)")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_attack = sub.add_parser(
        "attack", help="extract a secret through a noisy covert channel")
    p_attack.add_argument("--secret", default="SPECRUN",
                          help="ASCII secret to plant and extract "
                               "(default: SPECRUN)")
    p_attack.add_argument("--variant", default="pht",
                          choices=("pht", "btb", "rsb-overwrite",
                                   "rsb-flush"))
    p_attack.add_argument("--receiver", default="flush-reload",
                          choices=("flush-reload", "evict-reload",
                                   "prime-probe"))
    p_attack.add_argument("--runahead", default="original",
                          help="runahead controller under attack "
                               "(registry name; default: original)")
    p_attack.add_argument("--trials", type=int, default=3,
                          help="measurement trials per byte (default 3)")
    p_attack.add_argument("--jitter", type=int, default=24,
                          help="max timing jitter in cycles (default 24)")
    p_attack.add_argument("--evict-rate", type=float, default=0.04,
                          help="co-runner eviction probability per line")
    p_attack.add_argument("--pollute-rate", type=float, default=0.04,
                          help="prefetch-pollution probability per line")
    p_attack.add_argument("--cores", type=int, default=1,
                          help="core count: with >= 2 the receiver "
                               "probes the shared L3 from another core "
                               "(default 1: same-core measurement)")
    p_attack.add_argument("--corunner", default=None,
                          help="workload name run as a real interfering "
                               "instruction stream (needs --cores 3, or "
                               "--smt to share the victim's core)")
    p_attack.add_argument("--smt", action="store_true",
                          help="run the co-runner as an SMT thread of "
                               "the victim's core (shared L1/L2)")
    p_attack.add_argument("--corunner-runahead", default="none",
                          help="runahead controller for co-runner cores "
                               "(default: none)")
    p_attack.add_argument("--no-noise", action="store_true",
                          help="disable all measurement noise")
    p_attack.add_argument("--seed", type=int, default=7,
                          help="noise seed (default 7)")
    p_attack.add_argument("--min-success", type=float, default=0.0,
                          help="exit non-zero if the success rate falls "
                               "below this (CI gating)")
    p_attack.add_argument("--json", action="store_true",
                          help="print the raw trial record as JSON")
    add_common(p_attack)
    p_attack.set_defaults(func=_cmd_attack)

    p_verify = sub.add_parser(
        "verify",
        help="static speculative-leak check of a gadget program")
    p_verify.add_argument("target", nargs="?",
                          help="registered target name or "
                               "gen:<family>:<seed> (omit with --list)")
    p_verify.add_argument("--list", action="store_true",
                          help="list registered verify targets")
    p_verify.add_argument("--defense", default="original",
                          type=_verify_defense,
                          help="defense model to check under: a runahead "
                               "controller name (default: original)")
    p_verify.add_argument("--windows", default="both",
                          choices=("both", "speculation", "runahead"),
                          help="window kinds to explore (default: both)")
    p_verify.add_argument("--spec-depth", type=int, default=None,
                          help="speculation-window instruction budget "
                               "(default 256)")
    p_verify.add_argument("--runahead-len", type=int, default=None,
                          help="runahead-window instruction budget "
                               "(default 512)")
    p_verify.add_argument("--cross-check", action="store_true",
                          help="also run the target on the cycle "
                               "simulator and hold the differential "
                               "contract (exit 2 on disagreement)")
    p_verify.add_argument("--json", action="store_true",
                          help="print the raw trial record as JSON")
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_obs = sub.add_parser(
        "obs", help="record / view micro-architectural event traces")
    osub = p_obs.add_subparsers(dest="obs_command")
    p_obs.set_defaults(func=_cmd_obs_help, obs_parser=p_obs)
    p_orecord = osub.add_parser(
        "record", help="run a workload with a .evt trace sink attached")
    p_orecord.add_argument("workload",
                           help="workload registry name (e.g. mcf, lbm)")
    p_orecord.add_argument("--runahead", default="original",
                           help="runahead controller "
                                "(registry name; default: original)")
    p_orecord.add_argument("--out", default=None,
                           help="output file (default: <workload>.evt)")
    p_orecord.add_argument("--max-cycles", type=int, default=5_000_000,
                           help="cycle budget (default 5M)")
    p_orecord.set_defaults(func=_cmd_obs_record)
    p_oview = osub.add_parser(
        "view", help="render a .evt trace as a pipeline timeline")
    p_oview.add_argument("trace", help="a .evt file from 'obs record'")
    p_oview.add_argument("--html", default=None, metavar="OUT",
                         help="also write a self-contained HTML page")
    p_oview.add_argument("--bins", type=int, default=64,
                         help="timeline resolution (default 64)")
    p_oview.set_defaults(func=_cmd_obs_view)

    p_campaign = sub.add_parser(
        "campaign",
        help="journaled, resumable multi-sweep campaigns "
             "(run/resume/status/serve)")
    csub = p_campaign.add_subparsers(dest="campaign_command")
    p_campaign.set_defaults(func=_cmd_campaign_help,
                            campaign_parser=p_campaign)

    p_crun = csub.add_parser(
        "run", help="start (or resume) a campaign of sweep presets")
    p_crun.add_argument("presets", nargs="+", metavar="preset",
                        help="one or more sweep preset names")
    p_crun.add_argument("--dir", default=None,
                        help="campaign directory "
                             "(default: campaigns/<presets>)")
    p_crun.add_argument("--quick", action="store_true",
                        help="build the reduced smoke-tier grids")
    p_crun.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: $REPRO_WORKERS)")
    p_crun.add_argument("--cache", default=None, metavar="URI",
                        help="campaign result store: dir:<path>, "
                             "relative paths inside the campaign dir "
                             "(default: dir:cache)")
    p_crun.add_argument("--timeout", type=float, default=None,
                        help="per-trial timeout in seconds "
                             "(default: none)")
    p_crun.add_argument("--retries", type=int, default=2,
                        help="max retries per trial for transient "
                             "worker failures (default 2)")
    p_crun.add_argument("--force", action="store_true",
                        help="recompute even on cache hits")
    p_crun.add_argument("--json", action="store_true",
                        help="print canonical result JSON instead of "
                             "reports")
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_cresume = csub.add_parser(
        "resume", help="complete an interrupted campaign")
    p_cresume.add_argument("dir", help="campaign directory")
    p_cresume.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: manifest)")
    p_cresume.add_argument("--json", action="store_true",
                           help="print canonical result JSON instead "
                                "of reports")
    p_cresume.set_defaults(func=_cmd_campaign_resume)

    p_cstatus = csub.add_parser(
        "status", help="progress/metrics from the campaign journal")
    p_cstatus.add_argument("dir", help="campaign directory")
    p_cstatus.add_argument("--json", action="store_true",
                           help="print the status object as JSON")
    p_cstatus.set_defaults(func=_cmd_campaign_status)

    p_cserve = csub.add_parser(
        "serve", help="read-only HTTP status/result server")
    p_cserve.add_argument("dir", help="campaign directory")
    p_cserve.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1)")
    p_cserve.add_argument("--port", type=int, default=8008,
                          help="TCP port, 0 picks a free one "
                               "(default 8008)")
    p_cserve.add_argument("--dashboard", action="store_true",
                          help="also serve the single-file HTML "
                               "dashboard (/dashboard, /timeline)")
    p_cserve.set_defaults(func=_cmd_campaign_serve)

    p_report = sub.add_parser(
        "report", help="render a saved sweep result or cached preset")
    p_report.add_argument("source", help="result .json file or preset name")
    p_report.add_argument("--quick", action="store_true",
                          help="render the quick-tier grid of a preset")
    add_common(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_cache = sub.add_parser("cache", help="inspect the result cache")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached record")
    p_cache.add_argument("--cache-dir", help="cache root directory")
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    from .campaign.journal import CampaignError
    try:
        return args.func(args)
    except KeyError as exc:
        # Registry/preset lookups raise with a "known: [...]" message.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    except (TrialError, CampaignError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pipe reader (`status | head`, `... | jq`) closed
        # early; exit quietly without letting the interpreter traceback
        # on the flush of the broken stdout.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
