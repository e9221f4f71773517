"""Trial execution: turn a :class:`~repro.harness.spec.Trial` into a
JSON-serializable result record.

Every trial kind resolves its named parameters through
:mod:`repro.harness.registry`, builds fresh simulator objects, runs the
measurement, and returns plain data.  Nothing here keeps state between
trials — that is what makes trials safe to fan out across processes and
to cache by content hash.

Trial kinds and their parameters (all optional unless noted):

``attack``
    ``variant`` (required), ``runahead`` + ``runahead_kwargs``,
    ``config_base``/``config``, ``secret_value``, ``nop_padding``;
    optionally ``receiver``/``noise``/``trials``/``seed`` to measure
    through a :mod:`repro.channel` receiver instead of the in-program
    probe, and ``cores``/``corunner``/``smt``/``corunner_runahead`` to
    place victim, attacker and co-runners on a shared-L3 multi-core
    topology (:class:`repro.multicore.scenario.Topology`).
``extract``
    ``secret`` (required: string or list of byte values), ``variant``,
    ``receiver``, ``noise``, ``trials``, ``runahead`` +
    ``runahead_kwargs``, ``config_base``/``config``, ``seed``, plus the
    same ``cores``/``corunner``/``smt``/``corunner_runahead`` topology
    params — the multi-byte covert-channel extraction of
    :func:`repro.channel.extract.extract_secret`.
``ipc``
    ``workload`` (required), ``baseline`` (default no-runahead),
    ``contender`` (default original) + ``contender_kwargs``,
    ``config_base``/``config``, ``max_cycles``.

Wherever a workload name is accepted (``workload``/``corunner``), the
registry also resolves the synthetic trace suite (``trace-mcf``,
``trace-stream``, ``trace-gcc``, ``trace-zipf``) and saved trace files
(``trace:<path>``) — see :mod:`repro.trace`.
``window``
    ``runahead``, ``async_flushes``, ``sled``,
    ``config_base``/``config``.
``run``
    ``workload`` (required), ``runahead`` + ``runahead_kwargs``,
    ``config_base``/``config``, ``max_cycles``.
``taint``
    no parameters — the Fig. 12 worked example.
``verify``
    ``target`` (required: a :mod:`repro.verify.targets` name or
    ``gen:<family>:<seed>``), ``defense`` (default "original"),
    ``windows``, ``spec_depth``/``runahead_len``/``max_window_forks``/
    ``max_arch_steps``, ``shard`` (``[k, n]``: explore only window
    forks with ``index % n == k`` — merge shards with
    :func:`repro.verify.merge_reports`), ``cross_check`` (bool: also
    run the target on the cycle simulator and hold the
    :mod:`repro.verify.crosscheck` contract; excludes ``shard`` and a
    restricted ``windows``), ``max_cycles`` (the cross-check simulation
    budget).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from ..attack.specrun import SpecRunAttack
from ..attack.window import measure_window
from ..channel.extract import extract_secret
from ..defense.taint_demo import run_fig12
from .registry import get_workload, make_config, make_controller
from .spec import TRIAL_KINDS, Trial


class TrialError(RuntimeError):
    """A trial failed; carries the trial label for diagnostics."""


#: Multi-core placement params shared by the attack and extract kinds.
_TOPOLOGY_KEYS = ("cores", "corunner", "smt", "corunner_runahead")


def _stats_dict(stats) -> Dict[str, Any]:
    return dataclasses.asdict(stats)


def _config_from(params) -> Any:
    return make_config(params.get("config_base", "paper"),
                       params.get("config"))


def _run_attack(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    controller = make_controller(params.get("runahead", "original"),
                                 **params.get("runahead_kwargs", {}))
    gadget_kwargs = {}
    for key in ("secret_value", "nop_padding"):
        if key in params:
            gadget_kwargs[key] = params[key]
    for key in _TOPOLOGY_KEYS:
        if key in params:
            gadget_kwargs[key] = params[key]
    attack = SpecRunAttack(variant=params["variant"], runahead=controller,
                           config=_config_from(params),
                           receiver=params.get("receiver"),
                           noise=params.get("noise"),
                           trials=params.get("trials", 1),
                           seed=params.get("seed", trial.seed),
                           **gadget_kwargs)
    result = attack.run(max_cycles=params.get("max_cycles", 3_000_000))
    record = {
        "variant": params["variant"],
        "runahead": result.runahead_name,
        "secret": attack.attack.secret_value,
        "leaked": result.leaked,
        "recovered": result.recovered_secret,
        "succeeded": result.succeeded,
        "latencies": list(result.latencies),
        "stats": _stats_dict(result.stats),
    }
    if result.channel is not None:
        record["channel"] = result.channel.to_dict()
    return record


def _run_extract(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    make_runahead = (lambda: make_controller(
        params.get("runahead", "original"),
        **params.get("runahead_kwargs", {})))
    gadget_kwargs = {key: params[key] for key in ("nop_padding",)
                     if key in params}
    topology_kwargs = {key: params[key] for key in _TOPOLOGY_KEYS
                       if key in params}
    result = extract_secret(
        params["secret"],
        variant=params.get("variant", "pht"),
        receiver=params.get("receiver", "flush-reload"),
        noise=params.get("noise"),
        trials=params.get("trials", 1),
        runahead=make_runahead,
        config=_config_from(params),
        seed=params.get("seed", trial.seed),
        max_cycles=params.get("max_cycles", 3_000_000),
        **topology_kwargs, **gadget_kwargs)
    return result.to_dict()


def ipc_record(workload, baseline, contender, base, cont) -> Dict[str, Any]:
    """The deterministic ``ipc`` payload from two finished cores."""
    speedup = (cont.stats.ipc / base.stats.ipc) if base.stats.ipc else 0.0
    return {
        "workload": workload.name,
        "memory_bound": workload.memory_bound,
        "baseline": baseline.name,
        "contender": contender.name,
        "ipc_base": base.stats.ipc,
        "ipc_contender": cont.stats.ipc,
        "speedup": speedup,
        "episodes": cont.stats.runahead_episodes,
        "prefetches": cont.stats.runahead_prefetches,
        "stats_base": _stats_dict(base.stats),
        "stats_contender": _stats_dict(cont.stats),
    }


def workload_record(workload, controller, core) -> Dict[str, Any]:
    """The deterministic ``run`` payload from one finished core."""
    return {
        "workload": workload.name,
        "runahead": controller.name,
        "halted": core.halted,
        "cycles": core.stats.cycles,
        "ipc": core.stats.ipc,
        "stats": _stats_dict(core.stats),
    }


def _run_ipc(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    workload = get_workload(params["workload"])
    config = _config_from(params)
    max_cycles = params.get("max_cycles", 5_000_000)
    baseline = make_controller(params.get("baseline", "none"),
                               **params.get("baseline_kwargs", {}))
    contender = make_controller(params.get("contender", "original"),
                                **params.get("contender_kwargs", {}))
    base = workload.run(runahead=baseline, config=config,
                        max_cycles=max_cycles)
    cont = workload.run(runahead=contender, config=config,
                        max_cycles=max_cycles)
    return ipc_record(workload, baseline, contender, base, cont)


def _run_window(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    controller = make_controller(params.get("runahead", "none"),
                                 **params.get("runahead_kwargs", {}))
    measurement = measure_window(
        controller,
        async_flushes=params.get("async_flushes", 0),
        sled=params.get("sled", 4096),
        config=_config_from(params))
    return dataclasses.asdict(measurement)


def _run_workload(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    workload = get_workload(params["workload"])
    controller = make_controller(params.get("runahead", "none"),
                                 **params.get("runahead_kwargs", {}))
    core = workload.run(runahead=controller, config=_config_from(params),
                        max_cycles=params.get("max_cycles", 5_000_000))
    return workload_record(workload, controller, core)


def resolve_verify_target(name: str):
    """Resolve a verify target name (registry or ``gen:...``) to a case."""
    from ..verify.targets import build_target
    if name.startswith("gen:"):
        from ..verify.gen import gen_target
        return gen_target(name)
    return build_target(name)


def verify_record(case, result, shard=None) -> Dict[str, Any]:
    """The deterministic ``verify`` payload (shared-record pattern)."""
    record = {
        "target": case.name,
        "defense": result.defense,
        "windows": list(result.windows),
        "clean": result.clean,
        "n_reports": len(result.reports),
        "reports": [r.to_dict() for r in result.reports],
        "arch_steps": result.arch_steps,
        "window_steps": result.window_steps,
        "spec_forks": result.spec_forks,
        "runahead_forks": result.runahead_forks,
        "suppressed": result.suppressed,
    }
    if shard is not None:
        record["shard"] = list(shard)
    return record


def _run_verify(trial: Trial) -> Dict[str, Any]:
    from ..verify import VerifyOptions, check_program
    from ..verify.crosscheck import DEFAULT_MAX_CYCLES, cross_check_case
    from ..verify.report import WINDOWS

    params = trial.params
    case = resolve_verify_target(params["target"])
    defense = params.get("defense", "original")
    options = VerifyOptions()
    for key in ("spec_depth", "runahead_len", "max_arch_steps",
                "max_window_forks"):
        if key in params:
            setattr(options, key, params[key])
    windows = params.get("windows", list(WINDOWS))
    shard = params.get("shard")
    if params.get("cross_check"):
        # The contract judges the one full checker run cross_check_case
        # makes; the record reports that same verdict.
        if shard is not None:
            raise TrialError("verify trial cannot combine shard with "
                             "cross_check: the contract needs the full "
                             "report set")
        if set(windows) != set(WINDOWS):
            raise TrialError("verify trial cannot combine windows with "
                             "cross_check: the contract judges every "
                             "window kind")
        cross = cross_check_case(
            case, (defense,), options,
            params.get("max_cycles", DEFAULT_MAX_CYCLES))
        cell = cross.cells[0]
        record = verify_record(case, cell.verdict)
        record["cross_check"] = cell.to_dict()
        record["ok"] = cross.ok
        record["disagreements"] = list(cross.disagreements)
        return record
    fork_filter = None
    if shard is not None:
        index, count = shard
        fork_filter = lambda fork: fork % count == index
    result = check_program(
        case.program, case.image, secret_addrs=case.secret_addrs,
        initial_sp=case.initial_sp, defense=defense, windows=windows,
        options=options, fork_filter=fork_filter)
    return verify_record(case, result, shard=shard)


def _run_taint(trial: Trial) -> Dict[str, Any]:
    rows = [list(row) for row in run_fig12()]
    mismatches = [label for label, want_btag, got_btag, want_is, got_is
                  in rows
                  if want_btag is not None
                  and (got_btag != want_btag or got_is != want_is)]
    return {"rows": rows, "mismatches": mismatches}


_RUNNERS = {
    "attack": _run_attack,
    "ipc": _run_ipc,
    "window": _run_window,
    "run": _run_workload,
    "taint": _run_taint,
    "extract": _run_extract,
    "verify": _run_verify,
}


def run_trial(trial: Trial) -> Dict[str, Any]:
    """Execute one trial and return its result payload (pure data)."""
    try:
        runner = _RUNNERS[trial.kind]
    except KeyError:
        # Same wording and kind order as Trial.__post_init__ — a test
        # pins the two lists against each other and against _RUNNERS.
        raise TrialError(
            f"no runner for trial kind {trial.kind!r}; expected one of "
            f"{TRIAL_KINDS}") from None
    try:
        return runner(trial)
    except TrialError:
        raise
    except Exception as exc:
        raise TrialError(f"trial {trial.label!r} failed: {exc}") from exc
