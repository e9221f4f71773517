"""Differential cross-check: checker verdicts against the simulator.

The static checker (:mod:`repro.verify.engine`) and the cycle simulator
(:mod:`repro.pipeline`) model the same transient-execution semantics at
very different fidelities; this module keeps them honest against each
other.  For every target and defense the contract has two directions:

**Direction A (no phantom flags).**  A gadget the checker flags on the
undefended machine (``defense="original"``) must *empirically* leak the
secret when run under :class:`~repro.runahead.original.OriginalRunahead`.

**Direction B (no missed leaks).**  A ``clean`` verdict under any
defense means the corresponding controller must extract nothing when
the program actually runs.  (A *flag* under a defense is allowed to be
conservative: e.g. the secure machine's runahead entry preempts some
normal-mode wrong paths the checker still reports.)

Two empirical oracles decide "did it leak":

* **attack oracle** — targets wrapping a registered attack variant
  replay through :class:`~repro.attack.specrun.SpecRunAttack`; the
  in-program probe's verdict (``succeeded``: the recovered value *is*
  the planted secret) is the ground truth.
* **footprint oracle** — probe-free gadgets (stale-store, generated
  programs) have no probe loop; instead the reference interpreter
  replays the program recording its architectural accesses, and any
  probe line warm in the simulator's hierarchy that the architectural
  run never touched is a transient transmission.  The leak predicate is
  the *secret's* probe entry showing up in that difference.  (This
  oracle cannot see through an in-program probe loop, which
  architecturally touches every probe line — hence the split.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.registry import CONTROLLERS
from ..isa.interpreter import run_program
from ..pipeline.config import CoreConfig
from ..pipeline.core import Core
from .engine import VerifyOptions, check_program
from .report import VerifyResult
from .targets import GadgetCase, build_target, target_names

#: The defense sweep the cross-check preset exercises by default.
DEFAULT_DEFENSES = ("original", "no-runahead", "secure", "branch-skip")

#: Hierarchy levels counted as a warm (hit-latency) line.
_WARM_LEVELS = ("l1", "l2", "l3")

#: Simulator cycle budget for one replay.
DEFAULT_MAX_CYCLES = 3_000_000


@dataclass
class CellOutcome:
    """One (target, defense) cell of the differential matrix."""

    target: str
    defense: str
    #: Checker verdict: any reports under this defense model?
    flagged: bool
    n_reports: int
    #: Window kinds among the reports ("speculation"/"runahead").
    windows: Tuple[str, ...]
    #: Empirical verdict: did the simulator extract the secret?
    leaked: bool
    #: Which oracle produced ``leaked``: "attack" or "footprint".
    oracle: str
    #: Contract satisfied for this cell?
    ok: bool
    #: The checker run the cell judged (not part of ``to_dict``).
    verdict: VerifyResult = field(repr=False)
    detail: str = ""

    def to_dict(self) -> Dict:
        return {
            "target": self.target, "defense": self.defense,
            "flagged": self.flagged, "n_reports": self.n_reports,
            "windows": list(self.windows), "leaked": self.leaked,
            "oracle": self.oracle, "ok": self.ok, "detail": self.detail,
        }


@dataclass
class CrossCheckResult:
    """All cells for one target (or one whole sweep)."""

    cells: List[CellOutcome] = field(default_factory=list)
    disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def extend(self, other: "CrossCheckResult") -> None:
        self.cells.extend(other.cells)
        self.disagreements.extend(other.disagreements)

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "cells": [c.to_dict() for c in self.cells],
            "disagreements": list(self.disagreements),
        }


def make_defense_controller(defense: str):
    """Fresh controller instance for a defense name (controllers carry
    per-run state, so every replay gets its own)."""
    try:
        factory = CONTROLLERS[defense]
    except KeyError:
        raise KeyError(
            f"unknown defense {defense!r}; known: "
            f"{sorted(CONTROLLERS)}") from None
    return factory()


def empirical_secret_leak(case: GadgetCase, defense: str,
                          max_cycles: int = DEFAULT_MAX_CYCLES,
                          config: Optional[CoreConfig] = None
                          ) -> Tuple[bool, str, str]:
    """Run the target on the simulator; did the secret get out?

    Returns ``(leaked, oracle, detail)``.
    """
    if case.attack_variant is not None:
        from ..attack.specrun import SpecRunAttack
        attack = SpecRunAttack(variant=case.attack_variant,
                               runahead=make_defense_controller(defense),
                               config=config, **case.attack_kwargs)
        result = attack.run(max_cycles=max_cycles)
        return (result.succeeded, "attack",
                f"recovered={result.recovered_secret}")
    return _footprint_leak(case, defense, max_cycles, config)


def _footprint_leak(case: GadgetCase, defense: str, max_cycles: int,
                    config: Optional[CoreConfig]) -> Tuple[bool, str, str]:
    """Footprint-diff oracle for probe-free gadgets."""
    core = Core(case.program, memory_image=case.image,
                config=config or CoreConfig.paper(),
                runahead=make_defense_controller(defense),
                initial_sp=case.initial_sp, warm_icache=True)
    core.run(max_cycles=max_cycles)
    if not core.halted:
        raise RuntimeError(f"target {case.name!r} did not finish in "
                           f"{max_cycles} cycles under {defense!r}")
    now = core.cycle
    warm = set()
    for i in range(case.probe_entries):
        addr = case.probe_base + i * case.probe_stride
        _, level = core.hierarchy.probe_latency(addr, now)
        if level in _WARM_LEVELS:
            warm.add(i)
    # The architectural footprint, from the reference interpreter.
    ref = run_program(case.program, memory_image=case.image,
                      initial_sp=case.initial_sp, record_accesses=True,
                      max_steps=max_cycles)
    probe_end = case.probe_base + case.probe_entries * case.probe_stride
    arch = set()
    for addr in ref.accesses:
        if case.probe_base <= addr < probe_end:
            arch.add((addr - case.probe_base) // case.probe_stride)
    transient = sorted(warm - arch)
    leaked = case.secret_value in transient
    return (leaked, "footprint",
            f"transient_probe_lines={transient}")


def cross_check_case(case: GadgetCase,
                     defenses: Sequence[str] = DEFAULT_DEFENSES,
                     options: Optional[VerifyOptions] = None,
                     max_cycles: int = DEFAULT_MAX_CYCLES,
                     config: Optional[CoreConfig] = None
                     ) -> CrossCheckResult:
    """Run the full contract for one target across ``defenses``."""
    result = CrossCheckResult()
    for defense in defenses:
        verdict: VerifyResult = check_program(
            case.program, case.image, secret_addrs=case.secret_addrs,
            initial_sp=case.initial_sp, defense=defense, options=options)
        flagged = not verdict.clean
        leaked, oracle, detail = empirical_secret_leak(
            case, defense, max_cycles=max_cycles, config=config)
        problems = []
        if not flagged and leaked:
            problems.append(
                f"{case.name}/{defense}: checker said clean but the "
                f"simulator extracted the secret ({detail})")
        if flagged and defense == "original" and not leaked:
            problems.append(
                f"{case.name}/{defense}: checker flagged "
                f"{len(verdict.reports)} leak(s) but the simulator "
                f"extracted nothing ({detail})")
        if defense == "original" and case.expect_leak and not flagged:
            problems.append(
                f"{case.name}/original: known-leaking gadget not flagged")
        if defense == "original" and not case.expect_leak and flagged:
            problems.append(
                f"{case.name}/original: known-safe gadget flagged")
        windows = tuple(sorted({r.window for r in verdict.reports}))
        result.cells.append(CellOutcome(
            target=case.name, defense=defense, flagged=flagged,
            n_reports=len(verdict.reports), windows=windows,
            leaked=leaked, oracle=oracle, ok=not problems, verdict=verdict,
            detail=detail if not problems else "; ".join(problems)))
        result.disagreements.extend(problems)
    return result


def cross_check_targets(names: Optional[Sequence[str]] = None,
                        defenses: Sequence[str] = DEFAULT_DEFENSES,
                        options: Optional[VerifyOptions] = None,
                        max_cycles: int = DEFAULT_MAX_CYCLES
                        ) -> CrossCheckResult:
    """Cross-check every named (default: all registered) target."""
    result = CrossCheckResult()
    for name in (names if names is not None else target_names()):
        result.extend(cross_check_case(build_target(name),
                                       defenses=defenses, options=options,
                                       max_cycles=max_cycles))
    return result
