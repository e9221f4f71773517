"""Golden ``LeakReport`` recorder for the static leak checker.

``tests/verify/golden_reports.json`` pins the checker's verdict for
every registered attack target under every defense in the default
cross-check sweep: the exact report set (pc, window kind, taint
provenance, chain) plus the exploration counters.  The checker is an
abstract interpreter — any change to its window semantics, fork policy
or taint propagation shows up here first, the same way
``tests/golden/golden_stats.json`` guards the cycle simulator.

``tests/verify/golden_gen_reports.json`` pins the same record for the
generated gadgets ``gen:<family>:<seed>`` of :data:`GEN_TARGETS`, whose
programs exercise operand mixes the hand-written targets do not.

``python -m tests.verify.recorder`` regenerates both fixtures; do that
only when a verdict change is *intended* (and re-run the cross-check
gate — ``repro sweep verify_cross_check --quick`` — before committing).
"""

from __future__ import annotations

import json
import pathlib

from repro.harness.runner import resolve_verify_target, verify_record
from repro.harness.spec import canonical_json
from repro.verify import check_program
from repro.verify.crosscheck import DEFAULT_DEFENSES
from repro.verify.gen import FAMILIES
from repro.verify.targets import target_names

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_reports.json")
GEN_GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_gen_reports.json")

#: The defense sweep the fixtures span (same as the cross-check gate).
DEFENSES_RECORDED = DEFAULT_DEFENSES

#: Generated targets pinned by the second fixture: seeds 0-3 of each family.
GEN_TARGETS = tuple(f"gen:{family}:{seed}"
                    for family in FAMILIES for seed in range(4))


def verify_report_record(target: str, defense: str) -> dict:
    """Run the checker on one target × defense cell; full payload."""
    case = resolve_verify_target(target)
    result = check_program(case.program, case.image,
                           secret_addrs=case.secret_addrs,
                           initial_sp=case.initial_sp, defense=defense)
    return verify_record(case, result)


def all_report_records(targets=None) -> dict:
    if targets is None:
        targets = target_names()
    return {f"{target}/{defense}": verify_report_record(target, defense)
            for target in targets
            for defense in DEFENSES_RECORDED}


def load_golden(path=GOLDEN_PATH) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def normalize(value):
    """Round-trip through canonical JSON so the fresh record compares
    the way it is stored in the fixture."""
    return json.loads(canonical_json(value))


def main() -> int:
    for path, targets in ((GOLDEN_PATH, None),
                          (GEN_GOLDEN_PATH, GEN_TARGETS)):
        golden = all_report_records(targets)
        path.write_text(json.dumps(golden, sort_keys=True, indent=1)
                        + "\n", encoding="utf-8")
        flagged = sum(1 for rec in golden.values() if not rec["clean"])
        print(f"wrote {path}: {len(golden)} cells, {flagged} flagged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
