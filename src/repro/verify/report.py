"""Leak reports: what the checker found, where, and why.

A :class:`LeakReport` names one load whose *address* carried secret
taint inside a transient window.  ``window`` records which machine
feature makes the load reachable:

``"speculation"``
    The load sits beyond a *predicted* control decision — a wrong-path
    excursion in normal mode (classic Spectre, bounded by the ROB) or a
    branch whose sources were INV during runahead, where the prediction
    stands unresolved for the whole interval (the paper's Fig. 4).
``"runahead"``
    The load sits on the post-miss pseudo-execution path itself, with
    no predicted decision in between — reachable purely because runahead
    keeps executing past a memory-level miss (SPECRUN's novel window;
    the stale-store gadget is the canonical member).

The split mirrors the two defenses: the secure controller quarantines
runahead fills (kills ``runahead`` reports), branch restrictions pin
down unresolvable branches (kill ``speculation`` reports).

Reports are plain data — JSON round-trippable, stably ordered, and
deduplicated on ``(pc, window, taint)`` — so they can be pinned as
golden fixtures and diffed across checker refactors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

WINDOW_SPECULATION = "speculation"
WINDOW_RUNAHEAD = "runahead"
WINDOWS = (WINDOW_SPECULATION, WINDOW_RUNAHEAD)


@dataclass(frozen=True)
class LeakReport:
    """One secret-tainted load address inside a transient window."""

    #: Address of the leaking load instruction.
    pc: int
    #: ``"speculation"`` or ``"runahead"`` (see module docstring).
    window: str
    #: Sorted taint labels carried by the load address.
    taint: Tuple[str, ...]
    #: Taint provenance: pcs from the tainting load to the leaking load
    #: (capped; first and last entries are always preserved).
    chain: Tuple[int, ...]
    #: Where the window opened: the stalling/mispredicted instruction.
    fork_pc: int
    #: Deterministic ordinal of the window (dedup tie-break).
    fork_index: int
    #: Instructions executed inside the window before the leak.
    depth: int
    #: Concrete leak address when the checker resolved one, else None.
    addr: Optional[int] = None

    def key(self) -> Tuple:
        """Dedup identity: one report per (pc, window, taint)."""
        return (self.pc, self.window, self.taint)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pc": self.pc,
            "window": self.window,
            "taint": list(self.taint),
            "chain": list(self.chain),
            "fork_pc": self.fork_pc,
            "fork_index": self.fork_index,
            "depth": self.depth,
            "addr": self.addr,
        }


@dataclass
class VerifyResult:
    """Outcome of one :func:`~repro.verify.engine.check_program` run."""

    reports: List[LeakReport] = field(default_factory=list)
    #: Defense model the check ran under ("original" when undefended).
    defense: str = "original"
    #: Window kinds that were explored.
    windows: Tuple[str, ...] = WINDOWS
    arch_steps: int = 0
    window_steps: int = 0
    #: Windows opened, by kind.
    spec_forks: int = 0
    runahead_forks: int = 0
    #: Reports dropped by the defense model (e.g. secure quarantine).
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.reports


def merge_reports(*groups) -> List[LeakReport]:
    """Union report lists into canonical order.

    Deduplicates on :meth:`LeakReport.key`, keeping the report from the
    earliest window (lowest ``(fork_index, depth)``), then sorts — the
    same report set in the same order no matter in which order the
    windows were explored.
    """
    best: Dict[Tuple, LeakReport] = {}
    for group in groups:
        for report in group:
            key = report.key()
            prior = best.get(key)
            if prior is None or (report.fork_index, report.depth) < \
                    (prior.fork_index, prior.depth):
                best[key] = report
    return sorted(best.values(),
                  key=lambda r: (r.pc, r.window, r.taint, r.fork_index))
