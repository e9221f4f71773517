"""SPECRUN attack orchestration.

Runs an :class:`~repro.attack.gadgets.AttackProgram` on a configured
core and reads the leak with the paper's own **in-program probe**
(Fig. 9): the program times its probe loop with ``rdtsc`` and a single
unambiguous latency dip identifies the leaked secret — a perfect
oracle.  The flush+reload / evict+reload / prime+probe read-out is
:func:`repro.channel.extract.extract_secret`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.leak import ProbeVerdict, analyze_probe
from ..pipeline.config import CoreConfig
from ..runahead.base import RunaheadController
from ..runahead.original import OriginalRunahead
from .gadgets import AttackProgram, build_attack


@dataclass
class AttackResult:
    """Outcome of one end-to-end attack run."""

    attack: AttackProgram
    report: ProbeVerdict
    stats: object                 # CoreStats of the run
    runahead_name: str

    @property
    def latencies(self) -> List[int]:
        return self.report.latencies

    @property
    def leaked(self) -> bool:
        return self.report.leaked

    @property
    def recovered_secret(self) -> Optional[int]:
        return self.report.recovered

    @property
    def succeeded(self) -> bool:
        """Leak detected and it names the planted secret."""
        return self.report.recovered == self.attack.secret_value

    def describe(self) -> str:
        header = (f"SPECRUN[{self.attack.variant}] on "
                  f"{self.runahead_name}: ")
        if self.succeeded:
            return header + (f"recovered secret {self.recovered_secret} "
                             f"(planted {self.attack.secret_value})")
        if self.leaked:
            return header + (f"leak at {self.recovered_secret}, expected "
                             f"{self.attack.secret_value}")
        return header + "no leak"


class SpecRunAttack:
    """End-to-end attack driver.

    Parameters
    ----------
    variant:
        "pht" (Fig. 8/9), "btb" (Fig. 4a), "rsb-overwrite" (Fig. 4b) or
        "rsb-flush" (Fig. 4c).
    runahead:
        Controller under attack; defaults to original runahead.  Pass
        :class:`~repro.runahead.base.NoRunahead` for the baseline machine.
    config:
        Core configuration; defaults to the paper's Table-1 machine.
    gadget_kwargs:
        Forwarded to the gadget builder (``secret_value``,
        ``nop_padding``, ...).
    """

    def __init__(self, variant="pht", runahead: Optional[
            RunaheadController] = None, config: Optional[CoreConfig] = None,
            **gadget_kwargs):
        self.variant = variant
        self.config = config or CoreConfig.paper()
        self.runahead = runahead if runahead is not None \
            else OriginalRunahead()
        self.attack = build_attack(variant, **gadget_kwargs)

    def run(self, max_cycles=3_000_000) -> AttackResult:
        from ..channel.session import run_victim
        core, _ = run_victim(self.attack, self.runahead, self.config,
                             max_cycles, None, None)
        latencies = self.attack.read_latencies(core)
        report = analyze_probe(latencies)
        return AttackResult(attack=self.attack, report=report,
                            stats=core.stats,
                            runahead_name=self.runahead.name)


def run_specrun(variant="pht", runahead=None, config=None,
                **kwargs) -> AttackResult:
    """One-shot convenience wrapper around :class:`SpecRunAttack`."""
    return SpecRunAttack(variant=variant, runahead=runahead, config=config,
                         **kwargs).run()
