"""Transient-window measurement (Fig. 10, §5.3).

Three scenarios measure how many instructions can execute transiently
behind a flushed load:

* ① normal machine, flush once — bounded by the ROB (paper: N1 = 255);
* ② runahead machine, flush once — pseudo-retirement logically extends
  the ROB (paper: N2 = 480);
* ③ runahead machine, the stalling line flushed again *while the
  processor is in runahead mode* — the in-flight fill is dropped and
  must be re-fetched, prolonging the runahead interval (paper: N3 = 840).

Scenario ③ is driven by a co-resident attacker thread in the paper
("the attacker must wait until all instructions in the ROB have retired
before immediately flushing x and repeating this process ... a
probabilistic event").  The harness models that second thread as an
*asynchronous flusher*, a poller on the core's clock
(:mod:`repro.pipeline.clock`): while the core is in runahead mode it
flushes the stalling line (and restarts its fetch) a bounded number of
times.  An **unbounded** self-flushing program genuinely livelocks a
runahead machine — `clflush` younger than the stalling load re-executes
after every exit and re-drops the fill; see
``tests/attack/test_window.py::test_self_flush_livelocks`` — which is
why the paper calls case ③ probabilistic.

The measured quantity is the deepest younger instruction (in program
order, counted from the stalling load) that entered the window before the
load's data architecturally returned — the core tracks it as
``transient_window_max``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.assembler import assemble
from ..isa.memory_image import MemoryImage
from ..pipeline.clock import run_core
from ..pipeline.config import CoreConfig
from ..pipeline.core import MODE_RUNAHEAD, Core
from ..runahead.base import NoRunahead


@dataclass
class WindowMeasurement:
    scenario: str
    window: int            # deepest transient instruction reached
    pseudo_retired: int
    runahead_episodes: int
    cycles: int


def window_program(sled=4096, self_flushes=0):
    """``clflush x; load x; nop sled`` (the Fig. 10 code snippets).

    ``self_flushes`` inserts in-stream clflushes after the load — used
    only by the livelock demonstration, never by the measurements.
    """
    image = MemoryImage()
    image.alloc_array("x_word", 2)
    mid = "\n".join("    clflush r1, 0" for _ in range(self_flushes))
    source = f"""
        li r1, @x_word
        clflush r1, 0
        fence
        load r2, r1, 0       # the stalling load
    {mid}
        .repeat {sled}, nop
        halt
    """
    return assemble(source, memory_image=image), image


class AsyncFlusher:
    """Models the co-resident attacker thread of scenario ③.

    While the core is in runahead mode, it flushes the stalling line and
    re-requests it (what the victim's outstanding miss logic would do),
    extending the runahead interval; at most ``budget`` times.  Timing is
    everything: a flush issued right after the miss barely extends the
    window (the re-fetch starts while the memory channel is still nearly
    free), so — like the paper's attacker, who waits for retirement
    before re-flushing — the flusher fires just before the in-flight
    fill would return.
    """

    def __init__(self, core, line_addr, budget, margin=8):
        self.core = core
        self.line = line_addr
        self.budget = budget
        self.margin = margin

    def poll(self, now):
        """Act at clock value ``now``, before that cycle's fills install."""
        core = self.core
        if self.budget <= 0 or core.mode != MODE_RUNAHEAD:
            return
        checkpoint = core.checkpoint
        if checkpoint is None or \
                checkpoint.stalling_completion - now > self.margin:
            return
        core.hierarchy.flush_line(self.line)
        refetch = core.hierarchy.access_data(self.line, now, prefetch=True)
        core.extend_stall(refetch.completion)
        self.budget -= 1

    def wake_up(self):
        """True while a later :meth:`poll` may still fire."""
        return self.budget > 0 and self.core.mode == MODE_RUNAHEAD


def measure_window(runahead=None, async_flushes=0, sled=4096, config=None) \
        -> WindowMeasurement:
    """Run one Fig. 10 scenario and return the measured window."""
    program, image = window_program(sled=sled)
    controller = runahead if runahead is not None else NoRunahead()
    core = Core(program, memory_image=image,
                config=config or CoreConfig.paper(), runahead=controller,
                warm_icache=True)
    flusher = AsyncFlusher(core, image.address_of("x_word"),
                           budget=async_flushes)
    run_core(core, 2_000_000, (flusher,))
    if not core.halted:
        raise RuntimeError("window probe did not halt")
    name = controller.name
    if async_flushes:
        name += f"+{async_flushes}async-flush"
    return WindowMeasurement(
        scenario=name,
        window=core.transient_window_max,
        pseudo_retired=core.stats.pseudo_retired,
        runahead_episodes=core.stats.runahead_episodes,
        cycles=core.stats.cycles)
