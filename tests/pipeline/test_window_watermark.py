"""The transient-window watermark equals the per-dispatch depth rule.

``Core.transient_window_max`` used to be raised on every dispatch made
while a memory-stall episode was open: depth = the dispatched seq minus
the stalling load's seq.  Seqs only grow, so the core now reads the
depth once, from the seq watermark, when the episode closes (or while
it is still open).  :class:`PerDispatchCore` keeps the old rule beside
the new one and checks after every step that both read the same;
the runs cover the Fig. 10 window probe on every sled length and
controller that matters, the asynchronous-flush scenario, and
generated gadget programs.
"""

from __future__ import annotations

import pytest

from repro.attack import window as window_module
from repro.attack.window import measure_window
from repro.harness.registry import make_controller
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.runahead.original import OriginalRunahead
from repro.verify.gen import gen_target


class PerDispatchCore(Core):
    """A core that also applies the old per-dispatch depth rule."""

    made = []

    def __init__(self, *args, **kwargs):
        self.reference_window_max = 0
        super().__init__(*args, **kwargs)
        PerDispatchCore.made.append(self)

    def _dispatch(self, now):
        # An episode opens and closes only in commit and runahead exit,
        # never inside dispatch: every seq dispatched here saw this base.
        before = self.seq
        super()._dispatch(now)
        base = self._stall_base_seq
        if base is not None:
            for seq in range(before + 1, self.seq + 1):
                self.reference_window_max = max(self.reference_window_max,
                                                seq - base)

    def step(self):
        super().step()
        assert self.transient_window_max == self.reference_window_max, \
            f"cycle {self.cycle}"


@pytest.fixture
def reference_core(monkeypatch):
    """Makes ``measure_window`` build a :class:`PerDispatchCore`;
    returns a getter for the core it built."""
    PerDispatchCore.made = []
    monkeypatch.setattr(window_module, "Core", PerDispatchCore)

    def built():
        (core,) = PerDispatchCore.made
        return core
    return built


@pytest.mark.parametrize("controller", ["none", "original", "precise",
                                        "secure"])
@pytest.mark.parametrize("sled", [1024, 4096, 4200, 8192])
def test_window_probe_matches_per_dispatch_rule(sled, controller,
                                                reference_core):
    measured = measure_window(make_controller(controller), sled=sled)
    core = reference_core()
    assert measured.window == core.reference_window_max
    assert measured.window >= CoreConfig.paper().rob_size - 1


def test_async_flushes_match_per_dispatch_rule(reference_core):
    measured = measure_window(OriginalRunahead(), async_flushes=2,
                              sled=4096)
    core = reference_core()
    assert measured.window == core.reference_window_max
    assert measured.runahead_episodes == 1
    assert measured.window > CoreConfig.paper().rob_size


@pytest.mark.parametrize("target", ["gen:spec:0", "gen:spec:1",
                                    "gen:stale:0", "gen:straight:2"])
@pytest.mark.parametrize("controller", ["none", "original"])
def test_gen_programs_match_per_dispatch_rule(target, controller):
    case = gen_target(target)
    core = PerDispatchCore(case.program, memory_image=case.image,
                           config=CoreConfig.paper(),
                           runahead=make_controller(controller),
                           initial_sp=case.initial_sp, warm_icache=True)
    core.run()
    assert core.halted
    assert core.transient_window_max == core.reference_window_max
    assert core.reference_window_max > 0
