"""Every trial frees its simulator by reference counting.

Ownership in the simulator points one way — ``Core`` → its
``MemoryHierarchy`` view → ``SharedHierarchy`` → L3/channel — so no
simulator object is part of a reference cycle.  A trial's cores, caches,
ROB and predictor tables are then freed the moment ``run_trial`` drops
them, and peak RSS follows live memory instead of when the cyclic
garbage collector happens to run.

Each case runs one trial with the cyclic collector disabled, holding a
weak reference to every ``Core``, ``MemoryHierarchy`` and
``SharedHierarchy`` the trial built (``__init__`` is wrapped here, in
the test).  Each must be dead as soon as ``run_trial`` returns, and a
collection under ``gc.DEBUG_SAVEALL`` must then find no cyclic garbage
at all.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.harness.runner import run_trial
from repro.harness.spec import Trial
from repro.memory.hierarchy import MemoryHierarchy, SharedHierarchy
from repro.pipeline.core import Core

CASES = {
    "ipc": ("ipc", {"workload": "mcf", "config_base": "small"}),
    "run": ("run", {"workload": "mcf", "runahead": "original",
                    "config_base": "small"}),
    "taint": ("taint", {}),
    "window": ("window", {"runahead": "original", "sled": 128}),
    "window-async-flushes": ("window", {"runahead": "original", "sled": 128,
                                       "async_flushes": 2}),
    "attack": ("attack", {"variant": "pht"}),
    "extract": ("extract", {"secret": [86], "receiver": "prime-probe"}),
    "extract-cross-core": ("extract", {"secret": [86],
                                       "receiver": "prime-probe",
                                       "cores": 2}),
    "verify-cross-check": ("verify", {"target": "stale-store",
                                      "cross_check": True}),
}


@pytest.fixture
def built(monkeypatch):
    """Weak references to every simulator object built while it is on."""
    refs = []
    for cls in (Core, MemoryHierarchy, SharedHierarchy):
        def init(self, *args, original=cls.__init__, **kwargs):
            refs.append(weakref.ref(self))
            original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return refs


@pytest.fixture
def gc_state():
    """Restore the collector's state and free what the test saved."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trial_frees_its_simulator_by_refcount(case, built, gc_state):
    kind, params = CASES[case]
    # Free what earlier tests left, so what is found below is this
    # trial's own, then run it with the cyclic collector off.
    gc.collect()
    gc.disable()
    run_trial(Trial(kind, params))
    if kind != "taint":             # the Fig. 12 example builds no core
        assert built, "the trial built no simulator object"
    alive = [type(ref()).__name__ for ref in built if ref() is not None]
    assert not alive, f"{case}: alive after run_trial returned: {alive}"

    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    assert not gc.garbage, \
        f"{case}: {len(gc.garbage)} objects in reference cycles: {kinds}"
