"""Transient-window measurements (Fig. 10) and their invariants."""

import pytest

from repro.attack import measure_window
from repro.attack.window import AsyncFlusher, window_program
from repro.pipeline import Core, CoreConfig
from repro.runahead import NoRunahead, OriginalRunahead


@pytest.fixture(scope="module")
def fig10():
    """The three Fig. 10 scenarios: ① no runahead, ② runahead, ③
    runahead with the stalling line flushed once more in runahead."""
    return (measure_window(NoRunahead(), sled=2048),
            measure_window(OriginalRunahead(), sled=2048),
            measure_window(OriginalRunahead(), async_flushes=1, sled=2048))


class TestFig10:
    def test_n1_equals_rob_minus_one(self, fig10):
        n1, _, _ = fig10
        assert n1.window == CoreConfig.paper().rob_size - 1   # paper: 255

    def test_n2_exceeds_rob(self, fig10):
        _, n2, _ = fig10
        assert n2.window > CoreConfig.paper().rob_size
        assert n2.pseudo_retired > 0
        assert n2.runahead_episodes == 1

    def test_n3_exceeds_n2(self, fig10):
        _, n2, n3 = fig10
        assert n3.window > n2.window
        assert n3.cycles > n2.cycles

    def test_ordering_matches_paper(self, fig10):
        n1, n2, n3 = fig10
        assert n1.window < n2.window < n3.window

    def test_more_flushes_extend_further(self):
        one = measure_window(OriginalRunahead(), async_flushes=1, sled=4096)
        two = measure_window(OriginalRunahead(), async_flushes=2, sled=4096)
        assert two.window > one.window


class TestWindowScaling:
    def test_n1_tracks_rob_size(self):
        """Ablation: the normal-mode window is exactly ROB-limited."""
        for rob in (64, 128):
            config = CoreConfig.paper(rob_size=rob)
            m = measure_window(NoRunahead(), sled=1024, config=config)
            assert m.window == rob - 1

    def test_n2_tracks_memory_latency(self):
        """Longer stalls give runahead more room."""
        from repro.memory import HierarchyConfig
        short = CoreConfig.paper(hierarchy=HierarchyConfig.paper())
        slow_h = HierarchyConfig(
            l1i=short.hierarchy.l1i, l1d=short.hierarchy.l1d,
            l2=short.hierarchy.l2, l3=short.hierarchy.l3,
            mem_latency=400, mem_occupancy=8)
        slow = CoreConfig.paper(hierarchy=slow_h)
        fast_m = measure_window(OriginalRunahead(), sled=4096, config=short)
        slow_m = measure_window(OriginalRunahead(), sled=4096, config=slow)
        assert slow_m.window > fast_m.window


class TestLivelock:
    def test_self_flush_livelocks(self):
        """In-stream repeated flushing of the stalling line livelocks the
        runahead machine — why the paper's case ③ needs a second thread."""
        program, image = window_program(sled=64, self_flushes=1)
        core = Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=OriginalRunahead(), warm_icache=True)
        core.run(max_cycles=30_000)
        assert not core.halted
        assert core.stats.runahead_episodes > 5

    def test_async_flusher_is_bounded(self):
        m = measure_window(OriginalRunahead(), async_flushes=3, sled=8192)
        assert m.runahead_episodes == 1   # one long episode, not a loop


#: ``(window, pseudo_retired, runahead_episodes, cycles)`` per
#: ``(async_flushes, sled)``, recorded before the flusher joined the
#: shared run loop.  The flusher polls at every value the clock takes —
#: once after every step and once more at each skip landing, both before
#: that cycle's fills install — so a flusher polled once per stepped
#: cycle reads 2992 / 2989 / 1 / 2167 at ``(3, 4200)``.
FLUSHER_SCHEDULE = {
    (1, 1024): (1025, 1026, 1, 757),
    (1, 2048): (1906, 1900, 1, 1013),
    (1, 4096): (1864, 1861, 1, 1562),
    (1, 4200): (1400, 1397, 1, 1768),
    (1, 8192): (556, 557, 1, 7326),
    (2, 1024): (1025, 1026, 1, 999),
    (2, 2048): (2049, 2050, 1, 1247),
    (2, 4096): (2760, 2757, 1, 1786),
    (2, 4200): (2124, 2125, 1, 1942),
    (2, 8192): (816, 813, 1, 7390),
    (3, 1024): (1025, 1026, 1, 1241),
    (3, 2048): (2049, 2050, 1, 1489),
    (3, 4096): (3656, 3653, 1, 2010),
    (3, 4200): (2988, 2985, 1, 2166),
    (3, 8192): (1084, 1085, 1, 7465),
}


@pytest.mark.parametrize("flushes,sled", sorted(FLUSHER_SCHEDULE))
def test_async_flusher_poll_schedule_is_exact(flushes, sled):
    m = measure_window(OriginalRunahead(), async_flushes=flushes, sled=sled)
    assert (m.window, m.pseudo_retired, m.runahead_episodes, m.cycles) == \
        FLUSHER_SCHEDULE[(flushes, sled)]
