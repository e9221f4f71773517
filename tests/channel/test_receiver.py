"""Receiver unit tests (hierarchy-level) and Fig. 9 equivalence."""

import pytest

from repro.attack import run_specrun
from repro.attack.gadgets import build_attack
from repro.channel import (NO_NOISE, EvictReloadReceiver,
                           FlushReloadReceiver, NoiseModel,
                           PrimeProbeReceiver, ProbeLayout, SplitMix64,
                           eviction_set, extract_secret, make_receiver,
                           receiver_class)
from repro.memory.hierarchy import (LEVEL_L1, LEVEL_L2, LEVEL_L3, LEVEL_MEM,
                                    LEVEL_PENDING, HierarchyConfig,
                                    MemoryHierarchy)
from tests.sim import warm

LAYOUT = ProbeLayout(base=1 << 20, entries=16, stride=512)


def paper_hierarchy():
    return MemoryHierarchy(HierarchyConfig.paper())


class TestProbeLatency:
    """The read-only timing walk the receivers are built on."""

    def test_levels_and_latencies(self):
        h = paper_hierarchy()
        addr = LAYOUT.line(3)
        assert h.probe_latency(addr, 0) == (242, LEVEL_MEM)
        warm(h, addr, level="l3")
        assert h.probe_latency(addr, 0) == (42, LEVEL_L3)
        warm(h, addr, level="l2")
        assert h.probe_latency(addr, 0) == (10, LEVEL_L2)
        warm(h, addr)
        assert h.probe_latency(addr, 0) == (2, LEVEL_L1)
        assert h.config.data_hit_latency == 2
        assert h.config.data_miss_latency == 242

    def test_read_only(self):
        h = paper_hierarchy()
        addr = LAYOUT.line(0)
        before = h.l1d.stats.hits + h.l1d.stats.misses
        for _ in range(5):
            h.probe_latency(addr, 0)
        assert not h.l1d.probe(addr)            # probe did not fill
        assert h.l1d.stats.hits + h.l1d.stats.misses == before   # nor stats

    def test_pending_fill_visibility(self):
        h = paper_hierarchy()
        addr = LAYOUT.line(1)
        result = h.access_data(addr, 0)         # miss -> pending fill
        latency, level = h.probe_latency(addr, 10)
        assert level == LEVEL_PENDING
        assert latency == result.completion - 10
        # After completion the fill is installed and the line is an L1 hit.
        assert h.probe_latency(addr, result.completion) == (2, LEVEL_L1)


class TestEvictionSets:
    def test_maps_to_same_set(self):
        h = paper_hierarchy()
        for cache in (h.l1d, h.l2, h.l3):
            line = LAYOUT.line(5)
            ev = eviction_set(cache.config, line)
            assert len(ev) == cache.config.assoc
            assert len(set(ev)) == cache.config.assoc
            target_set, _ = cache._set_and_tag(line)
            for ev_line in ev:
                ways, _ = cache._set_and_tag(ev_line)
                assert ways is target_set

    def test_walk_evicts_target(self):
        h = paper_hierarchy()
        line = LAYOUT.line(5)
        h.l2.fill(line)
        for ev_line in eviction_set(h.l2.config, line):
            h.l2.fill(ev_line)
        assert not h.l2.probe(line)

    def test_disjoint_from_low_addresses(self):
        ev = eviction_set(paper_hierarchy().l1d.config, LAYOUT.line(0))
        assert min(ev) > (1 << 24)

    def test_salt_separates(self):
        config = paper_hierarchy().l3.config
        a = eviction_set(config, LAYOUT.line(0), salt=0)
        b = eviction_set(config, LAYOUT.line(0), salt=1)
        assert not set(a) & set(b)


class TestReloadReceivers:
    def test_flush_reload_detects_planted_line(self):
        h = paper_hierarchy()
        receiver = make_receiver("flush-reload", LAYOUT, h)
        receiver.prepare()
        warm(h, LAYOUT.line(7))                 # the "transmit"
        vector = receiver.measure(0)[0]
        assert vector.signal_low
        assert vector.latencies[7] == 2
        assert all(lat == 242 for i, lat in enumerate(vector.latencies)
                   if i != 7)

    def test_flush_reload_prepare_flushes_stale_lines(self):
        h = paper_hierarchy()
        warm(h, LAYOUT.line(2))
        receiver = make_receiver("flush-reload", LAYOUT, h)
        receiver.prepare()
        assert receiver.measure(0)[0].latencies[2] == 242

    def test_evict_reload_prepare_evicts_via_sets(self):
        h = paper_hierarchy()
        warm(h, LAYOUT.line(2))                 # resident everywhere
        receiver = make_receiver("evict-reload", LAYOUT, h)
        receiver.prepare()                      # no clflush involved
        assert h.stats.flushes == 0
        assert receiver.measure(0)[0].latencies[2] == 242

    def test_measure_is_repeatable(self):
        h = paper_hierarchy()
        receiver = make_receiver("flush-reload", LAYOUT, h)
        receiver.prepare()
        warm(h, LAYOUT.line(3))
        first = receiver.measure(0)[0]
        second = receiver.measure(0)[0]
        assert first.latencies == second.latencies

    def test_noise_overlay(self):
        h = paper_hierarchy()
        receiver = make_receiver("flush-reload", LAYOUT, h)
        receiver.prepare()
        warm(h, LAYOUT.line(3))
        model = NoiseModel(evict_rate=1.0)
        draw = model.draw(SplitMix64(1), receiver.noise_lines(),
                          LAYOUT.entries)
        noisy = receiver.measure(0, (draw,))[0]
        assert all(lat == 242 for lat in noisy.latencies)  # signal erased
        pollute = NoiseModel(pollute_rate=1.0).draw(
            SplitMix64(1), receiver.noise_lines(), LAYOUT.entries)
        assert all(lat == 2
                   for lat in receiver.measure(0, (pollute,))[0].latencies)

    def test_jitter_keeps_latency_positive(self):
        h = paper_hierarchy()
        receiver = make_receiver("flush-reload", LAYOUT, h)
        receiver.prepare()
        draw = NoiseModel(jitter=500).draw(
            SplitMix64(3), receiver.noise_lines(), LAYOUT.entries)
        assert all(lat >= 1
                   for lat in receiver.measure(0, (draw,))[0].latencies)


class TestPrimeProbe:
    def test_detects_victim_fill(self):
        h = paper_hierarchy()
        receiver = make_receiver("prime-probe", LAYOUT, h)
        receiver.prepare()
        # Victim fills its transmit line into L3, evicting a primed way.
        h.l3.fill(LAYOUT.line(9))
        vector = receiver.measure(0)[0]
        assert not vector.signal_low
        assert vector.latencies[9] == 242       # one primed way missing
        assert all(lat == 42 for i, lat in enumerate(vector.latencies)
                   if i != 9)

    def test_never_touches_victim_lines(self):
        h = paper_hierarchy()
        receiver = make_receiver("prime-probe", LAYOUT, h)
        receiver.prepare()
        receiver.measure(0)
        assert all(not h.l3.probe(LAYOUT.line(i))
                   for i in range(LAYOUT.entries))
        assert h.stats.flushes == 0

    def test_paper_geometry_distinct_l3_sets(self):
        """512-byte stride x 256 entries -> 256 distinct L3 sets (full
        byte resolution), the property the receiver relies on."""
        h = paper_hierarchy()
        layout = ProbeLayout(base=1 << 20, entries=256, stride=512)
        shift = (h.l3.config.line_bytes - 1).bit_length()
        mask = h.l3.config.n_sets - 1
        sets = {(layout.line(i) >> shift) & mask
                for i in range(layout.entries)}
        assert len(sets) == layout.entries


class TestRegistry:
    def test_known_receivers(self):
        assert receiver_class("flush-reload") is FlushReloadReceiver
        assert receiver_class("evict-reload") is EvictReloadReceiver
        assert receiver_class("prime-probe") is PrimeProbeReceiver

    def test_unknown_receiver(self):
        with pytest.raises(KeyError, match="unknown receiver"):
            receiver_class("rowhammer")

    def test_flags(self):
        assert FlushReloadReceiver.uses_clflush
        assert not EvictReloadReceiver.uses_clflush
        assert not PrimeProbeReceiver.uses_clflush
        assert PrimeProbeReceiver.needs_calibration
        assert not PrimeProbeReceiver.signal_low


class TestFig9Equivalence:
    """Acceptance: noise off, trials=1 -> the exact Fig. 9 result."""

    def test_flush_reload_matches_in_program_probe(self):
        in_program = run_specrun("pht", secret_value=86)
        byte, = extract_secret([86], receiver="flush-reload",
                               trials=1).bytes_
        assert in_program.succeeded
        assert byte.recovered == in_program.recovered_secret == 86
        assert byte.decode.report.hits == in_program.report.hits == [86]
        assert byte.confidence == 1.0

    @pytest.mark.parametrize("receiver", ["evict-reload", "prime-probe"])
    def test_other_receivers_recover_cleanly(self, receiver):
        result = extract_secret([86], receiver=receiver, trials=1)
        byte, = result.bytes_
        assert byte.recovered == 86, result.describe()
        assert byte.confidence == 1.0

    def test_external_probe_program_has_no_latencies(self):
        attack = build_attack("pht", external_probe=True)
        assert attack.external_probe
        with pytest.raises(RuntimeError, match="external-probe"):
            attack.read_latencies(core=None)


class TestCrossCoreBinding:
    """``cross_core()`` rebases the fast reference to the shared LLC."""

    def test_reload_receiver_rebases_hit_latency(self):
        hierarchy = paper_hierarchy()
        layout = ProbeLayout(base=1 << 20, entries=4, stride=512)
        receiver = FlushReloadReceiver(layout, hierarchy)
        assert receiver.hit_latency == hierarchy.config.data_hit_latency
        assert receiver.cross_core() is receiver
        assert receiver.hit_latency == hierarchy.config.llc_hit_latency

    def test_prime_probe_is_already_llc_referenced(self):
        hierarchy = paper_hierarchy()
        layout = ProbeLayout(base=1 << 20, entries=4, stride=512)
        receiver = PrimeProbeReceiver(layout, hierarchy)
        before = receiver.hit_latency
        receiver.cross_core()
        assert receiver.hit_latency == before == \
            hierarchy.config.llc_hit_latency
