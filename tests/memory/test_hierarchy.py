"""Unit tests for the memory hierarchy: lazy fills, merging, clflush."""

import pytest

from repro.memory import (LEVEL_L1, LEVEL_L2, LEVEL_L3, LEVEL_MEM,
                          LEVEL_PENDING, HierarchyConfig,
                          MainMemory, MemoryChannel, MemoryHierarchy,
                          SharedHierarchy)
from tests.sim import live_views, memory_words, present_in, resident_lines, warm


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(HierarchyConfig.paper())


class TestLatencies:
    def test_cold_miss_goes_to_memory(self, hierarchy):
        result = hierarchy.access_data(0x1000, now=0)
        assert result.level == LEVEL_MEM
        # L1 (2) + L2 (8) + L3 (32) + memory (200).
        assert result.latency == 242

    def test_l1_hit_after_fill_completes(self, hierarchy):
        first = hierarchy.access_data(0x1000, now=0)
        result = hierarchy.access_data(0x1000, now=first.completion + 1)
        assert result.level == LEVEL_L1
        assert result.latency == 2

    def test_l2_and_l3_hits(self, hierarchy):
        first = hierarchy.access_data(0x1000, now=0)
        now = first.completion + 1
        hierarchy.apply_completed(now)
        hierarchy.l1d.invalidate(0x1000)
        result = hierarchy.access_data(0x1000, now=now)
        assert result.level == LEVEL_L2
        assert result.latency == 10
        hierarchy.l1d.invalidate(0x1000)
        hierarchy.l2.invalidate(0x1000)
        result = hierarchy.access_data(0x1000, now=now + 1)
        assert result.level == LEVEL_L3
        assert result.latency == 42

    def test_warm_skips_timing(self, hierarchy):
        warm(hierarchy, 0x2000)
        result = hierarchy.access_data(0x2000, now=0)
        assert result.level == LEVEL_L1


class TestLazyFills:
    def test_line_invisible_until_completion(self, hierarchy):
        first = hierarchy.access_data(0x1000, now=0)
        assert not present_in(hierarchy, 0x1000, LEVEL_L1)
        mid = hierarchy.access_data(0x1000, now=first.completion - 10)
        assert mid.level == LEVEL_PENDING
        assert mid.merged
        assert mid.latency == 10
        hierarchy.apply_completed(first.completion)
        assert present_in(hierarchy, 0x1000, LEVEL_L1)
        assert present_in(hierarchy, 0x1000, LEVEL_L2)
        assert present_in(hierarchy, 0x1000, LEVEL_L3)

    def test_merged_request_issues_no_new_memory_request(self, hierarchy):
        hierarchy.access_data(0x1000, now=0)
        before = hierarchy.stats.mem_requests
        hierarchy.access_data(0x1000, now=5)
        assert hierarchy.stats.mem_requests == before
        assert hierarchy.stats.merged_requests == 1

    def test_no_fill_access_returns_data_without_install(self, hierarchy):
        result = hierarchy.access_data(0x1000, now=0, fill=False)
        hierarchy.apply_completed(result.completion + 1)
        assert not present_in(hierarchy, 0x1000, LEVEL_L1)
        assert not present_in(hierarchy, 0x1000, LEVEL_L3)

    def test_merge_upgrades_no_fill_to_fill(self, hierarchy):
        result = hierarchy.access_data(0x1000, now=0, fill=False)
        hierarchy.access_data(0x1000, now=1, fill=True)
        hierarchy.apply_completed(result.completion + 1)
        assert present_in(hierarchy, 0x1000, LEVEL_L1)

    def test_next_event_tracks_earliest_completion(self, hierarchy):
        assert hierarchy.next_event() is None
        first = hierarchy.access_data(0x1000, now=0)
        second = hierarchy.access_data(0x4000, now=3)
        assert hierarchy.next_event() == min(first.completion,
                                             second.completion)


class TestClflush:
    def test_flush_evicts_all_levels(self, hierarchy):
        warm(hierarchy, 0x1000)
        hierarchy.flush_line(0x1000)
        for level in (LEVEL_L1, LEVEL_L2, LEVEL_L3):
            assert not present_in(hierarchy, 0x1000, level)

    def test_flush_in_flight_drops_fill_but_waiter_completes(self, hierarchy):
        first = hierarchy.access_data(0x1000, now=0)
        hierarchy.flush_line(0x1000)   # Fig. 10 case ③
        hierarchy.apply_completed(first.completion + 1)
        assert not present_in(hierarchy, 0x1000, LEVEL_L1)
        assert hierarchy.stats.dropped_fills == 1
        # A new access after the drop restarts a real memory request.
        again = hierarchy.access_data(0x1000, now=first.completion + 2)
        assert again.level == LEVEL_MEM

    def test_flush_then_reload_timing_gap(self, hierarchy):
        """The covert-channel primitive: flushed lines are slow, cached fast."""
        warm(hierarchy, 0x8000)
        hit = hierarchy.access_data(0x8000, now=0)
        hierarchy.flush_line(0x8000)
        miss = hierarchy.access_data(0x8000, now=100)
        assert miss.latency > 5 * hit.latency


class TestContention:
    def test_back_to_back_misses_queue(self):
        hierarchy = MemoryHierarchy(HierarchyConfig.paper())
        first = hierarchy.access_data(0x0000, now=0)
        second = hierarchy.access_data(0x4000, now=0)
        assert second.completion == first.completion + \
            hierarchy.config.mem_occupancy

    def test_channel_idle_restart(self):
        channel = MemoryChannel(latency=100, occupancy=10)
        assert channel.request(0) == 100
        assert channel.request(0) == 110
        assert channel.request(500) == 600

    def test_channel_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MemoryChannel(latency=0)


class TestInstructionPath:
    def test_inst_miss_fills_l1i_not_l1d(self, hierarchy):
        result = hierarchy.access_inst(0x0, now=0)
        assert result.level == LEVEL_MEM
        hierarchy.apply_completed(result.completion + 1)
        assert hierarchy.l1i.probe(0x0)
        assert not hierarchy.l1d.probe(0x0)

    def test_inst_hit(self, hierarchy):
        first = hierarchy.access_inst(0x0, now=0)
        result = hierarchy.access_inst(0x0, now=first.completion + 1)
        assert result.level == LEVEL_L1
        assert result.latency == 2


class TestFacade:
    """A standalone MemoryHierarchy IS a single view of its own shared
    level — the facade the multi-core subsystem generalizes."""

    def test_standalone_builds_its_own_shared_level(self, hierarchy):
        assert live_views(hierarchy.shared) == [hierarchy]
        assert hierarchy.l3 is hierarchy.shared.l3
        assert hierarchy.channel is hierarchy.shared.channel
        assert not hierarchy.shared.l3.inclusive

    def test_explicit_single_view_behaves_identically(self):
        explicit = SharedHierarchy(HierarchyConfig.paper()).add_core()
        implicit = MemoryHierarchy(HierarchyConfig.paper())
        for h in (explicit, implicit):
            first = h.access_data(0x1000, now=0)
            assert first.level == LEVEL_MEM
            h.apply_completed(first.completion)
        assert explicit.probe_latency(0x1000, 10_000) == \
            implicit.probe_latency(0x1000, 10_000)

    def test_llc_hit_latency_is_the_full_walk_to_l3(self, hierarchy):
        config = hierarchy.config
        assert config.llc_hit_latency == (config.l1d.latency +
                                          config.l2.latency +
                                          config.l3.latency)

    def test_flush_drops_in_flight_fill_exactly_once(self, hierarchy):
        hierarchy.access_data(0x9000, now=0)
        hierarchy.flush_line(0x9000)
        hierarchy.flush_line(0x9000)
        assert hierarchy.stats.dropped_fills == 1
        assert hierarchy.stats.flushes == 2

    def test_refill_of_dropped_line_keeps_its_install_order(self, hierarchy):
        """Due fills install in the order their lines entered the pending
        map; a fill that replaces a dropped one keeps that line's place,
        though it now completes after fills started later."""
        first = 0x1000
        l1d = hierarchy.l1d
        second = first + l1d.config.n_sets * l1d.config.line_bytes
        hierarchy.access_data(first, now=0)
        later = hierarchy.access_data(second, now=1)
        hierarchy.flush_line(first)
        refill = hierarchy.access_data(first, now=2)
        assert refill.level == LEVEL_MEM
        assert refill.completion > later.completion
        hierarchy.apply_completed(refill.completion)
        # One L1D set, eviction candidate first: first installed first.
        assert resident_lines(l1d) == [first, second]


class TestMainMemory:
    def test_read_write(self):
        mem = MainMemory()
        mem.write_word(0x100, 7)
        assert mem.read_word(0x100) == 7
        assert mem.read_word(0x108) == 0

    def test_misaligned_rejected(self):
        mem = MainMemory()
        with pytest.raises(ValueError):
            mem.read_word(0x101)
        with pytest.raises(ValueError):
            mem.write_word(0x103, 1)

    def test_snapshot_is_a_copy(self):
        mem = MainMemory()
        mem.write_word(0x0, 1)
        snap = memory_words(mem)
        mem.write_word(0x0, 2)
        assert snap[0x0] == 1
