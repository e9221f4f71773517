"""Unit and property tests for the set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import CacheConfig, SetAssociativeCache
from tests.sim import occupancy, resident_lines


def make_cache(size=1024, assoc=2, line=64):
    return SetAssociativeCache(CacheConfig("test", size, assoc,
                                           line_bytes=line))


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        assert cache.config.n_sets == 8
        assert cache.config.size_bytes // cache.config.line_bytes == 16

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 2, line_bytes=64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheConfig("bad", 3 * 64 * 2, 2))

    def test_line_of_masks_offset(self):
        cache = make_cache()
        cache.fill(0x1234)
        assert resident_lines(cache) == [0x1200]


class TestHitMiss:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_different_offsets(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.lookup(0x1038)  # same 64B line

    def test_probe_has_no_side_effects(self):
        cache = make_cache()
        cache.fill(0x1000)
        before = (cache.stats.hits, cache.stats.misses)
        assert cache.probe(0x1000)
        assert not cache.probe(0x2000)
        assert (cache.stats.hits, cache.stats.misses) == before

    def test_invalidate(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.probe(0x1000)
        assert not cache.invalidate(0x1000)


class TestEviction:
    def test_lru_evicts_least_recent(self):
        cache = make_cache(size=256, assoc=2, line=64)  # 2 sets
        # Three lines mapping to set 0: line numbers 0, 2, 4 (stride 128).
        cache.fill(0x000)
        cache.fill(0x100)
        cache.lookup(0x000)          # refresh line 0
        evicted = cache.fill(0x200)  # must evict 0x100
        assert evicted == 0x100
        assert cache.probe(0x000)
        assert not cache.probe(0x100)

    def test_refill_and_stealth_lookup_recency(self):
        """A refill of a resident line refreshes it; a probe (the
        side-effect-free lookup) does not."""
        cache = make_cache(size=256, assoc=2, line=64)  # 2 sets
        cache.fill(0x000)
        cache.fill(0x100)
        cache.fill(0x000)                   # refresh line 0
        assert cache.fill(0x200) == 0x100
        assert cache.probe(0x000)
        assert cache.fill(0x300) == 0x000

    def test_refill_of_resident_line_evicts_nothing(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.fill(0x1000) is None
        assert cache.stats.evictions == 0


class TestLazySets:
    """A set's way list exists only once the set is filled."""

    @staticmethod
    def allocated(cache):
        return [i for i, ways in enumerate(cache._sets) if ways is not None]

    def test_fresh_cache_allocates_no_set(self):
        cache = make_cache(size=4 * 1024 * 1024, assoc=8)
        assert self.allocated(cache) == []
        assert occupancy(cache) == 0
        assert resident_lines(cache) == []

    def test_reads_of_untouched_sets_allocate_nothing(self):
        cache = make_cache()             # 8 sets
        assert not cache.probe(0x1000)
        assert not cache.lookup(0x1040)
        assert not cache.lookup(0x1080)
        assert not cache.invalidate(0x10c0)
        assert self.allocated(cache) == []
        assert cache.stats.misses == 2

    def test_fill_allocates_only_its_set(self):
        cache = make_cache()
        cache.fill(0x1040)               # line 0x41 -> set 1
        assert self.allocated(cache) == [1]
        assert cache.invalidate(0x1040)
        assert occupancy(cache) == 0
        assert resident_lines(cache) == []


class TestOccupancyInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, line_indices):
        cache = make_cache(size=512, assoc=2, line=64)
        for index in line_indices:
            cache.fill(index * 64)
            assert occupancy(cache) <= \
                cache.config.size_bytes // cache.config.line_bytes
            for ways in cache._sets:
                assert ways is None or len(ways) <= cache.config.assoc

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=31)),
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_fill_then_probe_consistency(self, ops):
        """A line is present iff its last fill was not followed by eviction
        or invalidation — tracked against a reference set."""
        cache = make_cache(size=4096, assoc=64, line=64)  # 1 set, 64 ways
        reference = set()
        for is_fill, index in ops:
            addr = index * 64
            if is_fill:
                cache.fill(addr)
                reference.add(addr)   # assoc 64 > 32 lines: never evicts
            else:
                cache.invalidate(addr)
                reference.discard(addr)
            assert cache.probe(addr) == (addr in reference)

    def test_resident_lines_round_trip(self):
        cache = make_cache()
        for addr in (0x0, 0x40, 0x80):
            cache.fill(addr)
        assert sorted(resident_lines(cache)) == [0x0, 0x40, 0x80]
