"""SL-cache unit tests (§6 quarantine buffer + counter C semantics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.defense import SLCache


class TestBasicOps:
    def test_insert_lookup(self):
        sl = SLCache(capacity=4)
        sl.insert(0x1000, btag=(1, 1), is_set={1}, ready_cycle=100)
        entry = sl.lookup(0x1000)
        assert entry is not None
        assert entry.is_usl
        assert entry.scope_ids == {1}
        assert sl.counter == 1

    def test_safe_entry(self):
        sl = SLCache(capacity=4)
        sl.insert(0x1000, btag=None, is_set=frozenset(), ready_cycle=0)
        assert not sl.lookup(0x1000).is_usl

    def test_btag_scope_counts_even_without_is(self):
        sl = SLCache(capacity=4)
        sl.insert(0x1000, btag=(3, 0), is_set=frozenset(), ready_cycle=0)
        assert sl.lookup(0x1000).scope_ids == {3}

    def test_promote_decrements_counter(self):
        sl = SLCache(capacity=4)
        sl.insert(0x1000, None, frozenset(), 0)
        entry = sl.promote(0x1000)
        assert entry is not None
        assert sl.counter == 0
        assert sl.lookup(0x1000) is None
        assert sl.stats.promotions == 1

    def test_capacity_fifo_eviction(self):
        sl = SLCache(capacity=2)
        sl.insert(0x0, None, frozenset(), 0)
        sl.insert(0x40, None, frozenset(), 0)
        sl.insert(0x80, None, frozenset(), 0)
        assert sl.lookup(0x0) is None        # oldest evicted
        assert sl.counter == 2
        assert sl.stats.evictions == 1

    def test_reinsert_replaces(self):
        sl = SLCache(capacity=2)
        sl.insert(0x0, None, frozenset(), 0)
        sl.insert(0x0, (1, 1), {1}, 50)
        assert sl.counter == 1
        assert sl.lookup(0x0).is_usl

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SLCache(capacity=0)


class TestScopeDeletion:
    def test_delete_by_btag_scope(self):
        sl = SLCache(capacity=8)
        sl.insert(0x0, (1, 1), {1}, 0)
        sl.insert(0x40, (2, 1), {2}, 0)
        deleted = sl.delete_scopes({1})
        assert deleted == 1
        assert sl.lookup(0x0) is None
        assert sl.lookup(0x40) is not None

    def test_delete_by_is_membership(self):
        sl = SLCache(capacity=8)
        sl.insert(0x0, None, {1, 2}, 0)   # outside-scope taint-related load
        assert sl.delete_scopes({2}) == 1

    def test_delete_nested_scopes_together(self):
        """Algorithm 1 line 16: the branch and its inner branches."""
        sl = SLCache(capacity=8)
        sl.insert(0x0, (1, 1), {1}, 0)
        sl.insert(0x40, (2, 1), {2}, 0)     # inner scope of 1
        sl.insert(0x80, (3, 1), {3}, 0)     # unrelated
        deleted = sl.delete_scopes({1, 2})
        assert deleted == 2
        assert sl.lookup(0x80) is not None

    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(1, 4)),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_counter_equals_resident_entries(self, inserts):
        sl = SLCache(capacity=16)
        for line_slot, scope in inserts:
            sl.insert(line_slot * 64, (scope, 1), {scope}, 0)
            assert sl.counter == sum(sl.lookup(slot * 64) is not None
                                     for slot in range(32))
            assert sl.counter <= 16
