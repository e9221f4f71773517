"""Shared-L3 hierarchy semantics: inclusion, back-invalidation, flushes.

The multi-core refactor's contracts, pinned as tests:

* with two or more views the L3 is **inclusive** — every line resident
  in any core's L1/L2 is L3-resident — and evicting a line from L3
  **back-invalidates** every private copy on every core;
* a single-view hierarchy keeps the historical *non*-inclusive
  behaviour (bit-identical single-core runs — the golden-stats
  fixtures depend on it);
* ``flush_line`` from any core is a coherence-domain flush: it clears
  the shared L3 copy, every other core's private copies, and drops
  in-flight fills on any core (whose stalled loads still complete);
* ``probe_latency`` is read-only — stats, residency and LRU state are
  unchanged — under arbitrary multi-core state;
* the shared level holds its views weakly, visits them in attach order
  and turns inclusion on at the second attached view.

The invariant checks run under randomized multi-core access sequences
driven by the repo's own SplitMix64 (deterministic across platforms).
"""

import dataclasses
import weakref

import pytest

from repro.channel.noise import SplitMix64
from repro.memory import (LEVEL_L1, LEVEL_L2, LEVEL_L3, LEVEL_MEM,
                          PHYS_WINDOW_STRIDE, HierarchyConfig,
                          MemoryHierarchy, SharedHierarchy)
from tests.sim import live_views, present_in, resident_lines, warm


def make_shared(cores=2, config=None):
    """A shared level and its ``cores`` views.  The shared level holds
    its views weakly: the caller keeps them alive by holding the list."""
    shared = SharedHierarchy(config or HierarchyConfig.small())
    return shared, [shared.add_core() for _ in range(cores)]


def private_lines(view):
    """Every line resident in the view's private caches."""
    lines = set()
    for cache in (view.l1i, view.l1d, view.l2):
        lines.update(resident_lines(cache))
    return lines


def assert_inclusive(shared):
    l3_lines = set(resident_lines(shared.l3))
    for view in live_views(shared):
        missing = private_lines(view) - l3_lines
        assert not missing, \
            f"core {view.view_id}: private lines not in L3: {sorted(missing)}"


def random_walk(shared, rng, steps, addr_space=1 << 15):
    """Drive a randomized multi-core access sequence; returns final time."""
    now = 0
    views = live_views(shared)
    for _ in range(steps):
        view = views[rng.next_u64() % len(views)]
        addr = rng.next_u64() % addr_space
        op = rng.next_u64() % 8
        if op < 4:
            view.access_data(addr, now)
        elif op < 6:
            view.access_inst(addr, now)
        elif op == 6:
            warm(view, addr)
        else:
            view.flush_line(addr)
        now += 1 + rng.next_u64() % 40
    shared.apply_completed(now + 10_000)
    return now + 10_000


class TestInclusion:
    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_inclusive_under_random_multicore_traffic(self, cores, seed):
        shared, views = make_shared(cores=cores)
        rng = SplitMix64(seed)
        now = 0
        for round_ in range(8):
            view = views[rng.next_u64() % cores]
            for _ in range(80):
                addr = rng.next_u64() % (1 << 15)
                view.access_data(addr, now)
                now += 1 + rng.next_u64() % 25
            shared.apply_completed(now + 5_000)
            now += 5_000
            assert_inclusive(shared)
        random_walk(shared, rng, steps=200)
        assert_inclusive(shared)

    def test_l3_eviction_back_invalidates_every_core(self):
        shared, (a, b) = make_shared(cores=2)
        config = shared.l3.config
        set_span = config.n_sets * config.line_bytes
        target = 0x1000
        warm(a, target)                    # resident in a's L1D, L2, L3
        warm(b, target)                    # and in b's private caches
        # Fill the target's L3 set with `assoc` fresh conflicting lines,
        # evicting the target from L3.
        for way in range(config.assoc):
            shared.l3.fill(target + (way + 1) * set_span)
        assert not shared.l3.probe(target)
        for view in (a, b):
            assert not present_in(view, target, LEVEL_L1)
            assert not present_in(view, target, LEVEL_L2)
            assert not view.l1i.probe(target)

    def test_single_view_stays_non_inclusive(self):
        """Legacy single-core behaviour: no back-invalidation (pinned by
        the golden-stats fixtures; this is the unit-level witness)."""
        hierarchy = MemoryHierarchy(HierarchyConfig.small())
        config = hierarchy.l3.config
        set_span = config.n_sets * config.line_bytes
        target = 0x1000
        warm(hierarchy, target)
        for way in range(config.assoc):
            hierarchy.l3.fill(target + (way + 1) * set_span)
        assert not hierarchy.l3.probe(target)
        assert present_in(hierarchy, target, LEVEL_L1)   # survives

    def test_inclusive_turns_on_at_the_second_attached_view(self):
        shared = SharedHierarchy(HierarchyConfig.small())
        assert not shared.l3.inclusive
        victim = shared.add_core()
        assert not shared.l3.inclusive
        smt = shared.add_smt_thread(victim)
        assert shared.l3.inclusive
        corunner = shared.add_core(phys_base=PHYS_WINDOW_STRIDE)
        assert shared.l3.inclusive
        assert [victim.view_id, smt.view_id, corunner.view_id] == [0, 1, 2]

    def test_dropping_a_view_keeps_inclusion_on(self):
        """The rule counts views attached, not views alive: a view freed
        mid-experiment never turns back-invalidation off."""
        shared, (victim, attacker) = make_shared(cores=2)
        del attacker
        assert live_views(shared) == [victim]
        assert shared.l3.inclusive



class TestCrossCoreFlush:
    def test_flush_from_one_core_clears_all_copies(self):
        shared, (a, b, c) = make_shared(cores=3)
        for view in (a, b):
            warm(view, 0x2000)
        c.flush_line(0x2000)
        assert not shared.l3.probe(0x2000)
        for view in (a, b, c):
            for level in (LEVEL_L1, LEVEL_L2):
                assert not present_in(view, 0x2000, level)
        assert c.stats.flushes == 1
        assert a.stats.flushes == 0      # charged to the flushing core

    def test_flush_drops_other_cores_pending_fill(self):
        """Fig. 10 case ③ across cores: B flushes while A's fill is in
        flight — the fill is dropped, A's waiter still completes, and a
        later access restarts a real memory request."""
        shared, (a, b) = make_shared(cores=2)
        first = a.access_data(0x3000, now=0)
        assert first.level == LEVEL_MEM
        b.flush_line(0x3000)
        assert a.stats.dropped_fills == 1
        assert b.stats.dropped_fills == 0
        shared.apply_completed(first.completion + 1)
        assert not shared.l3.probe(0x3000)
        assert not present_in(a, 0x3000, LEVEL_L1)
        again = a.access_data(0x3000, now=first.completion + 2)
        assert again.level == LEVEL_MEM
        assert a.stats.mem_requests == 2

    def test_flush_mid_pending_does_not_drop_twice(self):
        shared, (a, b) = make_shared(cores=2)
        a.access_data(0x3000, now=0)
        b.flush_line(0x3000)
        a.flush_line(0x3000)             # second flush: already dropped
        assert a.stats.dropped_fills == 1
        assert a.stats.flushes == 1
        assert b.stats.flushes == 1

    def test_new_fill_after_drop_installs_normally(self):
        shared, (a, b) = make_shared(cores=2)
        first = a.access_data(0x4000, now=0)
        b.flush_line(0x4000)
        second = a.access_data(0x4000, now=first.completion + 1)
        assert second.level == LEVEL_MEM
        shared.apply_completed(second.completion + 1)
        assert present_in(a, 0x4000, LEVEL_L1)
        assert shared.l3.probe(0x4000)


class TestCrossCoreVisibility:
    def test_fill_by_one_core_is_llc_visible_to_another(self):
        shared, (victim, attacker) = make_shared(cores=2)
        result = victim.access_data(0x5000, now=0)
        shared.apply_completed(result.completion + 1)
        assert present_in(attacker, 0x5000, LEVEL_L3)
        assert not present_in(attacker, 0x5000, LEVEL_L1)
        latency, level = attacker.probe_latency(0x5000,
                                                result.completion + 1)
        assert level == LEVEL_L3
        assert latency == shared.config.llc_hit_latency

    def test_probe_applies_other_views_completed_fills(self):
        """A cross-core receiver probing at ``now`` must observe the
        victim's fills whose completion has passed, even if the victim
        never accessed the hierarchy again."""
        shared, (victim, attacker) = make_shared(cores=2)
        result = victim.access_data(0x6000, now=0)
        latency, level = attacker.probe_latency(0x6000,
                                                result.completion + 1)
        assert level == LEVEL_L3

    def test_phys_windows_do_not_alias(self):
        shared = SharedHierarchy(HierarchyConfig.small())
        victim = shared.add_core(phys_base=0)
        corunner = shared.add_core(phys_base=PHYS_WINDOW_STRIDE)
        result = corunner.access_data(0x7000, now=0)
        assert result.line == PHYS_WINDOW_STRIDE + 0x7000
        shared.apply_completed(result.completion + 1)
        # The victim's view of virtual 0x7000 is a *different* line.
        assert not present_in(victim, 0x7000, LEVEL_L3)
        assert victim.probe_latency(0x7000, result.completion + 1)[1] \
            == LEVEL_MEM

    def test_smt_thread_shares_private_caches(self):
        shared = SharedHierarchy(HierarchyConfig.small())
        victim = shared.add_core()
        smt = shared.add_smt_thread(victim, phys_base=PHYS_WINDOW_STRIDE)
        assert smt.l1d is victim.l1d and smt.l2 is victim.l2
        result = smt.access_data(0x100, now=0)
        shared.apply_completed(result.completion + 1)
        # The fill landed in the *shared* L1D (at the SMT thread's
        # physical window) — the victim's L1 now holds the line too.
        assert victim.l1d.probe(PHYS_WINDOW_STRIDE + 0x100)
        # Pending-fill bookkeeping and stats stay per thread.
        assert smt.stats.mem_requests == 1
        assert victim.stats.mem_requests == 0

    def test_smt_thread_rejects_foreign_sibling(self):
        shared, _ = make_shared(cores=1)
        _, (foreign,) = make_shared(cores=1)
        with pytest.raises(ValueError, match="another hierarchy"):
            shared.add_smt_thread(foreign)

    def test_view_config_mismatch_rejected(self):
        shared, _ = make_shared(cores=0)
        with pytest.raises(ValueError, match="config disagrees"):
            MemoryHierarchy(HierarchyConfig.paper(), shared=shared)


class TestViewRegistry:
    """The shared level holds its views weakly, in attach order."""

    def test_views_are_visited_in_attach_order(self):
        shared, views = make_shared(cores=3)
        assert live_views(shared) == views
        config = shared.l3.config
        set_span = config.n_sets * config.line_bytes
        # Three misses to one L3 set, issued in reverse attach order and
        # installed by one apply_completed: the views are visited in
        # attach order, so the last view's line is the MRU way.
        lines = [0x1000 + index * set_span for index in range(3)]
        completions = {view.access_data(line, now=0).completion
                       for view, line in zip(reversed(views),
                                             reversed(lines))}
        shared.apply_completed(max(completions))
        ordered = [line for line in resident_lines(shared.l3)
                   if line in lines]
        assert ordered == lines

    def test_a_dropped_view_is_freed_and_skipped(self):
        shared, views = make_shared(cores=3)
        dropped = weakref.ref(views[1])
        del views[1]
        assert dropped() is None       # freed by reference counting
        assert live_views(shared) == views
        views[0].access_data(0x2000, now=0)
        assert shared.next_event() == views[0].next_fill
        views[1].flush_line(0x2000)
        assert views[0].stats.dropped_fills == 1

    def test_the_shared_level_lives_as_long_as_a_view(self):
        shared, (view,) = make_shared(cores=1)
        alive = weakref.ref(shared)
        del shared
        assert alive() is view.shared
        del view
        assert alive() is None


def hierarchy_snapshot(shared):
    """Full observable state: residency *and* recency order and stats."""
    state = []
    for view in live_views(shared):
        for cache in (view.l1i, view.l1d, view.l2):
            state.append(resident_lines(cache))
            state.append(dataclasses.asdict(cache.stats))
        state.append(dict(view._pending))
        state.append(dataclasses.asdict(view.stats))
    state.append(resident_lines(shared.l3))
    state.append(dataclasses.asdict(shared.l3.stats))
    return repr(state)


class TestProbeReadOnly:
    @pytest.mark.parametrize("seed", [3, 99])
    def test_probe_latency_has_no_side_effects(self, seed):
        shared, views = make_shared(cores=2)
        rng = SplitMix64(seed)
        now = random_walk(shared, rng, steps=150)
        before = hierarchy_snapshot(shared)
        for view in views:
            for _ in range(200):
                view.probe_latency(rng.next_u64() % (1 << 15), now)
        assert hierarchy_snapshot(shared) == before

    def test_present_in_has_no_side_effects(self):
        shared, views = make_shared(cores=2)
        rng = SplitMix64(11)
        random_walk(shared, rng, steps=100)
        before = hierarchy_snapshot(shared)
        for view in views:
            for level in (LEVEL_L1, LEVEL_L2, LEVEL_L3):
                for _ in range(50):
                    present_in(view, rng.next_u64() % (1 << 15), level)
        assert hierarchy_snapshot(shared) == before
