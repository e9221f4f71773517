"""Cache hierarchy: per-core private slices over a shared last-level cache.

The hierarchy is split along the boundary real multi-core parts share:

* :class:`SharedHierarchy` owns the **L3 and the memory channel** — the
  resources every core (and SMT thread) on the socket contends for.
* :class:`MemoryHierarchy` is one core's
  **private slice** — L1I/L1D/L2, its MSHRs (pending fills) and its
  statistics — plus references to the shared level.  The view owns the
  shared level, never the other way round: the shared level reaches its
  views through weak references, so nothing in a core's simulator forms
  a reference cycle.  It preserves the
  exact single-core API the pipeline, the runahead controllers and the
  covert-channel receivers bind to; a standalone ``MemoryHierarchy()``
  transparently builds its own single-view shared level, so single-core
  callers never see the split.

The design decisions that the SPECRUN experiments depend on:

* **Lazy fills.**  A miss to main memory registers a *pending fill*; the
  line becomes probe-visible only at its completion cycle.  A runahead
  prefetch issued at cycle T is therefore invisible to the attacker's
  probe until T + memory latency — and `clflush` on an in-flight line
  (Fig. 10 case ③) drops the fill while the stalling load still receives
  its data, so runahead can re-enter.
* **MSHR merging.**  A second access to an in-flight line does not issue a
  new memory request; it simply waits for the existing completion.
  MSHRs are per core view, as in real private-cache miss handling: two
  *different* cores missing the same line each issue a request (they
  still contend on the shared channel).
* **Hit-path fills are immediate.**  L2/L3 hits install the line into the
  levels above right away; the tens-of-cycles visibility error this
  introduces is irrelevant to every experiment, while the memory-path
  laziness above is load-bearing.
* **Inclusive, back-invalidating L3 — multi-core only.**  With two or
  more views attached, evicting a line from the shared L3 invalidates
  every private copy on every core (the property cross-core
  prime+probe and evict+reload rely on: priming an L3 set pushes the
  victim's line out of the victim's own L1/L2).  A single-view
  hierarchy keeps the historical non-inclusive behaviour so the
  single-core golden-stats fixtures stay byte-identical.
* **Per-core physical windows.**  Each view can carry a ``phys_base``
  offset applied to every address it is handed, so co-runner streams
  assembled at the same low virtual addresses as the victim occupy
  disjoint lines in the shared L3.  The victim and the attacker's
  measurement view use base 0 (flush+reload's shared-memory
  assumption); co-runners get 1 GiB-aligned windows, preserving set
  indices at every level.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.events import (EV_CACHE_EVICT as _EV_EVICT,
                          EV_CACHE_FILL as _EV_FILL,
                          EV_CACHE_PROBE as _EV_PROBE,
                          EV_FLUSH as _EV_FLUSH,
                          EV_MEM_ACCESS as _EV_ACCESS, LEVEL_IDS)
from .cache import CacheConfig, SetAssociativeCache
from .main_memory import MemoryChannel

LEVEL_L1 = "l1"
LEVEL_L2 = "l2"
LEVEL_L3 = "l3"
LEVEL_MEM = "mem"
LEVEL_PENDING = "pending"

#: "No pending fill" sentinel for the next-fill fast path (any real
#: completion cycle compares smaller).
_NO_FILL = float("inf")

#: Stride between per-core physical windows (1 GiB: a multiple of every
#: cache's set span, so offsetting preserves set indices).
PHYS_WINDOW_STRIDE = 1 << 30

#: LEVEL_* string -> small int for trace-event payload slots.
_LID_L1 = LEVEL_IDS[LEVEL_L1]
_LID_L2 = LEVEL_IDS[LEVEL_L2]
_LID_L3 = LEVEL_IDS[LEVEL_L3]
_LID_MEM = LEVEL_IDS[LEVEL_MEM]
_LID_PENDING = LEVEL_IDS[LEVEL_PENDING]


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry per Table 1 of the paper (see ``paper()``)."""

    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    mem_latency: int = 200
    mem_occupancy: int = 8

    @classmethod
    def paper(cls):
        """The exact Table-1 configuration."""
        return cls(
            l1i=CacheConfig("l1i", 16 * 1024, 4, latency=2),
            l1d=CacheConfig("l1d", 16 * 1024, 4, latency=2),
            l2=CacheConfig("l2", 128 * 1024, 8, latency=8),
            l3=CacheConfig("l3", 4 * 1024 * 1024, 8, latency=32),
            mem_latency=200,
            mem_occupancy=8,
        )

    @classmethod
    def small(cls, mem_latency=200, mem_occupancy=8):
        """A scaled-down hierarchy for fast unit tests."""
        return cls(
            l1i=CacheConfig("l1i", 1024, 2, latency=2),
            l1d=CacheConfig("l1d", 1024, 2, latency=2),
            l2=CacheConfig("l2", 4 * 1024, 4, latency=8),
            l3=CacheConfig("l3", 16 * 1024, 4, latency=32),
            mem_latency=mem_latency,
            mem_occupancy=mem_occupancy,
        )

    @property
    def line_bytes(self):
        return self.l1d.line_bytes

    @property
    def data_hit_latency(self):
        """Latency of an L1D hit (the fastest possible data access)."""
        return self.l1d.latency

    @property
    def llc_hit_latency(self):
        """Latency of an access served by the shared L3 (the fastest a
        *cross-core* observation of another core's fill can be)."""
        return self.l1d.latency + self.l2.latency + self.l3.latency

    @property
    def data_miss_latency(self):
        """Nominal latency of a full walk to main memory (no contention)."""
        return (self.l1d.latency + self.l2.latency + self.l3.latency +
                self.mem_latency)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one hierarchy access."""

    latency: int          # cycles from the access until data is available
    level: str            # which level served it (LEVEL_* constant)
    completion: int       # absolute cycle at which data is available
    line: int             # block-aligned (physical) address
    merged: bool = False  # True if this access merged into an in-flight fill

    @property
    def is_memory_level(self):
        """True if the data had to come from main memory (runahead trigger)."""
        return self.level in (LEVEL_MEM, LEVEL_PENDING)


@dataclass(slots=True)
class _PendingFill:
    completion: int
    fill_data: bool       # install into the data-side caches on completion
    fill_inst: bool       # install into L1I on completion
    order: int            # the line's place in install (``_pending``) order
    dropped: bool = False # clflush arrived while in flight


@dataclass
class HierarchyStats:
    data_accesses: int = 0
    inst_accesses: int = 0
    mem_requests: int = 0
    merged_requests: int = 0
    flushes: int = 0
    dropped_fills: int = 0
    prefetch_requests: int = 0


class _SharedL3(SetAssociativeCache):
    """The shared last-level cache.

    Identical to :class:`SetAssociativeCache` except that, when
    ``inclusive`` (two or more views attached), every eviction
    **back-invalidates** the victim line from every core's private
    caches.  Routing this through the cache object itself (rather than
    the hierarchy walk) means direct fills — notably the receivers'
    priming/eviction-set construction — uphold inclusion too.

    ``views`` is the shared level's view registry (weak references, in
    attach order): neither the L3 nor its :class:`SharedHierarchy`
    owns a view.
    """

    def __init__(self, config: CacheConfig, views: List[weakref.ref]):
        super().__init__(config)
        self._views = views
        self.inclusive = False

    def fill(self, addr):
        evicted = super().fill(addr)
        if evicted is not None and self.inclusive:
            self.back_invalidate(evicted)
        return evicted

    def back_invalidate(self, line):
        """Clear every private copy of ``line``, on every live view."""
        for ref in self._views:
            view = ref()
            if view is not None:
                view.l1d.invalidate(line)
                view.l1i.invalidate(line)
                view.l2.invalidate(line)


class SharedHierarchy:
    """The socket-level shared slice: L3, memory channel, core views.

    Ownership points one way — core → its view → this shared level →
    L3/channel — so a trial's whole simulator is freed by reference
    counting the moment the trial drops it.  The view registry
    therefore holds weak references, in attach order: the shared level
    reaches every live view (for back-invalidation, flushes and due
    fills) without owning one, and the caller holds each view it
    attaches::

        shared = SharedHierarchy(config)
        victim = shared.add_core()                  # phys window 0
        noisy  = shared.add_core(phys_base=PHYS_WINDOW_STRIDE)
        smt    = shared.add_smt_thread(victim,
                                       phys_base=2 * PHYS_WINDOW_STRIDE)

    The L3 is inclusive once two or more views are attached — a
    single-view hierarchy behaves exactly like the historical monolithic
    ``MemoryHierarchy`` (no back-invalidation), which the golden-stats
    fixtures pin down.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig.paper()
        self._views: List[weakref.ref] = []
        self.l3 = _SharedL3(self.config.l3, self._views)
        self.channel = MemoryChannel(self.config.mem_latency,
                                     self.config.mem_occupancy)
        #: Never above any view's ``next_fill`` (views lower it when
        #: they start a fill), so ``apply_completed`` before it is a
        #: no-op and costs one compare.
        self.next_fill = _NO_FILL

    def _attach(self, view: "MemoryHierarchy") -> int:
        """Register ``view`` (its constructor calls this); returns its
        attach index.  Inclusion counts views *attached*, so a view
        dropped later never turns back-invalidation off mid-run."""
        index = len(self._views)
        self._views.append(weakref.ref(view))
        self.l3.inclusive = index > 0
        return index

    def add_core(self, phys_base: int = 0) -> "MemoryHierarchy":
        """Attach a new core view with its own private L1I/L1D/L2."""
        return MemoryHierarchy(shared=self, phys_base=phys_base)

    def add_smt_thread(self, sibling: "MemoryHierarchy",
                       phys_base: int = 0) -> "MemoryHierarchy":
        """Attach an SMT thread: shares ``sibling``'s private caches.

        The thread gets its own pending-fill map and statistics (its
        misses are its own) but fills and evicts the sibling's L1I/L1D/
        L2 — the co-runner interference an SMT pair actually has.
        """
        return MemoryHierarchy(shared=self, phys_base=phys_base,
                               smt_with=sibling)

    # -- shared-level operations ------------------------------------------------

    def flush_phys_line(self, line):
        """``clflush`` a physical line everywhere: every view's private
        caches, the shared L3, and any in-flight fill on any view (the
        waiting loads still complete — only the install is dropped)."""
        self.l3.back_invalidate(line)
        self.l3.invalidate(line)
        for ref in self._views:
            view = ref()
            if view is not None:
                pending = view._pending.get(line)
                if pending is not None and not pending.dropped:
                    pending.dropped = True
                    view.stats.dropped_fills += 1

    def apply_completed(self, now):
        """Install every view's pending fills whose completion passed."""
        if now < self.next_fill:
            return
        best = _NO_FILL
        for ref in self._views:
            view = ref()
            if view is not None:
                if now >= view.next_fill:
                    view.apply_completed(now)
                if view.next_fill < best:
                    best = view.next_fill
        self.next_fill = best

    def next_event(self):
        """Earliest pending-fill completion across all views, or None."""
        best = None
        for ref in self._views:
            view = ref()
            if view is not None and view._pending and (
                    best is None or view.next_fill < best):
                best = view.next_fill
        return best


class MemoryHierarchy:
    """One core's view: private L1I/L1D + L2 over the shared L3.

    Standalone construction (``MemoryHierarchy(config)``) builds a
    private single-view :class:`SharedHierarchy` underneath, preserving
    the historical single-core API and behaviour exactly.  Views of an
    explicit shared hierarchy are created through
    :meth:`SharedHierarchy.add_core` / :meth:`~SharedHierarchy.
    add_smt_thread`.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None, *,
                 shared: Optional[SharedHierarchy] = None,
                 phys_base: int = 0,
                 smt_with: Optional["MemoryHierarchy"] = None):
        if shared is None:
            shared = SharedHierarchy(config)
        elif config is not None and config != shared.config:
            raise ValueError(
                "config disagrees with the shared hierarchy's config")
        self.shared = shared
        self.config = shared.config
        self.phys_base = phys_base
        self.line_mask = ~(self.config.line_bytes - 1)
        if smt_with is not None:
            if smt_with.shared is not shared:
                raise ValueError("SMT sibling belongs to another hierarchy")
            self.l1i = smt_with.l1i
            self.l1d = smt_with.l1d
            self.l2 = smt_with.l2
        else:
            self.l1i = SetAssociativeCache(self.config.l1i)
            self.l1d = SetAssociativeCache(self.config.l1d)
            self.l2 = SetAssociativeCache(self.config.l2)
        self.l3 = shared.l3
        self.channel = shared.channel
        self._pending: Dict[int, _PendingFill] = {}
        #: Min-heap of ``(completion, order, line)``, one entry per fill
        #: started; an entry whose fill was installed or replaced since
        #: is stale and skipped (see :meth:`_current`).
        self._fills: List[Tuple[int, int, int]] = []
        #: ``order`` of the next line new to ``_pending``.
        self._next_order = 0
        #: Earliest completion among this view's pending fills (public
        #: so the core can gate its per-cycle ``apply_completed`` call
        #: on one integer compare).
        self.next_fill = _NO_FILL
        self.stats = HierarchyStats()
        #: Observability sink (repro.obs.sink) — ``None`` means tracing
        #: is off; sinks never influence timing, fills, or stats.
        self.trace = None
        self.view_id = shared._attach(self)

    # -- helpers -----------------------------------------------------------------

    def line_of(self, addr):
        """Physical line address of ``addr`` in this view's window.

        ``Core._fetch``, :meth:`access_data` and :meth:`access_inst`
        compute this inline; keep them alike."""
        return (addr + self.phys_base) & self.line_mask

    def _current(self, entry) -> bool:
        """Whether a ``_fills`` entry is the line's pending fill."""
        completion, order, line = entry
        pending = self._pending.get(line)
        return pending is not None and pending.completion == completion \
            and pending.order == order

    def _start_fill(self, line, completion, replaced, *, fill_data,
                    fill_inst):
        """Register a fill of ``line`` due at ``completion``.  A fill
        that replaces a ``replaced`` (dropped) one keeps its place in
        install order, as a dict keeps an overwritten key's place."""
        if replaced is None:
            order = self._next_order
            self._next_order += 1
        else:
            order = replaced.order
        self._pending[line] = _PendingFill(completion, fill_data, fill_inst,
                                           order)
        heapq.heappush(self._fills, (completion, order, line))
        if completion < self.next_fill:
            self.next_fill = completion
            if completion < self.shared.next_fill:
                self.shared.next_fill = completion

    def apply_completed(self, now):
        """Install every pending fill whose completion has passed, in the
        order their lines entered ``_pending``."""
        if now < self.next_fill:
            return
        pending_map = self._pending
        fills = self._fills
        due = {}
        while fills and fills[0][0] <= now:
            entry = heapq.heappop(fills)
            if self._current(entry):
                due[entry[1]] = entry[2]
        trace = self.trace
        for order in sorted(due):
            line = due[order]
            pending = pending_map.pop(line)
            if pending.dropped:
                continue
            if trace is None:
                if pending.fill_data:
                    self.l3.fill(line)
                    self.l2.fill(line)
                    self.l1d.fill(line)
                if pending.fill_inst:
                    self.l3.fill(line)
                    self.l2.fill(line)
                    self.l1i.fill(line)
                continue
            # Traced path: same fills, but capture each level's victim
            # so evictions become events.  fill() return values were
            # always produced — the untraced path merely ignores them.
            if pending.fill_data:
                levels = ((self.l3, _LID_L3), (self.l2, _LID_L2),
                          (self.l1d, _LID_L1))
            else:
                levels = ()
            if pending.fill_inst:
                levels += ((self.l3, _LID_L3), (self.l2, _LID_L2),
                           (self.l1i, _LID_L1))
            for cache, level_id in levels:
                evicted = cache.fill(line)
                trace.emit(now, _EV_FILL, line, level_id)
                if evicted is not None:
                    trace.emit(now, _EV_EVICT, evicted, level_id)
        while fills and not self._current(fills[0]):
            heapq.heappop(fills)
        self.next_fill = fills[0][0] if fills else _NO_FILL

    def next_event(self):
        """Earliest pending-fill completion, or None (for cycle skipping)."""
        if not self._pending:
            return None
        return self.next_fill

    # -- data path ----------------------------------------------------------------

    def access_data(self, addr, now, *, fill=True, prefetch=False):
        """Access the data side; returns an :class:`AccessResult`.

        ``fill=False`` lets the caller (the secure-runahead defense)
        receive the data without installing the line into any cache level.
        ``prefetch=True`` only affects statistics.
        """
        if now >= self.next_fill:
            self.apply_completed(now)
        line = (addr + self.phys_base) & self.line_mask
        self.stats.data_accesses += 1
        if prefetch:
            self.stats.prefetch_requests += 1

        trace = self.trace
        pending = self._pending.get(line)
        if pending is not None and not pending.dropped:
            # MSHR merge: wait on the in-flight fill.
            self.stats.merged_requests += 1
            if fill:
                pending.fill_data = True
            latency = max(1, pending.completion - now)
            if trace is not None:
                trace.emit(now, _EV_ACCESS, line, _LID_PENDING)
            return AccessResult(latency, LEVEL_PENDING, now + latency, line,
                                merged=True)

        l1_latency = self.config.l1d.latency
        if self.l1d.lookup(line):
            if trace is not None:
                trace.emit(now, _EV_ACCESS, line, _LID_L1)
            return AccessResult(l1_latency, LEVEL_L1, now + l1_latency, line)

        l2_latency = l1_latency + self.config.l2.latency
        if self.l2.lookup(line):
            if fill:
                self.l1d.fill(line)
                if trace is not None:
                    trace.emit(now, _EV_FILL, line, _LID_L1)
            if trace is not None:
                trace.emit(now, _EV_ACCESS, line, _LID_L2)
            return AccessResult(l2_latency, LEVEL_L2, now + l2_latency, line)

        l3_latency = l2_latency + self.config.l3.latency
        if self.l3.lookup(line):
            if fill:
                self.l2.fill(line)
                self.l1d.fill(line)
                if trace is not None:
                    trace.emit(now, _EV_FILL, line, _LID_L2)
                    trace.emit(now, _EV_FILL, line, _LID_L1)
            if trace is not None:
                trace.emit(now, _EV_ACCESS, line, _LID_L3)
            return AccessResult(l3_latency, LEVEL_L3, now + l3_latency, line)

        completion = self.channel.request(now) + l3_latency
        self.stats.mem_requests += 1
        self._start_fill(line, completion, pending, fill_data=fill,
                         fill_inst=False)
        if trace is not None:
            trace.emit(now, _EV_ACCESS, line, _LID_MEM)
        return AccessResult(completion - now, LEVEL_MEM, completion, line)

    # -- instruction path -----------------------------------------------------------

    def access_inst(self, addr, now):
        """Access the instruction side (L1I → L2 → L3 → memory)."""
        if now >= self.next_fill:
            self.apply_completed(now)
        line = (addr + self.phys_base) & self.line_mask
        self.stats.inst_accesses += 1

        pending = self._pending.get(line)
        if pending is not None and not pending.dropped:
            self.stats.merged_requests += 1
            pending.fill_inst = True
            latency = max(1, pending.completion - now)
            return AccessResult(latency, LEVEL_PENDING, now + latency, line,
                                merged=True)

        l1_latency = self.config.l1i.latency
        if self.l1i.lookup(line):
            return AccessResult(l1_latency, LEVEL_L1, now + l1_latency, line)

        l2_latency = l1_latency + self.config.l2.latency
        if self.l2.lookup(line):
            self.l1i.fill(line)
            return AccessResult(l2_latency, LEVEL_L2, now + l2_latency, line)

        l3_latency = l2_latency + self.config.l3.latency
        if self.l3.lookup(line):
            self.l2.fill(line)
            self.l1i.fill(line)
            return AccessResult(l3_latency, LEVEL_L3, now + l3_latency, line)

        completion = self.channel.request(now) + l3_latency
        self.stats.mem_requests += 1
        self._start_fill(line, completion, pending, fill_data=False,
                         fill_inst=True)
        return AccessResult(completion - now, LEVEL_MEM, completion, line)

    # -- maintenance -----------------------------------------------------------------

    def flush_line(self, addr):
        """``clflush``: evict from every level **on every core** and drop
        any in-flight fill anywhere (the flush is to the coherence
        domain, not to this view)."""
        self.stats.flushes += 1
        line = self.line_of(addr)
        if self.trace is not None:
            # The maintenance path is untimed; flush events carry
            # cycle 0 and order by stream position only.
            self.trace.emit(0, _EV_FLUSH, line)
        self.shared.flush_phys_line(line)

    def warm_code_range(self, start, size_bytes):
        """Warm a code region into *both* L1 caches (plus L2/L3).

        Instruction fetch hits L1I while flush+reload probes read the
        same addresses through the data side, so a hot code region must
        be resident on both paths.  One pass per line replaces the old
        warm-data-range-then-refill-L1I double walk in ``Core.__init__``.
        """
        line_bytes = self.config.line_bytes
        base = self.phys_base
        virt = start & ~(line_bytes - 1)
        end = start + size_bytes
        while virt < end:
            line = virt + base
            self.l3.fill(line)
            self.l2.fill(line)
            self.l1d.fill(line)
            self.l1i.fill(line)
            virt += line_bytes

    def probe_latency(self, addr, now):
        """Latency a data access at ``now`` *would* see — read-only.

        The covert-channel receivers (:mod:`repro.channel.receiver`) time
        their probes with this instead of :meth:`access_data`: it walks
        the same levels and charges the same cumulative latencies, but
        performs no fills, no LRU updates and no statistics, so a
        multi-trial receiver can re-measure the post-run hierarchy
        without the measurement perturbing what it measures.  (Pending
        fills that have completed by ``now`` are installed first —
        across *every* view of the shared hierarchy, exactly as any
        access at ``now`` would observe them; a cross-core receiver must
        see the victim's completed fills in the shared L3.)

        Returns ``(latency, level)`` with ``level`` a ``LEVEL_*``
        constant.  A still-in-flight line costs the remaining wait, as in
        the MSHR-merge path of :meth:`access_data`; a full miss costs the
        nominal (contention-free) memory walk.
        """
        self.shared.apply_completed(now)
        line = self.line_of(addr)
        trace = self.trace
        pending = self._pending.get(line)
        if pending is not None and not pending.dropped:
            if trace is not None:
                trace.emit(now, _EV_PROBE, line, _LID_PENDING)
            return max(1, pending.completion - now), LEVEL_PENDING
        latency = self.config.l1d.latency
        if self.l1d.probe(line):
            if trace is not None:
                trace.emit(now, _EV_PROBE, line, _LID_L1)
            return latency, LEVEL_L1
        latency += self.config.l2.latency
        if self.l2.probe(line):
            if trace is not None:
                trace.emit(now, _EV_PROBE, line, _LID_L2)
            return latency, LEVEL_L2
        latency += self.config.l3.latency
        if self.l3.probe(line):
            if trace is not None:
                trace.emit(now, _EV_PROBE, line, _LID_L3)
            return latency, LEVEL_L3
        if trace is not None:
            trace.emit(now, _EV_PROBE, line, _LID_MEM)
        return latency + self.config.mem_latency, LEVEL_MEM

