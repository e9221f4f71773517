"""Synthetic SPEC-like trace generators.

Each generator fabricates a :class:`~repro.trace.format.Trace` with the
dominant access *structure* of a benchmark family from the runahead
literature, without any recorded input:

===========  =========================================================
mcf-style    pointer chase over a shuffled node graph (dependent
             loads — unprefetchable) plus independent strided arc
             reads that supply the memory-level parallelism
lbm-style    multi-stream sequential sweep, loads + a store stream —
             regular independent misses, fully predictable branches
gcc-style    mixed: short sequential runs at random offsets, mixed
             loads/stores, high branch entropy
zipfian      hot/cold skew: a small hot line set takes most accesses,
             the cold tail sprays the remaining footprint
===========  =========================================================

Every generator is a pure function of its parameters (deterministic
SplitMix64 streams seeded via :func:`repro.channel.noise.derive_seed`),
so two trials naming the same family/parameters replay byte-identical
programs — which is what lets harness results stay cacheable and
worker-count invariant.

Shared parameter vocabulary:

footprint_bytes
    Total byte span the address stream covers (line-granular).  The
    paper machine's L3 holds 4 MiB in 8192 sets; a 512 KiB footprint
    touches every L3 set once, 1 MiB twice.
events
    Total trace length (memory events + branch events).
branch_entropy
    Probability that a branch outcome deviates from its biased
    direction: 0.0 = perfectly predictable loop branch, 0.5 = coin
    flip.
seed
    Base of the generator's private deterministic random stream.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..channel.noise import SplitMix64, derive_seed
from ..isa.memory_image import DEFAULT_BASE
from .format import BRANCH, LOAD, STORE, Trace, TraceEvent

_LINE = 64


def pointer_chase_trace(events: int = 1600,
                        footprint_bytes: int = 30 * 1024,
                        arcs: int = 4,
                        arc_stride_lines: int = 1,
                        arc_span_lines: int = 64,
                        branch_entropy: float = 0.08,
                        seed: int = 11,
                        name: str = "mcf") -> Trace:
    """mcf-style: dependent pointer chase + independent arc streams.

    Node lines are a random permutation cycle over the footprint, so
    consecutive chase loads land in unrelated sets; each visit also
    reads ``arcs`` arc-array streams (placed back to back above the
    node footprint, ``arc_span_lines`` apart, each marching at
    ``arc_stride_lines``) and ends in a mostly-taken loop branch.

    The defaults mirror the Fig. 7 mcf kernel at trace scale: a compact
    node graph (30 KiB — real mcf's hot node set is small) chased
    serially, with four arc arrays laid out contiguously just above it.
    Because the graph and arcs sit low in the address space, their
    combined working set *aliases the low cache-set range densely* —
    the structured, set-contiguous pressure that makes a chase-shaped
    co-runner interfere with receivers in ways a calibration run cannot
    separate from signal (see the ``trace_pressure_sweep`` preset).
    """
    rng = SplitMix64(derive_seed("trace", name, seed))
    n_lines = max(2, footprint_bytes // _LINE)
    order = list(range(n_lines))
    for i in range(len(order) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        order[i], order[j] = order[j], order[i]
    arc_base = DEFAULT_BASE + n_lines * _LINE
    out = []
    visit = 0
    first = True
    while len(out) < events:
        node = order[visit % n_lines]
        out.append(TraceEvent(pc=0, kind=LOAD,
                              address=DEFAULT_BASE + node * _LINE,
                              depends=not first))
        first = False
        for arc in range(arcs):
            if len(out) >= events:
                break
            out.append(TraceEvent(
                pc=0, kind=LOAD,
                address=(arc_base + arc * arc_span_lines * _LINE +
                         visit * arc_stride_lines * _LINE)))
        if len(out) < events:
            taken = rng.random() >= branch_entropy
            out.append(TraceEvent(pc=0, kind=BRANCH, taken=taken))
        visit += 1
    return Trace(name=name, events=out)


def streaming_trace(events: int = 1600,
                    footprint_bytes: int = 512 * 1024,
                    streams: int = 2,
                    stride_bytes: int = _LINE,
                    branch_entropy: float = 0.0,
                    seed: int = 12,
                    name: str = "stream") -> Trace:
    """lbm-style: parallel sequential sweeps, one of them a store stream.

    ``streams`` pointers march in lockstep through disjoint windows of
    the footprint at ``stride_bytes``; the last stream stores, the rest
    load.  One loop branch per element, taken with probability
    ``1 - branch_entropy`` (0.0 = the classic fully-biased stream loop).
    """
    rng = SplitMix64(derive_seed("trace", name, seed))
    streams = max(1, streams)
    window = max(stride_bytes, footprint_bytes // streams)
    out = []
    element = 0
    while len(out) < events:
        for stream in range(streams):
            if len(out) >= events:
                break
            addr = (DEFAULT_BASE + stream * window +
                    (element * stride_bytes) % window)
            kind = STORE if stream == streams - 1 else LOAD
            out.append(TraceEvent(pc=0, kind=kind, address=addr))
        if len(out) < events:
            taken = rng.random() >= branch_entropy if branch_entropy \
                else True
            out.append(TraceEvent(pc=0, kind=BRANCH, taken=taken))
        element += 1
    return Trace(name=name, events=out)


def mixed_trace(events: int = 1600,
                footprint_bytes: int = 256 * 1024,
                min_run: int = 2, max_run: int = 12,
                store_fraction: float = 0.25,
                branch_entropy: float = 0.35,
                seed: int = 13,
                name: str = "gcc") -> Trace:
    """gcc-style: short sequential word runs at random offsets.

    Each burst starts at a random line, walks ``min_run..max_run``
    consecutive words (the stride mix: mostly 8 B with line-crossing
    reuse), mixes stores in at ``store_fraction``, and ends in a
    high-entropy branch — the branch-predictor-hostile half of the
    family table.
    """
    rng = SplitMix64(derive_seed("trace", name, seed))
    n_words = max(max_run + 1, footprint_bytes // 8)
    out = []
    while len(out) < events:
        start = rng.next_u64() % (n_words - max_run)
        run = rng.randint(min_run, max_run)
        for i in range(run):
            if len(out) >= events:
                break
            kind = STORE if rng.random() < store_fraction else LOAD
            out.append(TraceEvent(pc=0, kind=kind,
                                  address=DEFAULT_BASE + (start + i) * 8))
        if len(out) < events:
            taken = rng.random() >= branch_entropy
            out.append(TraceEvent(pc=0, kind=BRANCH, taken=taken))
    return Trace(name=name, events=out)


def zipfian_trace(events: int = 1600,
                  footprint_bytes: int = 1024 * 1024,
                  hot_fraction: float = 0.05,
                  hot_weight: float = 0.9,
                  store_fraction: float = 0.2,
                  branch_every: int = 4,
                  branch_entropy: float = 0.15,
                  seed: int = 14,
                  name: str = "zipf") -> Trace:
    """Hot/cold skew: ``hot_weight`` of accesses hit a small hot set.

    The hot set is a random ``hot_fraction`` sample of the footprint's
    lines (cache-resident working set); the cold tail sprays uniformly
    over the rest — the classic zipfian two-point approximation.
    """
    rng = SplitMix64(derive_seed("trace", name, seed))
    n_lines = max(4, footprint_bytes // _LINE)
    n_hot = max(1, int(n_lines * hot_fraction))
    # 2x oversampling compensates for collisions; the hot set can still
    # come up slightly short of n_hot, which is harmless skew.
    hot = sorted({rng.next_u64() % n_lines for _ in range(n_hot * 2)})
    hot = hot[:n_hot]
    out = []
    access = 0
    while len(out) < events:
        if rng.random() < hot_weight and hot:
            line = hot[rng.next_u64() % len(hot)]
        else:
            line = rng.next_u64() % n_lines
        kind = STORE if rng.random() < store_fraction else LOAD
        out.append(TraceEvent(pc=0, kind=kind,
                              address=DEFAULT_BASE + line * _LINE))
        access += 1
        if len(out) < events and access % branch_every == 0:
            taken = rng.random() >= branch_entropy
            out.append(TraceEvent(pc=0, kind=BRANCH, taken=taken))
    return Trace(name=name, events=out)


#: Generator per family name (the ``repro trace`` CLI and the workload
#: suite resolve through this table).
TRACE_FAMILIES: Dict[str, Callable[..., Trace]] = {
    "mcf": pointer_chase_trace,
    "stream": streaming_trace,
    "gcc": mixed_trace,
    "zipf": zipfian_trace,
}


def synthetic_trace(family: str, **params) -> Trace:
    """Generate a trace by family name (see :data:`TRACE_FAMILIES`)."""
    try:
        generator = TRACE_FAMILIES[family]
    except KeyError:
        raise KeyError(f"unknown trace family {family!r}; "
                       f"known: {sorted(TRACE_FAMILIES)}") from None
    return generator(**params)
