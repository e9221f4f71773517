"""Covert-channel receiver models driven against the simulated hierarchy.

The paper's Fig. 9 PoC times its probe loop *inside* the victim's own
program — a perfect, noise-free oracle.  Real transient-execution
attacks instead run a **receiver** beside the victim: it prepares the
cache (flush, evict or prime), lets the victim's transmit gadget leave
its footprint, and then measures.  This module provides the three
classic receiver strategies against :class:`~repro.memory.hierarchy.
MemoryHierarchy`:

``FlushReloadReceiver``
    The probe lines are ``clflush``-ed (the attack program's own flush
    phase, step ② of Fig. 8); the receiver reloads each line and times
    it.  Signal = a *fast* line.
``EvictReloadReceiver``
    No ``clflush``: the receiver constructs per-level eviction sets
    from the hierarchy's real set mapping and walks them to push the
    probe lines out.  Reload timing as above; lines the attacker's own
    training warmed (and could not flush) are excluded via
    ``ignore_indices``.
``PrimeProbeReceiver``
    The receiver never touches the victim's lines at all: it fills
    ("primes") the cache sets the probe lines map to with its own
    eviction-set lines, and afterwards times those lines.  A victim fill
    evicts one primed way, so signal = a *slow* set (``signal_low`` is
    False).  Program activity disturbs a deterministic baseline of sets;
    a calibration run (see :mod:`repro.channel.session`) measures and
    excludes them.

Every receiver follows the same protocol: ``prepare()`` before the run,
``measure(now, draws) -> [ProbeVector, ...]`` afterwards — one vector per
trial's :class:`~repro.channel.noise.NoiseDraw`.  ``measure`` is
read-only against the hierarchy (it uses
:meth:`~repro.memory.hierarchy.MemoryHierarchy.probe_latency`), which is
what makes multi-trial measurement of a single simulated run sound: the
probe cannot destroy the footprint it is reading, and each trial differs
only by its injected draw.  So ``measure`` walks every monitored line
once and derives all trials from that one noise-free walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..memory.cache import CacheConfig
from ..memory.hierarchy import MemoryHierarchy
from .noise import NO_NOISE, NoiseDraw

#: Tag offset for receiver-owned eviction lines.  Shifted past every
#: cache's index bits this puts them far above the attack image
#: (which lives around 1-2 MB), so they can never alias victim data.
EVICTION_TAG_BASE = 1 << 16


@dataclass(frozen=True)
class ProbeLayout:
    """Geometry of the transmit array the receiver monitors."""

    base: int          # address of probe entry 0 (line-aligned)
    entries: int       # number of candidate secret values
    stride: int        # bytes between entries (>= line size)

    @classmethod
    def from_attack(cls, attack) -> "ProbeLayout":
        """Layout of an :class:`~repro.attack.gadgets.AttackProgram`."""
        return cls(base=attack.array2_addr, entries=attack.probe_entries,
                   stride=attack.probe_stride)

    def line(self, index: int) -> int:
        """Line address the transmit gadget touches for value ``index``."""
        return self.base + index * self.stride


@dataclass(frozen=True)
class ProbeVector:
    """One trial's measurement: a latency per candidate index.

    ``signal_low`` tells the decoder which tail carries the signal:
    reload channels see the victim's line as *fast*, prime+probe sees
    the victim's set as *slow*.
    """

    latencies: Tuple[int, ...]
    signal_low: bool = True
    trial: int = 0
    receiver: str = ""


def eviction_set(config: CacheConfig, line: int, ways: Optional[int] = None,
                 salt: int = 0) -> List[int]:
    """Receiver-owned line addresses mapping to ``line``'s set.

    Uses the same index arithmetic as
    :class:`~repro.memory.cache.SetAssociativeCache` (line bits, then
    ``n_sets`` index bits), with tags drawn from a reserved high range so
    the addresses are disjoint from any victim allocation.  ``salt``
    separates the eviction sets different receivers build for the same
    set.
    """
    shift = (config.line_bytes - 1).bit_length()
    set_bits = config.n_sets.bit_length() - 1
    set_index = (line >> shift) & (config.n_sets - 1)
    ways = config.assoc if ways is None else ways
    base_tag = EVICTION_TAG_BASE * (salt + 1)
    return [((base_tag + way) << (shift + set_bits)) | (set_index << shift)
            for way in range(ways)]


class Receiver:
    """Base class: binds a probe layout to one hierarchy instance.

    Subclasses set the class attributes and implement ``prepare``; one
    that times other lines than the probe entries themselves overrides
    ``_monitored_lines``.  A receiver instance is single-run: ``prepare``
    may mutate the hierarchy, so the session builds a fresh receiver per
    simulated run.
    """

    name = "base"
    #: Whether the attack program's in-assembly probe-array flush phase
    #: should run (flush+reload owns a working ``clflush``).
    uses_clflush = False
    #: True when the signal is a fast line (reload channels).
    signal_low = True
    #: True when decoding needs a baseline run to subtract deterministic
    #: self-interference (prime+probe).
    needs_calibration = False

    def __init__(self, layout: ProbeLayout, hierarchy: MemoryHierarchy):
        self.layout = layout
        self.hierarchy = hierarchy
        self.hit_latency = hierarchy.config.data_hit_latency
        self.miss_latency = hierarchy.config.data_miss_latency
        #: Per probe index, the lines it times; the index reads the
        #: slowest of them.
        self.index_lines: List[Tuple[int, ...]] = self._monitored_lines()

    # -- protocol ---------------------------------------------------------------

    def probe_lines(self) -> List[int]:
        """The victim-side lines whose state encodes the secret."""
        return [self.layout.line(i) for i in range(self.layout.entries)]

    def noise_lines(self) -> List[int]:
        """Lines the noise model perturbs (receiver-monitored lines)."""
        return [line for lines in self.index_lines for line in lines]

    def prepare(self) -> None:
        """Reset the channel before the victim runs (flush/evict/prime)."""
        raise NotImplementedError

    def measure(self, now: int, draws: Sequence[NoiseDraw] = (NO_NOISE,)) \
            -> List[ProbeVector]:
        """Time every candidate index at cycle ``now`` (read-only).

        Returns one :class:`ProbeVector` per draw, trial ``i`` measured
        under ``draws[i]``.  Every monitored line is walked once; a
        trial overrides its evicted lines with ``miss_latency`` and its
        polluted ones with ``hit_latency``, recombines only the indices
        that own such a line, and adds its jitter.
        """
        probe = self.hierarchy.probe_latency
        walked: Dict[int, int] = {}
        for lines in self.index_lines:
            for line in lines:
                if line not in walked:
                    walked[line] = probe(line, now)[0]
        clean = [max(map(walked.__getitem__, lines))
                 for lines in self.index_lines]
        owners: Dict[int, List[int]] = {}
        vectors = []
        for trial, draw in enumerate(draws):
            latencies = clean
            evicted, polluted = draw.evicted, draw.polluted
            if evicted or polluted:
                if not owners:
                    for index, lines in enumerate(self.index_lines):
                        for line in lines:
                            owners.setdefault(line, []).append(index)
                latencies = list(clean)
                for index in {index for line in evicted | polluted
                              for index in owners.get(line, ())}:
                    latencies[index] = max(
                        self.miss_latency if line in evicted
                        else self.hit_latency if line in polluted
                        else walked[line]
                        for line in self.index_lines[index])
            jitters = draw.jitters
            if jitters:
                latencies = [max(1, latency + jitters[index])
                             for index, latency in enumerate(latencies)]
            else:
                latencies = [max(1, latency) for latency in latencies]
            vectors.append(ProbeVector(latencies=tuple(latencies),
                                       signal_low=self.signal_low,
                                       trial=trial, receiver=self.name))
        return vectors

    def cross_core(self) -> "Receiver":
        """Rebase the channel's fast reference to the shared LLC.

        A receiver measuring from *another core's* view never holds the
        victim's lines in its own L1/L2, so the fastest a victim fill
        can appear is an L3 hit — and prefetcher "pollution" likewise
        lands in the shared LLC, not the attacker's L1.  Idempotent for
        prime+probe, whose reference is the LLC walk already.
        """
        self.hit_latency = self.hierarchy.config.llc_hit_latency
        return self

    # -- helpers ----------------------------------------------------------------

    def _monitored_lines(self) -> List[Tuple[int, ...]]:
        """Reload channels time each probe entry's own line."""
        return [(line,) for line in self.probe_lines()]


class FlushReloadReceiver(Receiver):
    """Flush+Reload: ``clflush`` the probe lines, reload and time them.

    The flush half runs inside the attack program (its step-② flush
    phase survives in the external-probe build); ``prepare`` re-flushes
    defensively so the receiver is also usable standalone.  With no
    noise and one trial this reproduces the Fig. 9 single-dip result of
    the in-program probe loop exactly (same recovered index, same
    unambiguous-dip criterion).
    """

    name = "flush-reload"
    uses_clflush = True

    def prepare(self) -> None:
        for line in self.probe_lines():
            self.hierarchy.flush_line(line)


class EvictReloadReceiver(Receiver):
    """Evict+Reload: no ``clflush`` — evict probe lines via set conflicts.

    ``prepare`` walks per-level eviction sets (built against the real
    L1D/L2/L3 set mapping) so every probe line's set is filled with
    receiver lines, pushing any resident probe line out.  Because the
    attack program can no longer flush between training and trigger,
    lines the training phase itself warmed stay hot — the session
    excludes them via ``AttackProgram.warmed_probe_indices``.
    """

    name = "evict-reload"
    uses_clflush = False

    def prepare(self) -> None:
        lines = self.probe_lines()
        for salt, cache in enumerate((self.hierarchy.l1d, self.hierarchy.l2,
                                      self.hierarchy.l3)):
            seen_sets = set()
            shift = (cache.config.line_bytes - 1).bit_length()
            mask = cache.config.n_sets - 1
            for line in lines:
                set_index = (line >> shift) & mask
                if set_index in seen_sets:
                    continue
                seen_sets.add(set_index)
                for ev_line in eviction_set(cache.config, line, salt=salt):
                    cache.fill(ev_line)


class PrimeProbeReceiver(Receiver):
    """Prime+Probe against the L3 sets the probe entries map to.

    With the paper's geometry (4 MB, 8-way L3; 512-byte probe stride)
    every one of the 256 probe entries maps to a *distinct* L3 set, so
    the channel resolves a full byte.  ``prepare`` fills each such set
    with an 8-way eviction set; the victim's transmit fill evicts one
    primed way, and ``measure`` reports the slowest line of each set —
    fast (L3 hit) for untouched sets, memory-slow where the victim (or
    deterministic program activity, removed by calibration) landed.
    """

    name = "prime-probe"
    uses_clflush = False
    signal_low = False
    needs_calibration = True

    def __init__(self, layout: ProbeLayout, hierarchy: MemoryHierarchy):
        super().__init__(layout, hierarchy)
        # A primed line re-probed after the victim ran sits in L3 (we
        # prime L3 only, so the L1/L2 walk misses first).
        self.hit_latency = hierarchy.config.llc_hit_latency

    def prepare(self) -> None:
        for ev_set in self.index_lines:
            for line in ev_set:
                self.hierarchy.l3.fill(line)

    def _monitored_lines(self) -> List[Tuple[int, ...]]:
        """Each index times its L3 set's eviction set (several indices
        share one when the geometry maps their entries to one set)."""
        config = self.hierarchy.l3.config
        return [tuple(eviction_set(config, line, salt=7))
                for line in self.probe_lines()]


RECEIVERS: Dict[str, Type[Receiver]] = {
    FlushReloadReceiver.name: FlushReloadReceiver,
    EvictReloadReceiver.name: EvictReloadReceiver,
    PrimeProbeReceiver.name: PrimeProbeReceiver,
}


def receiver_class(name: str) -> Type[Receiver]:
    try:
        return RECEIVERS[name]
    except KeyError:
        raise KeyError(f"unknown receiver {name!r}; "
                       f"known: {sorted(RECEIVERS)}") from None


def make_receiver(name: str, layout: ProbeLayout,
                  hierarchy: MemoryHierarchy) -> Receiver:
    """Instantiate a fresh receiver bound to one hierarchy."""
    return receiver_class(name)(layout, hierarchy)
