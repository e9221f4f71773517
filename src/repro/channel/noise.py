"""Deterministic noise models for the covert-channel receivers.

Real cache covert channels are noisy: probe timings jitter with pipeline
and DRAM state, co-running processes evict the receiver's lines, and
hardware prefetchers pull lines the victim never touched.  This module
injects those effects into the *measurement* layer — a
:class:`NoiseModel` perturbs what a receiver observes, never the
simulated run itself — so that a sweep over noise intensity and trial
count stays bit-reproducible at any worker count.

Determinism is load-bearing (the harness caches results by content
hash), so randomness comes from :class:`SplitMix64` — a tiny, fully
specified PRNG — seeded via SHA-256 (:func:`derive_seed`) rather than
from :mod:`random`, whose stream Python does not guarantee stable across
versions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from string-able parts.

    Independent of PYTHONHASHSEED, interpreter and platform, like
    :func:`repro.harness.spec.stable_seed` (which feeds the 32-bit trial
    seeds this function typically expands on).
    """
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SplitMix64:
    """SplitMix64 PRNG (Steele et al.) — stable across Python versions.

    Only the handful of draws the noise models need are implemented;
    modulo reduction is used for ranges (the bias is irrelevant at our
    range sizes and keeps the implementation obviously reproducible).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError("empty range")
        return low + self.next_u64() % (high - low + 1)

    def randoms(self, n: int) -> List[float]:
        """``n`` successive :meth:`random` draws (same stream, inlined)."""
        return [(z >> 11) / _TWO53 for z in self._u64s(n)]

    def randints(self, low: int, high: int, n: int) -> List[int]:
        """``n`` successive :meth:`randint` draws (same stream, inlined)."""
        if high < low:
            raise ValueError("empty range")
        span = high - low + 1
        return [low + z % span for z in self._u64s(n)]

    def _u64s(self, n: int) -> List[int]:
        """``n`` :meth:`next_u64` outputs, drawn in one plain loop (the
        state is stored back once, after the last output)."""
        out = [0] * n
        state = self._state
        for index in range(n):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            out[index] = z ^ (z >> 31)
        self._state = state
        return out


@dataclass(frozen=True)
class NoiseDraw:
    """One trial's worth of sampled noise.

    ``evicted`` / ``polluted`` are line addresses the receiver must
    observe as co-runner-evicted (slow) / prefetcher-polluted (fast);
    ``jitters`` holds one signed timing offset per probe index.
    """

    evicted: frozenset
    polluted: frozenset
    jitters: Tuple[int, ...]

    def jitter(self, index: int) -> int:
        return self.jitters[index] if self.jitters else 0


#: The silent draw, used when no noise model is configured.
NO_NOISE = NoiseDraw(evicted=frozenset(), polluted=frozenset(), jitters=())


@dataclass(frozen=True)
class NoiseModel:
    """Per-trial measurement noise, sampled line-by-line.

    jitter:
        Maximum absolute timing offset (cycles) added to each measured
        latency, drawn uniformly from [-jitter, +jitter].
    evict_rate:
        Probability that a monitored line is evicted by a co-runner
        between transmit and probe (observed at memory latency).
    pollute_rate:
        Probability that a monitored line is pulled into the cache by a
        prefetcher-like co-runner (observed at hit latency) even though
        the victim never touched it.
    """

    jitter: int = 0
    evict_rate: float = 0.0
    pollute_rate: float = 0.0

    def __post_init__(self):
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        for name in ("evict_rate", "pollute_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.evict_rate + self.pollute_rate > 1.0:
            raise ValueError("evict_rate + pollute_rate must not exceed 1")

    @classmethod
    def from_spec(cls, spec: Union[None, "NoiseModel", Mapping]) \
            -> Optional["NoiseModel"]:
        """Build from a JSON-able mapping (harness trial params) or pass
        through an existing model.  ``None``, an empty mapping and any
        silent model (however it is spelled) all mean no noise: ``None``.
        """
        if spec is None:
            return None
        if isinstance(spec, cls):
            model = spec
        else:
            unknown = set(spec) - {"jitter", "evict_rate", "pollute_rate"}
            if unknown:
                raise ValueError(
                    f"unknown noise spec keys: {sorted(unknown)}")
            model = cls(**dict(spec))
        return model if model.is_noisy else None

    def to_spec(self) -> dict:
        return {"jitter": self.jitter, "evict_rate": self.evict_rate,
                "pollute_rate": self.pollute_rate}

    @property
    def is_noisy(self) -> bool:
        return bool(self.jitter or self.evict_rate or self.pollute_rate)

    def draw(self, rng: SplitMix64, lines: Sequence[int],
             n_indices: int) -> NoiseDraw:
        """Sample one trial of noise over the receiver's monitored lines.

        One uniform draw per line decides evicted / polluted / clean, so
        the two effects are mutually exclusive per line; jitter is drawn
        per probe index.  The draw order is fixed (lines in the given
        order, then jitters), making the stream a pure function of the
        rng seed.
        """
        evicted = set()
        polluted = set()
        if self.evict_rate or self.pollute_rate:
            evict_rate = self.evict_rate
            noisy_rate = evict_rate + self.pollute_rate
            for line, sample in zip(lines, rng.randoms(len(lines))):
                if sample < evict_rate:
                    evicted.add(line)
                elif sample < noisy_rate:
                    polluted.add(line)
        if self.jitter:
            jitters = tuple(rng.randints(-self.jitter, self.jitter,
                                         n_indices))
        else:
            jitters = ()
        return NoiseDraw(evicted=frozenset(evicted),
                         polluted=frozenset(polluted), jitters=jitters)
