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

Bulk draws are exact: :meth:`SplitMix64._u64s` computes ``n`` outputs
in one packed-integer pass that yields exactly the words ``n``
:meth:`~SplitMix64.next_u64` calls would, and :meth:`NoiseModel.draw`
classifies a line by the integer test ``z < ceil(rate * 2**53) << 11``,
which holds exactly when ``random()``'s float ``(z >> 11) / 2**53`` is
below ``rate``.  So every draw is bit-identical to the one-call-per-
value stream.
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)
_GAMMA = 0x9E3779B97F4A7C15
assert array("Q").itemsize == 8

#: Per draw length ``n``: ``(ones, mask, ramp)``, ``n`` 128-bit lanes
#: holding 1, ``2**64 - 1`` and ``(i + 1) * gamma mod 2**64`` in lane
#: ``i``.  One entry per distinct length ever drawn: a receiver draws
#: two, its monitored lines and its probe indices (about 51 bytes per
#: lane: 118 KB for leak-extract's 2048 and 256).
_LANES: Dict[int, Tuple[int, int, int]] = {}


def _lanes(n: int) -> Tuple[int, int, int]:
    lanes = _LANES.get(n)
    if lanes is None:
        words = array("Q", bytes(16 * n))
        words[::2] = array("Q", [((i + 1) * _GAMMA) & _MASK64
                                 for i in range(n)])
        if sys.byteorder == "big":
            words.byteswap()
        lanes = _LANES[n] = (
            int.from_bytes((b"\1" + bytes(15)) * n, "little"),
            int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little"),
            int.from_bytes(words.tobytes(), "little"))
    return lanes


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

    def randints(self, low: int, high: int, n: int) -> List[int]:
        """``n`` successive :meth:`randint` draws (same stream, inlined)."""
        if high < low:
            raise ValueError("empty range")
        span = high - low + 1
        return [low + z % span for z in self._u64s(n)]

    def _u64s(self, n: int) -> List[int]:
        """``n`` :meth:`next_u64` outputs, computed all at once.

        Lane ``i`` (128 bits) of one Python int holds the state of
        output ``i``, ``state + (i + 1) * gamma mod 2**64``, and the mix
        runs as a few big-int operations on the whole int: each
        xor-shift is followed by a mask to the lanes' low 64 bits
        (dropping what shifted in from the next lane) and each multiply
        by a mask again.  A masked lane times a 64-bit constant stays
        below ``2**128``, so no carry crosses a lane; the final
        xor-shift's spill lands in the high words, which unpacking
        skips.  Exactly the outputs and end state of ``n``
        :meth:`next_u64` calls.
        """
        if n <= 0:
            return []
        ones, mask, ramp = _lanes(n)
        state = self._state
        self._state = (state + n * _GAMMA) & _MASK64
        z = (state * ones + ramp) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        words = array("Q", (z ^ (z >> 31)).to_bytes(16 * n, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words[::2].tolist()


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
            # ``(z >> 11) / 2**53 < rate`` exactly when ``z`` is below
            # these (see the module docstring).
            evict_below = math.ceil(self.evict_rate * _TWO53) << 11
            noisy_rate = self.evict_rate + self.pollute_rate
            noisy_below = math.ceil(noisy_rate * _TWO53) << 11
            for line, z in zip(lines, rng._u64s(len(lines))):
                if z < evict_below:
                    evicted.add(line)
                elif z < noisy_below:
                    polluted.add(line)
        if self.jitter:
            jitters = tuple(rng.randints(-self.jitter, self.jitter,
                                         n_indices))
        else:
            jitters = ()
        return NoiseDraw(evicted=frozenset(evicted),
                         polluted=frozenset(polluted), jitters=jitters)
