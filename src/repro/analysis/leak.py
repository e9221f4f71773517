"""Leak detection and secret recovery from probe timings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .thresholds import classify_hits


@dataclass
class ProbeVerdict:
    """Interpretation of one probe-array timing vector (one Fig. 9 curve)."""

    latencies: List[int]
    hits: List[int]
    threshold: int
    recovered: Optional[int]     # the single leaked index, if unambiguous
    expected_hits: int = 1       # what the experiment planted (see below)

    @property
    def leaked(self):
        return self.recovered is not None



def analyze_probe(latencies, expected_hits=1,
                  ignore_indices=()) -> ProbeVerdict:
    """Classify probe latencies and recover the leaked index.

    ``ignore_indices`` excludes indices the experiment itself warms (for
    example index 0 when a zero-valued word feeds the transmit address).

    Semantics, made explicit (an earlier revision reached the same
    outcome through a fallback branch that silently overrode the
    ``expected_hits`` comparison):

    * ``recovered`` is set **iff exactly one** hit remains after the
      exclusions — the unambiguous-dip criterion of Fig. 9 — regardless
      of ``expected_hits``.  A single recovered index cannot represent a
      multi-hit transmission, and zero or multiple hits are ambiguous.
    * ``expected_hits`` never changes recovery; it is recorded on the
      report so experiments that transmit several indices (or expect
      none) can compare it with ``len(hits)`` separately.
      Multi-trial channels needing more than this single-shot rule use
      :func:`repro.channel.decode.decode_trials` instead.
    """
    hits, threshold = classify_hits(latencies)
    meaningful = [h for h in hits if h not in set(ignore_indices)]
    recovered = meaningful[0] if len(meaningful) == 1 else None
    return ProbeVerdict(latencies=list(latencies), hits=meaningful,
                      threshold=threshold, recovered=recovered,
                      expected_hits=expected_hits)
