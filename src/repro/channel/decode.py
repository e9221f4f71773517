"""Statistical decoding of multi-trial probe measurements.

One noise-free trial decodes like the paper's Fig. 9: a single
unambiguous latency dip (:func:`~repro.analysis.leak.analyze_probe`).
Under noise that single-shot path breaks — jitter widens the clusters,
pollution plants false dips, co-runner evictions erase the real one — so
with ``trials > 1`` the decoder replaces it with aggregation:

1. **Per-index latency distributions.**  The element-wise *median*
   across trials suppresses any effect that hits an index in fewer than
   half the trials (pollution and eviction are per-trial-independent, so
   the true signal survives the median while noise rarely does).
2. **Majority vote.**  Each trial classifies independently
   (largest-gap threshold per trial); an index collects one vote per
   trial it appears as signal in.  The vote table breaks the ties the
   median cannot, and its winner must carry a strict majority.
3. **Confidence** is the fraction of trials that voted for the decoded
   index — 1.0 for a clean channel, degrading smoothly with noise.

Prime+probe vectors carry ``signal_low=False`` (the victim's set is the
*slow* one); decoding maps them into "dip space" so the same threshold
and recovery machinery serves both polarities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.leak import ProbeVerdict, analyze_probe
from ..analysis.thresholds import classify_hits
from .receiver import ProbeVector


def dip_space(vector: ProbeVector) -> List[int]:
    """Map a vector so that the signal is always the *low* tail."""
    if vector.signal_low:
        return list(vector.latencies)
    low, high = min(vector.latencies), max(vector.latencies)
    return [high + low - latency for latency in vector.latencies]


def signal_indices(vector: ProbeVector,
                   ignore_indices: Iterable[int] = ()) -> List[int]:
    """Indices one trial classifies as signal (its vote ballot)."""
    hits, _ = classify_hits(dip_space(vector))
    excluded = set(ignore_indices)
    return [h for h in hits if h not in excluded]


def median_vector(rows: Sequence[Sequence[int]]) -> List[int]:
    """Element-wise (lower) median across trials."""
    n_trials = len(rows)
    out = []
    for index in range(len(rows[0])):
        column = sorted(row[index] for row in rows)
        out.append(column[(n_trials - 1) // 2])
    return out


@dataclass
class ChannelDecode:
    """Outcome of decoding one transmitted value from N trials."""

    recovered: Optional[int]
    confidence: float                 # votes for `recovered` / trials
    trials: int
    votes: Dict[int, int]             # index -> number of trials voting
    report: ProbeVerdict              # single-shot analysis of the median
    aggregated: List[int]             # per-index median latency (raw)
    per_trial_signals: List[List[int]]
    ignore_indices: Tuple[int, ...] = ()
    vectors: List[ProbeVector] = field(default_factory=list)

    @property
    def leaked(self) -> bool:
        return self.recovered is not None

    def latency_summary(self, index: int) -> Tuple[int, int, int]:
        """(min, median, max) observed latency of one index."""
        values = sorted(v.latencies[index] for v in self.vectors)
        return values[0], values[(len(values) - 1) // 2], values[-1]

    def describe(self) -> str:
        if not self.leaked:
            return (f"no value decoded from {self.trials} trial(s) "
                    f"({len(self.votes)} indices received votes)")
        return (f"decoded {self.recovered} with confidence "
                f"{self.confidence:.2f} ({self.votes.get(self.recovered, 0)}"
                f"/{self.trials} trials)")


def decode_trials(vectors: Sequence[ProbeVector],
                  ignore_indices: Iterable[int] = ()) -> ChannelDecode:
    """Decode one transmitted value from per-trial probe vectors.

    With a single clean trial this reduces *exactly* to
    :func:`~repro.analysis.leak.analyze_probe` on that trial's
    latencies, preserving the Fig. 9 semantics; with multiple trials the
    median + majority-vote machinery described in the module docstring
    takes over.
    """
    if not vectors:
        raise ValueError("decode_trials needs at least one probe vector")
    ignore = tuple(sorted(set(ignore_indices)))
    ballots = [signal_indices(v, ignore) for v in vectors]
    votes = Counter()
    for ballot in ballots:
        votes.update(ballot)

    aggregated = median_vector([v.latencies for v in vectors])
    dip_median = median_vector([dip_space(v) for v in vectors])
    report = analyze_probe(dip_median, ignore_indices=ignore)
    if vectors[0].signal_low is False:
        # Expose the raw (inverted-polarity) medians in the report;
        # hits/recovered/threshold were derived in dip space.
        report.latencies = aggregated

    recovered = report.recovered
    if recovered is None and votes:
        # The median alone is ambiguous (or empty); fall back to the
        # vote table.  Ties break on the lowest median dip-space
        # latency, then the lowest index — both deterministic.
        top = max(votes.values())
        if 2 * top > len(vectors):
            tied = [index for index, n in votes.items() if n == top]
            recovered = min(tied, key=lambda i: (dip_median[i], i))
            # The report is the channel's final interpretation: carry
            # the vote verdict into it so AttackResult / renderers see
            # one answer (hits keep the full ambiguous median set).
            report.recovered = recovered

    # Confidence is the voting support for the decoded index.  The
    # median path can (rarely) decode an index no individual trial's
    # threshold classified — the aggregate itself is then the evidence,
    # so confidence floors at one trial's worth instead of reading 0.0
    # beside a recovered value.
    if recovered is None:
        confidence = 0.0
    else:
        confidence = max(votes.get(recovered, 0), 1) / len(vectors)
    return ChannelDecode(recovered=recovered, confidence=confidence,
                         trials=len(vectors), votes=dict(votes),
                         report=report, aggregated=aggregated,
                         per_trial_signals=ballots, ignore_indices=ignore,
                         vectors=list(vectors))
