"""Multi-trial statistical decoding tests."""

import random

import pytest

from repro.analysis import analyze_probe
from repro.channel import (ProbeVector, decode_trials, dip_space,
                           signal_indices)
from repro.channel.decode import median_vector


def vec(latencies, signal_low=True, trial=0):
    return ProbeVector(latencies=tuple(latencies), signal_low=signal_low,
                       trial=trial)


def clean(dip_at, n=32, hit=2, miss=242):
    lats = [miss] * n
    lats[dip_at] = hit
    return lats


def per_index_median(rows):
    """The per-index loop ``median_vector`` replaced."""
    out = []
    for index in range(len(rows[0])):
        column = sorted(row[index] for row in rows)
        out.append(column[(len(rows) - 1) // 2])
    return out


class TestMedianVector:
    @pytest.mark.parametrize("n_trials", [1, 2, 3, 4, 7, 8])
    def test_matches_per_index_loop(self, n_trials):
        rng = random.Random(n_trials)
        rows = [tuple(rng.randrange(300) for _ in range(33))
                for _ in range(n_trials)]
        assert median_vector(rows) == per_index_median(rows)

    def test_even_count_takes_the_lower_median(self):
        assert median_vector([[1, 40], [9, 10], [5, 30], [7, 20]]) == \
            [5, 20]


class TestDipSpace:
    def test_signal_low_is_identity(self):
        assert dip_space(vec([5, 9, 1])) == [5, 9, 1]

    def test_signal_high_inverts_preserving_range(self):
        inverted = dip_space(vec([42, 242, 42], signal_low=False))
        assert inverted == [242, 42, 242]

    def test_signal_indices_both_polarities(self):
        assert signal_indices(vec(clean(7))) == [7]
        slow = [42] * 32
        slow[7] = 242
        assert signal_indices(vec(slow, signal_low=False)) == [7]

    def test_signal_indices_ignore(self):
        lats = clean(7)
        lats[3] = 2
        assert signal_indices(vec(lats), ignore_indices=(3,)) == [7]


class TestSingleTrial:
    def test_reduces_to_analyze_probe(self):
        lats = clean(11)
        decoded = decode_trials([vec(lats)])
        single = analyze_probe(lats)
        assert decoded.recovered == single.recovered == 11
        assert decoded.report.hits == single.hits
        assert decoded.report.threshold == single.threshold
        assert decoded.aggregated == lats
        assert decoded.confidence == 1.0

    def test_unimodal_no_decode(self):
        decoded = decode_trials([vec([242] * 32)])
        assert decoded.recovered is None
        assert decoded.confidence == 0.0
        assert decoded.votes == {}

    def test_empty_vectors_rejected(self):
        with pytest.raises(ValueError):
            decode_trials([])


class TestAggregation:
    def test_median_kills_single_trial_pollution(self):
        """A false dip present in only one of three trials disappears
        from the per-index median, so the primary path decodes."""
        polluted = clean(11)
        polluted[29] = 2                       # one-trial false dip
        decoded = decode_trials([vec(polluted), vec(clean(11)),
                                 vec(clean(11))])
        assert decoded.recovered == 11
        assert decoded.report.hits == [11]     # median is clean
        assert decoded.votes[11] == 3
        assert decoded.votes[29] == 1

    def test_vote_fallback_breaks_persistent_ambiguity(self):
        """A false dip surviving the median -> the vote majority decides."""
        both = clean(11)
        both[29] = 2                           # dips at 11 and 29
        only_11 = clean(11)
        decoded = decode_trials([vec(both), vec(both), vec(both),
                                 vec(only_11), vec(only_11)])
        # 29 dips in 3/5 trials, so the median keeps it: the primary
        # single-dip criterion fails and the 5-vs-3 vote decides.
        assert 29 in decoded.report.hits
        assert decoded.recovered == 11
        assert decoded.confidence == 1.0
        # The vote verdict propagates into the report (the surface
        # AttackResult.succeeded and the renderers read).
        assert decoded.report.recovered == 11

    def test_majority_required(self):
        """Votes below a strict majority never decode (scattered noise
        across trials stays undecoded instead of guessing)."""
        a, b, c = clean(3), clean(17), clean(29)
        # Persistent three-way ambiguity in the median too.
        decoded = decode_trials([vec(a), vec(b), vec(c)])
        assert decoded.recovered is None

    def test_eviction_dropout_survives(self):
        """The signal missing from a minority of trials still decodes."""
        dropped = [242] * 32                   # trial where signal evicted
        decoded = decode_trials([vec(dropped), vec(clean(11)),
                                 vec(clean(11))])
        assert decoded.recovered == 11
        assert decoded.confidence == pytest.approx(2 / 3)

    def test_ignore_indices_excluded_everywhere(self):
        warmed = clean(11)
        warmed[5] = 2                          # stale training-warmed hit
        decoded = decode_trials([vec(warmed)] * 3, ignore_indices=(5,))
        assert decoded.recovered == 11
        assert 5 not in decoded.votes
        assert decoded.ignore_indices == (5,)

    def test_signal_high_decoding(self):
        slow = [42] * 32
        slow[9] = 242
        decoded = decode_trials([vec(slow, signal_low=False)] * 3)
        assert decoded.recovered == 9
        # The report keeps raw-polarity medians for rendering.
        assert decoded.report.latencies[9] == 242

    def test_latency_summary(self):
        decoded = decode_trials([vec(clean(4, hit=2)),
                                 vec(clean(4, hit=6)),
                                 vec(clean(4, hit=4))])
        assert sorted(v.latencies[4] for v in decoded.vectors) == [2, 4, 6]
        assert decoded.aggregated[4] == 4              # the median

    def test_median_only_decode_has_positive_confidence(self):
        """Per-trial spread can defeat every trial's own threshold
        while the median still dips: the decoded index then has zero
        votes, but confidence floors at one trial's worth rather than
        reporting 0.0 beside a recovered value."""
        trials = [
            vec([2, 242, 242, 100, 242]),
            vec([2, 100, 242, 242, 242]),
            vec([2, 242, 100, 242, 242]),
        ]
        # Each trial's low cluster spans [2, 100]: the noise guard
        # rejects a threshold, so no trial casts a ballot...
        assert all(signal_indices(v) == [] for v in trials)
        decoded = decode_trials(trials)
        # ...but the per-index median [2, 242, 242, 242, 242] decodes.
        assert decoded.recovered == 0
        assert decoded.votes == {}
        assert decoded.confidence == pytest.approx(1 / 3)

    def test_tie_break_deterministic(self):
        """Equal votes + equal medians -> lowest index wins, always."""
        both = clean(11)
        both[7] = 2
        runs = [decode_trials([vec(both)] * 4) for _ in range(3)]
        assert {d.recovered for d in runs} == {7}
