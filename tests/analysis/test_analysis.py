"""Unit tests for threshold/leak analysis and report rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (analyze_probe, classify_hits, format_bars,
                            format_latency_plot, format_table,
                            largest_gap_threshold)


class TestThresholds:
    def test_clear_bimodal_split(self):
        latencies = [250] * 100 + [10] + [250] * 155
        threshold = largest_gap_threshold(latencies)
        assert threshold is not None
        assert 10 < threshold < 250

    def test_unimodal_returns_none(self):
        assert largest_gap_threshold([250] * 256) is None

    def test_small_jitter_not_split(self):
        latencies = [250, 251, 252, 253] * 64
        assert largest_gap_threshold(latencies) is None

    def test_classify_finds_single_hit(self):
        latencies = [250] * 256
        latencies[86] = 12
        hits, threshold = classify_hits(latencies)
        assert hits == [86]
        assert threshold > 12

    def test_classify_with_explicit_threshold(self):
        hits, threshold = classify_hits([100, 5, 100], threshold=50)
        assert hits == [1]
        assert threshold == 50

    def test_empty_and_short_inputs(self):
        assert largest_gap_threshold([]) is None
        assert largest_gap_threshold([5]) is None

    @given(st.lists(st.integers(200, 300), min_size=8, max_size=64),
           st.integers(2, 40))
    @settings(max_examples=50, deadline=None)
    def test_single_planted_dip_always_found(self, base, dip_value):
        index = len(base) // 2
        latencies = list(base)
        latencies[index] = dip_value
        hits, _ = classify_hits(latencies)
        assert hits == [index]


class TestThresholdEdgeCases:
    """Pin the exact behaviour of largest_gap_threshold at its edges."""

    def test_all_equal_latencies(self):
        assert largest_gap_threshold([7, 7, 7, 7]) is None
        assert largest_gap_threshold([0, 0]) is None

    def test_two_point_input_splits_midway(self):
        # Low "cluster" is a single point (spread 0) so the guard
        # compares against max(spread, 1): any gap >= 2 splits.
        threshold = largest_gap_threshold([10, 250])
        assert threshold == 10 + (250 - 10) // 2
        hits, _ = classify_hits([10, 250])
        assert hits == [0]

    def test_two_point_minimal_gap_rejected(self):
        # Gap of 1 < 2 * max(spread=0, 1): unimodal by the guard.
        assert largest_gap_threshold([10, 11]) is None
        assert largest_gap_threshold([10, 12]) == 11

    def test_noise_guard_rejects_wide_low_cluster(self):
        # Largest gap 15 at the top, but the low cluster spans 10:
        # 15 < 2 * 10, so no split (slow drift is not bimodality).
        assert largest_gap_threshold([0, 5, 10, 25]) is None
        # Double the gap and it clears the guard.
        assert largest_gap_threshold([0, 5, 10, 31]) is not None

    def test_tie_in_gap_size_first_gap_wins(self):
        # Gaps of 10 between (0,10) and (10,20): the first strict
        # maximum is kept, so the split lands below 10 and only the
        # lowest value classifies as a hit.
        threshold = largest_gap_threshold([0, 10, 20])
        assert threshold == 5
        hits, _ = classify_hits([20, 0, 10])
        assert hits == [1]

    def test_unsorted_input_equivalent(self):
        latencies = [250] * 10 + [12]
        assert largest_gap_threshold(latencies) == \
            largest_gap_threshold(sorted(latencies))


class TestLeakReport:
    """``analyze_probe``'s :class:`ProbeVerdict`."""

    def test_single_dip_recovered(self):
        latencies = [260] * 256
        latencies[42] = 8
        report = analyze_probe(latencies)
        assert report.leaked
        assert report.recovered == 42

    def test_no_dip_no_leak(self):
        report = analyze_probe([260] * 256)
        assert not report.leaked
        assert report.hits == []

    def test_ignored_indices_excluded(self):
        latencies = [260] * 256
        latencies[0] = 8
        latencies[99] = 8
        report = analyze_probe(latencies, ignore_indices=(0,))
        assert report.recovered == 99

    def test_multiple_hits_never_recover(self):
        latencies = [260] * 256
        latencies[10] = 8
        latencies[20] = 8
        report = analyze_probe(latencies)
        assert report.hits == [10, 20]
        assert report.recovered is None


class TestExpectedHitsSemantics:
    """expected_hits reports, it never changes recovery (explicit since
    the PR that removed the silent fallback override)."""

    def test_single_hit_recovers_regardless_of_expected(self):
        latencies = [260] * 64
        latencies[5] = 8
        for expected in (0, 1, 2, 7):
            report = analyze_probe(latencies, expected_hits=expected)
            assert report.recovered == 5
            assert report.expected_hits == expected
        assert len(analyze_probe(latencies, expected_hits=1).hits) == 1

    def test_two_hits_match_expected_two_but_stay_unrecovered(self):
        latencies = [260] * 64
        latencies[5] = 8
        latencies[9] = 8
        report = analyze_probe(latencies, expected_hits=2)
        assert len(report.hits) == report.expected_hits == 2
        assert report.recovered is None          # ambiguous by design

    def test_no_hits_matches_expected_zero(self):
        report = analyze_probe([260] * 64, expected_hits=0)
        assert len(report.hits) == report.expected_hits == 0
        assert report.recovered is None

    def test_exclusions_feed_the_expected_count(self):
        latencies = [260] * 64
        latencies[0] = 8
        latencies[5] = 8
        report = analyze_probe(latencies, expected_hits=1,
                               ignore_indices=(0,))
        assert report.hits == [5]
        assert len(report.hits) == report.expected_hits
        assert report.recovered == 5


class TestReportRendering:
    def test_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_bars_scale_to_peak(self):
        text = format_bars(["x", "y"], [1.0, 2.0], width=10)
        x_line, y_line = text.splitlines()
        assert y_line.count("#") == 10
        assert x_line.count("#") == 5

    def test_latency_plot_contains_axis(self):
        text = format_latency_plot([250] * 128 + [10] + [250] * 127)
        assert "+" in text
        assert "*" in text

    def test_empty_inputs(self):
        assert format_bars([], []) == "(no data)"
        assert format_latency_plot([]) == "(no data)"
