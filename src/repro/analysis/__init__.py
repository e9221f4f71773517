"""Measurement analysis: thresholds, leak detection, report rendering."""

from .leak import ProbeVerdict, analyze_probe
from .report import (format_bars, format_latency_plot, format_table,
                     normalized)
from .thresholds import classify_hits, largest_gap_threshold

__all__ = [
    "ProbeVerdict", "analyze_probe", "format_bars", "format_latency_plot",
    "format_table", "normalized", "classify_hits", "largest_gap_threshold",
]
