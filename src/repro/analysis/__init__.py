"""Measurement analysis: thresholds, leak detection, report rendering."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "leak": ("ProbeVerdict", "analyze_probe"),
    "report": ("format_bars", "format_latency_plot", "format_table"),
    "thresholds": ("classify_hits", "largest_gap_threshold"),
})
