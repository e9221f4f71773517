"""Plain-text tables and charts for the benchmark harness.

The benches reproduce the paper's tables and figures as text: bar charts
for Fig. 7, scatter-style latency plots for Figs. 9 and 11, and aligned
tables elsewhere.  Everything renders with ASCII so the output survives
CI logs and ``tee``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

_BAR = "#"


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned table with a header rule."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def format_bars(labels: Sequence[str], values: Sequence[float], width=40,
                unit="") -> str:
    """Horizontal bar chart (used for the Fig. 7 IPC comparison)."""
    if not values:
        return "(no data)"
    peak = max(values) or 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = _BAR * max(1, round(width * value / peak))
        lines.append(f"{label.ljust(label_width)}  {bar} {value:.3f}{unit}")
    return "\n".join(lines)


def format_latency_plot(latencies: Sequence[int], height=12, width=64,
                        title="") -> str:
    """Downsampled ASCII scatter of probe latencies (Figs. 9 and 11).

    Buckets are reduced with ``min`` so a single-index latency dip — the
    leak signature — survives downsampling.
    """
    n = len(latencies)
    if n == 0:
        return "(no data)"
    step = max(1, n // width)
    columns = [min(latencies[i:i + step]) for i in range(0, n, step)]
    peak = max(columns) or 1
    rows = []
    for level in range(height, 0, -1):
        cutoff = peak * level / height
        prev_cutoff = peak * (level - 1) / height
        row = "".join("*" if prev_cutoff < value <= cutoff else " "
                      for value in columns)
        label = f"{round(cutoff):>5} |"
        rows.append(label + row)
    rows.append("      +" + "-" * len(columns))
    rows.append(f"       0{'index'.rjust(len(columns) - 1)}")
    out = [title] if title else []
    out.extend(rows)
    return "\n".join(out)


