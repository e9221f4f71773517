"""Aggregation helpers over sweep results.

These replace the ad-hoc reduction loops the benchmark scripts used to
carry: geometric means over IPC records, speedup tables/bars, and
attack-outcome matrices.  Everything operates on the plain result
payloads produced by :mod:`repro.harness.runner`, so the same helpers
serve the benchmarks, the examples and ``python -m repro report``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.report import format_bars, format_table


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def geometric_mean_speedup(ipc_results: Iterable[Dict[str, Any]]) -> float:
    """Geometric mean over the ``speedup`` field of IPC result payloads."""
    return geomean(row["speedup"] for row in ipc_results)


def ipc_table(ipc_results: Sequence[Dict[str, Any]],
              baseline_label: str = "baseline") -> str:
    """Fig. 7-style table from IPC result payloads, in given order."""
    rows = [(row["workload"], "1.000", f"{row['speedup']:.3f}",
             f"{row['ipc_base']:.3f}", f"{row['ipc_contender']:.3f}",
             row["episodes"], row["prefetches"]) for row in ipc_results]
    return format_table(
        ["benchmark", baseline_label, "contender", "IPC base",
         "IPC contender", "episodes", "prefetches"], rows)


def speedup_bars(ipc_results: Sequence[Dict[str, Any]]) -> str:
    return format_bars([row["workload"] for row in ipc_results],
                       [row["speedup"] for row in ipc_results], unit="x")


def attack_cell(result: Dict[str, Any]) -> str:
    """Render one attack outcome the way the §6 matrix prints it."""
    return f"LEAK {result['recovered']}" if result["leaked"] else "blocked"


def attack_matrix(attack_results: Sequence[Dict[str, Any]],
                  rows: Sequence[str], cols: Sequence[str],
                  row_field: str = "variant",
                  col_field: str = "runahead") -> str:
    """Pivot attack payloads into a rows × cols outcome table."""
    index: Dict[Tuple[str, str], Dict[str, Any]] = {
        (res[row_field], res[col_field]): res for res in attack_results}
    table_rows = []
    for row in rows:
        cells: List[str] = [row]
        for col in cols:
            res = index.get((row, col))
            cells.append(attack_cell(res) if res else "-")
        table_rows.append(tuple(cells))
    return format_table([row_field] + list(cols), table_rows)
