#!/usr/bin/env python
"""SPECRUN across Spectre variants (paper Fig. 4 / §4.4) and runahead
variants (§4.3).

Every cell of the matrix runs the full attack pipeline; the paper's
claim is that the mixed optimization (runahead + any branch predictor
structure) is exploitable for each combination.

This example builds the 4x3 matrix as a *custom* harness sweep — a
cartesian :meth:`Sweep.grid` over attack variant and runahead
controller — rather than using a canned preset, showing how to declare
your own experiment and still get sharded execution and result caching.
"""

from repro.harness import Sweep, attack_matrix, run_sweep

VARIANTS = ["pht", "btb", "rsb-overwrite", "rsb-flush"]
CONTROLLERS = ["original", "precise", "vector"]


def main():
    sweep = Sweep.grid("spectre-matrix", "attack",
                       variant=VARIANTS, runahead=CONTROLLERS)
    print(f"attack variant x runahead variant matrix "
          f"({len(sweep)} attack runs; cell = outcome)")
    result = run_sweep(sweep, progress=lambda line: print(f"  {line}"))
    print()
    print(attack_matrix(result.results("attack"),
                        rows=VARIANTS, cols=CONTROLLERS))
    print()
    leaks = sum(res["leaked"] for res in result.results("attack"))
    print(f"planted secret is 86 everywhere: {leaks}/{len(sweep)} "
          "combinations leak.")
    print(result.describe())


if __name__ == "__main__":
    main()
