#!/usr/bin/env python
"""Runahead performance on the Fig. 7 benchmark suite.

Drives the six SPEC2006-shaped kernels through the experiment harness
(``repro.harness``): the ``fig7`` preset declares the sweep,
``run_sweep`` fans it out across worker processes, and the on-disk result
cache makes a second run of this script (or of ``python -m repro
sweep fig7`` — same trials) near-instant.

Try::

    python examples/runahead_speedup.py            # full grid
    python examples/runahead_speedup.py --quick    # CI smoke grid
"""

import sys

from repro.harness import presets, run_sweep


def main():
    quick = "--quick" in sys.argv[1:]
    preset = presets.get("fig7")
    sweep = preset.build(quick=quick)
    print(f"Fig. 7: normalized IPC, no-runahead vs runahead "
          f"({len(sweep)} trials)")
    result = run_sweep(sweep, progress=lambda line: print(f"  {line}"))
    print()
    print(preset.render(result))
    print()
    print(result.describe())
    if result.cache_hits:
        print("(cached — delete the cache dir or pass force=True to "
              "recompute)")


if __name__ == "__main__":
    main()
