#!/usr/bin/env python
"""Transient-window measurement (paper Fig. 10 / §5.3 and Fig. 11).

How many instructions can execute transiently behind a flushed load?

* N1: normal machine            — bounded by the ROB (256 entries);
* N2: runahead machine          — pseudo-retirement breaks the bound;
* N3: runahead + an attacker thread re-flushing the stalling line just
  before its fill returns — the runahead interval is prolonged.

Both figures run as harness presets (``fig10``, ``fig11``), so repeated
invocations hit the result cache and each scenario can execute in its
own worker process.
"""

from repro.harness import presets, run_sweep


def main():
    fig10 = presets.get("fig10")
    result = run_sweep(fig10.build())
    print("=== Fig. 10: transient window size ===")
    print(fig10.render(result))
    n_windows = [rec["result"]["window"] for rec in result.select("window")]
    print(f"ours reproduces the ordering: "
          f"{' < '.join(str(w) for w in n_windows)}")

    print()
    print("=== Fig. 11: leaking beyond the ROB ===")
    fig11 = presets.get("fig11")
    result11 = run_sweep(fig11.build())
    baseline = result11.one("attack", runahead="none")["result"]
    runahead = result11.one("attack", runahead="original")["result"]
    print(f"  no-runahead machine: "
          f"{'LEAKED' if baseline['leaked'] else 'no leak'}")
    print(f"  runahead machine   : "
          f"{'LEAKED, secret=' + str(runahead['recovered']) if runahead['leaked'] else 'no leak'}")
    print()
    print("runahead-based speculation reaches gadgets classic Spectre")
    print("cannot — 'introducing the risk of data leakage to initially")
    print("secure code' (paper §5.3).")


if __name__ == "__main__":
    main()
