"""Classic Spectre baseline (no runahead).

The same gadget programs run on the plain out-of-order machine give the
baseline SPECRUN is compared against:

* the unpadded gadget leaks under ordinary speculation (the transient
  window inside the ROB is enough — Fig. 5a);
* with a nop sled longer than the ROB between the poisoned branch and
  the secret access, classic Spectre **cannot** reach the gadget, while
  runahead still can (Fig. 5b / Fig. 11) — the paper's headline
  advantage.
"""

from __future__ import annotations

from ..runahead.base import NoRunahead
from .specrun import AttackResult, SpecRunAttack


def run_classic_spectre(variant="pht", config=None,
                        **gadget_kwargs) -> AttackResult:
    """Run the gadget on the no-runahead machine."""
    return SpecRunAttack(variant=variant, runahead=NoRunahead(),
                         config=config, **gadget_kwargs).run()


def rob_limit_comparison(nop_padding, config=None, secret_value=127,
                         **gadget_kwargs):
    """The Fig. 11 experiment: same padded gadget, both machines.

    Returns ``(no_runahead_result, runahead_result)``.
    """
    from ..runahead.original import OriginalRunahead

    baseline = SpecRunAttack(
        variant="pht", runahead=NoRunahead(), config=config,
        secret_value=secret_value, nop_padding=nop_padding,
        **gadget_kwargs).run()
    runahead = SpecRunAttack(
        variant="pht", runahead=OriginalRunahead(), config=config,
        secret_value=secret_value, nop_padding=nop_padding,
        **gadget_kwargs).run()
    return baseline, runahead
