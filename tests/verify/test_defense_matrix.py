"""Defense-suppression semantics of the static leak checker.

Each defense model must kill exactly the window kind it defends and
nothing else (positive *and* negative cells):

* ``secure`` (SL-cache quarantine) suppresses **runahead**-window
  reports only — speculation-window leaks survive it;
* ``branch-skip`` (branch restrictions) kills **speculation**-window
  reports only — the straight-line stale-store leak survives it;
* ``no-runahead`` closes runahead windows but leaves in-ROB
  speculation leaks standing.

Plus the SPECRUN-specific pin: the stale-store gadget is reachable
*only* through a runahead window — disable runahead exploration and the
checker goes clean; the pht-padded gadget needs the long window too.
"""

from __future__ import annotations

import pytest

from repro.verify import (DEFENSES, WINDOW_RUNAHEAD, WINDOW_SPECULATION,
                          VerifyError, VerifyOptions, check_program)
from repro.verify.targets import build_target


def check_target(name, **kwargs):
    """Build a registered target and run :func:`check_program` on it."""
    case = build_target(name)
    return case, check_program(case.program, case.image,
                               secret_addrs=case.secret_addrs,
                               initial_sp=case.initial_sp, **kwargs)


def windows_of(result):
    return {report.window for report in result.reports}


# (target, defense, expect_clean, expected_windows-if-flagged)
MATRIX_CELLS = [
    # secure kills runahead-window reports ONLY:
    ("stale-store", "secure", True, set()),            # positive
    ("pht", "secure", False, {WINDOW_SPECULATION}),    # negative
    # branch-skip kills speculation-window reports ONLY:
    ("pht", "branch-skip", True, set()),               # positive
    ("stale-store", "branch-skip", False, {WINDOW_RUNAHEAD}),  # negative
    # no-runahead closes runahead windows but not in-ROB speculation:
    ("stale-store", "no-runahead", True, set()),
    ("pht", "no-runahead", False, {WINDOW_SPECULATION}),
    # the undefended machine flags both gadget shapes:
    ("pht", "original", False, {WINDOW_SPECULATION}),
    ("stale-store", "original", False, {WINDOW_RUNAHEAD}),
    # benign twins stay clean even undefended:
    ("pht-safe", "original", True, set()),
    ("stale-store-safe", "original", True, set()),
]


@pytest.mark.parametrize("target,defense,expect_clean,expect_windows",
                         MATRIX_CELLS)
def test_defense_suppression_cell(target, defense, expect_clean,
                                  expect_windows):
    _, result = check_target(target, defense=defense)
    assert result.clean == expect_clean, \
        f"{target}/{defense}: expected " \
        f"{'clean' if expect_clean else 'flagged'}, got " \
        f"{len(result.reports)} report(s)"
    if not expect_clean:
        assert windows_of(result) == expect_windows


def test_secure_counts_what_it_suppresses():
    """The secure model doesn't silently drop the runahead leak — it
    records the suppression, so 'clean because defended' is
    distinguishable from 'nothing there'."""
    _, defended = check_target("stale-store", defense="secure")
    assert defended.clean and defended.suppressed == 1
    _, benign = check_target("stale-store-safe", defense="secure")
    assert benign.clean and benign.suppressed == 0


class TestRunaheadOnlyReach:
    """Gadgets beyond the speculation window: the paper's core claim
    that runahead opens transient windows ordinary speculation cannot."""

    def test_stale_store_needs_the_runahead_window(self):
        case = build_target("stale-store")
        both = check_program(case.program, case.image,
                             secret_addrs=case.secret_addrs,
                             initial_sp=case.initial_sp)
        assert windows_of(both) == {WINDOW_RUNAHEAD}
        spec_only = check_program(case.program, case.image,
                                  secret_addrs=case.secret_addrs,
                                  initial_sp=case.initial_sp,
                                  windows=(WINDOW_SPECULATION,))
        assert spec_only.clean

    def test_padded_pht_outruns_the_speculation_depth(self):
        """Fig. 11: with the gadget pushed past the ROB, the in-ROB
        speculation model can't reach it — only exploration that
        continues past the stall (no-runahead defense closes it)."""
        _, padded = check_target("pht-padded", defense="no-runahead")
        assert padded.clean
        _, original = check_target("pht-padded", defense="original")
        assert not original.clean


class TestCheckerValidation:
    def test_unknown_defense_is_rejected(self):
        case = build_target("pht")
        with pytest.raises(VerifyError, match="unknown defense"):
            check_program(case.program, case.image,
                          secret_addrs=case.secret_addrs,
                          initial_sp=case.initial_sp, defense="asbestos")

    def test_unknown_window_is_rejected(self):
        case = build_target("pht")
        with pytest.raises(VerifyError, match="unknown window"):
            check_program(case.program, case.image,
                          secret_addrs=case.secret_addrs,
                          initial_sp=case.initial_sp, windows=("rob",))

    def test_defense_names_match_the_harness_registry(self):
        from repro.harness.registry import CONTROLLERS
        assert set(DEFENSES) == set(CONTROLLERS)

    @pytest.mark.parametrize("field,value", [
        ("runahead_len", 0), ("runahead_len", -1), ("runahead_len", "x"),
        ("runahead_len", True), ("spec_depth", 0), ("spec_depth", 1.5),
        ("max_arch_steps", 0), ("max_arch_steps", None),
        ("max_window_forks", -1), ("max_window_forks", False),
        ("max_window_forks", "2"),
    ])
    def test_out_of_range_bound_is_rejected(self, field, value):
        """A zero-length window would explore nothing and call a leaking
        gadget clean; a bool or string bound is a caller's mistake."""
        case = build_target("stale-store")
        options = VerifyOptions(**{field: value})
        with pytest.raises(VerifyError, match=f"^{field} must be"):
            check_program(case.program, case.image,
                          secret_addrs=case.secret_addrs,
                          initial_sp=case.initial_sp, options=options)

    def test_smallest_bounds_are_accepted(self):
        case = build_target("stale-store")
        options = VerifyOptions(spec_depth=1, runahead_len=1,
                                max_arch_steps=1, max_window_forks=0)
        result = check_program(case.program, case.image,
                               secret_addrs=case.secret_addrs,
                               initial_sp=case.initial_sp, options=options)
        assert result.arch_steps == 1
