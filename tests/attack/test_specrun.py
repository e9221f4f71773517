"""End-to-end SPECRUN attack tests (the paper's §5.2 and §4.3/§4.4 claims).

These run the full pipeline — training, flush, trigger, probe — on the
Table-1 machine.  Each takes on the order of a second of host time.
"""

import pytest

from repro.attack import SpecRunAttack, run_specrun
from repro.runahead import (NoRunahead, OriginalRunahead, PreciseRunahead,
                            VectorRunahead)
from repro.pipeline import CoreConfig


class TestPhtPoC:
    def test_recovers_planted_secret(self):
        result = run_specrun("pht", secret_value=86)
        assert result.succeeded
        assert result.recovered_secret == 86

    def test_probe_shape_matches_fig9(self):
        """One dip at the secret index; everything else near memory
        latency — the Fig. 9 curve."""
        result = run_specrun("pht", secret_value=86)
        latencies = result.latencies
        dip = latencies[86]
        others = [lat for i, lat in enumerate(latencies) if i != 86]
        assert dip < 50
        assert min(others) > 150

    def test_different_secret_values(self):
        for secret in (3, 200, 255):
            result = run_specrun("pht", secret_value=secret)
            assert result.succeeded, f"failed for secret {secret}"

    def test_attack_engages_runahead(self):
        result = run_specrun("pht")
        assert result.stats.runahead_episodes >= 1
        assert result.stats.inv_branches >= 1
        assert result.stats.runahead_prefetches >= 1

    def test_architectural_state_never_reads_secret(self):
        """The victim's bounds check holds architecturally: the attack is
        purely transient."""
        attack = SpecRunAttack("pht", secret_value=86)
        result = attack.run()
        assert result.succeeded


class TestSpectreVariants:
    """§4.4: the mixed optimization applies to PHT, BTB and RSB variants."""

    @pytest.mark.parametrize("variant", ["btb", "rsb-overwrite",
                                         "rsb-flush"])
    def test_variant_leaks_under_runahead(self, variant):
        result = run_specrun(variant)
        assert result.succeeded, result.describe()

    def test_btb_uses_poisoned_target(self):
        result = run_specrun("btb")
        assert result.stats.runahead_episodes >= 1
        assert result.succeeded


class TestRunaheadVariants:
    """§4.3: precise and vector runahead are also vulnerable."""

    @pytest.mark.parametrize("controller_cls", [PreciseRunahead,
                                                VectorRunahead])
    def test_variant_controllers_leak(self, controller_cls):
        result = run_specrun("pht", runahead=controller_cls())
        assert result.succeeded, result.describe()

    def test_precise_runahead_filters_non_slice_work(self):
        result = run_specrun("pht", runahead=PreciseRunahead())
        assert result.stats.filtered_instructions > 0


class TestPredictorAgnosticism:
    """The attack trains whatever direction predictor is configured."""

    @pytest.mark.parametrize("predictor", ["bimodal", "twolevel"])
    def test_leaks_with_predictor(self, predictor):
        config = CoreConfig.paper(predictor=predictor)
        result = run_specrun("pht", config=config)
        assert result.succeeded, result.describe()


class TestBaselines:
    def test_unpadded_gadget_also_leaks_classically(self):
        """Within the ROB window, plain speculation leaks too — SPECRUN's
        novelty is beyond-ROB reach, not the in-window leak."""
        result = run_specrun("pht", runahead=NoRunahead())
        assert result.succeeded

    def test_beyond_rob_only_runahead_leaks(self):
        """Fig. 11: with a nop sled longer than the ROB, the baseline
        machine cannot reach the gadget; the runahead machine can."""
        padding = 300   # > 256-entry ROB
        baseline = run_specrun("pht", runahead=NoRunahead(),
                               secret_value=127, nop_padding=padding)
        runahead = run_specrun("pht", runahead=OriginalRunahead(),
                               secret_value=127, nop_padding=padding)
        assert not baseline.leaked
        assert runahead.succeeded
        assert runahead.recovered_secret == 127


class TestFaithfulLimitations:
    def test_uncached_secret_does_not_leak(self):
        """Runahead loads that miss to memory return INV (Mutlu'03), so a
        secret that is not cache-resident cannot be leaked — a genuine
        SPECRUN limitation this model reproduces."""
        result = run_specrun("pht", touch_secret=False)
        assert not result.succeeded
