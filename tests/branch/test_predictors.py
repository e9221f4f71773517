"""Unit tests for direction predictors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import (BimodalPredictor, GSharePredictor,
                          TwoLevelPredictor, TwoBitCounter,
                          make_direction_predictor)


class TestTwoBitCounter:
    def test_saturation(self):
        state = TwoBitCounter.STRONG_TAKEN
        assert TwoBitCounter.update(state, True) == 3
        state = TwoBitCounter.STRONG_NOT_TAKEN
        assert TwoBitCounter.update(state, False) == 0

    def test_hysteresis(self):
        # From strong-taken one not-taken outcome keeps predicting taken.
        state = TwoBitCounter.STRONG_TAKEN
        state = TwoBitCounter.update(state, False)
        assert TwoBitCounter.predict(state)
        state = TwoBitCounter.update(state, False)
        assert not TwoBitCounter.predict(state)


@pytest.mark.parametrize("name", ["bimodal", "gshare", "twolevel"])
class TestCommonBehaviour:
    def test_initially_predicts_not_taken(self, name):
        predictor = make_direction_predictor(name)
        taken, _ = predictor.predict(0x100)
        assert not taken

    def test_training_flips_prediction(self, name):
        """Attack step ① (poisoning) must work on every predictor.

        The speculative history is updated with the *actual* outcome, as
        the pipeline does after misprediction recovery."""
        predictor = make_direction_predictor(name)
        pc = 0x100
        for _ in range(20):
            taken, meta = predictor.predict(pc)
            predictor.spec_update(pc, True)
            predictor.update(pc, True, meta)
        taken, _ = predictor.predict(pc)
        assert taken

    def test_retraining_flips_back(self, name):
        predictor = make_direction_predictor(name)
        pc = 0x40
        for _ in range(20):
            _, meta = predictor.predict(pc)
            predictor.spec_update(pc, True)
            predictor.update(pc, True, meta)
        for _ in range(20):
            _, meta = predictor.predict(pc)
            predictor.spec_update(pc, False)
            predictor.update(pc, False, meta)
        taken, _ = predictor.predict(pc)
        assert not taken


class TestGShareHistory:
    def test_spec_update_changes_index(self):
        predictor = GSharePredictor(table_bits=8, history_bits=8)
        _, index_before = predictor.predict(0x100)
        predictor.spec_update(0x100, True)
        _, index_after = predictor.predict(0x100)
        assert index_before != index_after

    def test_snapshot_restore_round_trip(self):
        predictor = GSharePredictor()
        snap = predictor.snapshot()
        predictor.spec_update(0x0, True)
        predictor.spec_update(0x4, False)
        assert predictor.ghr != snap
        predictor.restore(snap)
        assert predictor.ghr == snap

    def test_history_distinguishes_paths(self):
        """gshare learns a pattern bimodal cannot: alternating outcomes
        become predictable once history is in the index."""
        predictor = GSharePredictor(table_bits=10, history_bits=4)
        pc = 0x200
        outcome = True
        for _ in range(64):
            _, meta = predictor.predict(pc)
            predictor.update(pc, outcome, meta)
            predictor.spec_update(pc, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(16):
            taken, meta = predictor.predict(pc)
            correct += taken == outcome
            predictor.update(pc, outcome, meta)
            predictor.spec_update(pc, outcome)
            outcome = not outcome
        assert correct >= 14


class TestTwoLevelLocalHistory:
    def test_learns_periodic_pattern(self):
        predictor = TwoLevelPredictor(history_bits=6)
        pc = 0x300
        pattern = [True, True, False]
        for i in range(90):
            outcome = pattern[i % 3]
            _, meta = predictor.predict(pc)
            predictor.update(pc, outcome, meta)
        correct = 0
        for i in range(90, 120):
            outcome = pattern[i % 3]
            taken, meta = predictor.predict(pc)
            correct += taken == outcome
            predictor.update(pc, outcome, meta)
        assert correct >= 27

    def test_distinct_branches_do_not_interfere(self):
        predictor = TwoLevelPredictor(bht_bits=10, pc_bits=6)
        # Train pc_a taken, pc_b not-taken; ensure no cross-talk.
        pc_a, pc_b = 0x100, 0x104
        for _ in range(8):
            _, meta = predictor.predict(pc_a)
            predictor.update(pc_a, True, meta)
            _, meta = predictor.predict(pc_b)
            predictor.update(pc_b, False, meta)
        assert predictor.predict(pc_a)[0]
        assert not predictor.predict(pc_b)[0]


class TestFactory:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_direction_predictor("neural")

    def test_kwargs_forwarded(self):
        predictor = make_direction_predictor("bimodal", table_bits=4)
        assert predictor.table_bits == 4


class TestPredictorProperties:
    @given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                    max_size=300),
           st.sampled_from(["bimodal", "gshare", "twolevel"]))
    @settings(max_examples=40, deadline=None)
    def test_predict_update_never_crashes_and_stays_binary(self, ops, name):
        predictor = make_direction_predictor(name)
        for pc_slot, outcome in ops:
            pc = pc_slot * 4
            taken, meta = predictor.predict(pc)
            assert isinstance(taken, bool)
            predictor.spec_update(pc, taken)
            predictor.update(pc, outcome, meta)
