"""Unit tests for the deterministic noise layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (NO_NOISE, NoiseDraw, NoiseModel, SplitMix64,
                           derive_seed, extract_secret)

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
BOUNDARY_SEEDS = (0, MASK64, GAMMA)
BULK_LENGTHS = (255, 256, 257, 2048, 2304)


def seed_whose_first_output_is(z):
    """The seed whose first ``next_u64`` is ``z``: SplitMix64's output
    mix is a bijection on 64-bit words, so undo it step by step."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - GAMMA) & MASK64


def one_by_one_draw(model, rng, lines, n_indices):
    """``NoiseModel.draw`` with one rng call per sample, as first written."""
    evicted, polluted = set(), set()
    if model.evict_rate or model.pollute_rate:
        for line in lines:
            sample = rng.random()
            if sample < model.evict_rate:
                evicted.add(line)
            elif sample < model.evict_rate + model.pollute_rate:
                polluted.add(line)
    jitters = tuple(rng.randint(-model.jitter, model.jitter)
                    for _ in range(n_indices)) if model.jitter else ()
    return NoiseDraw(evicted=frozenset(evicted),
                     polluted=frozenset(polluted), jitters=jitters)


class TestSplitMix64:
    def test_known_stream(self):
        """Pin the first outputs of the reference SplitMix64 stream for
        seed 0 — cross-version / cross-platform reproducibility is the
        whole point of not using the stdlib ``random``."""
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_known_stream_in_bulk(self):
        rng = SplitMix64(0)
        assert rng._u64s(3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]
        assert rng._state == (3 * GAMMA) & MASK64

    def test_empty_bulk_draw_keeps_the_state(self):
        rng = SplitMix64(7)
        assert rng._u64s(0) == [] and rng._u64s(-3) == []
        assert rng.randints(0, 9, 0) == []
        assert rng.next_u64() == SplitMix64(7).next_u64()

    @pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
    @pytest.mark.parametrize("n", BULK_LENGTHS)
    def test_bulk_matches_one_by_one_at_long_lengths(self, seed, n):
        bulk, single = SplitMix64(seed), SplitMix64(seed)
        assert bulk._u64s(n) == [single.next_u64() for _ in range(n)]
        assert bulk._state == single._state == (seed + n * GAMMA) & MASK64
        assert bulk.randints(-600, 600, n) == \
            [single.randint(-600, 600) for _ in range(n)]
        assert bulk.next_u64() == single.next_u64()

    def test_inverse_mix_reaches_the_wanted_output(self):
        for z in (0, 1, 2047, 2048, 1 << 63, MASK64, 0x06C45D188009454F):
            assert SplitMix64(seed_whose_first_output_is(z)).next_u64() == z

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(1234), SplitMix64(1234)
        assert [a.next_u64() for _ in range(10)] == \
            [b.next_u64() for _ in range(10)]

    def test_random_in_unit_interval(self):
        rng = SplitMix64(99)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_randint_bounds_and_coverage(self):
        rng = SplitMix64(5)
        seen = {rng.randint(-2, 2) for _ in range(200)}
        assert seen == {-2, -1, 0, 1, 2}

    def test_randint_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randint(3, 2)
        with pytest.raises(ValueError):
            SplitMix64(0).randints(3, 2, 4)

    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(0, 40),
           low=st.integers(-600, 0), width=st.integers(0, 1200))
    def test_bulk_draws_continue_the_same_stream(self, seed, n, low, width):
        bulk, single = SplitMix64(seed), SplitMix64(seed)
        assert bulk.randints(low, low + width, n) == \
            [single.randint(low, low + width) for _ in range(n)]
        assert bulk.next_u64() == single.next_u64()


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed("a", 1, 2) == derive_seed("a", 1, 2)
        assert derive_seed("a", 1, 2) != derive_seed("a", 1, 3)
        assert derive_seed("a", 1, 2) != derive_seed("a", 12)

    def test_64_bit(self):
        assert 0 <= derive_seed("x") < 2 ** 64


class TestNoiseModel:
    def test_from_spec_none_and_silent(self):
        assert NoiseModel.from_spec(None) is None
        assert NoiseModel.from_spec({}) is None
        assert NoiseModel.from_spec(
            {"jitter": 0, "evict_rate": 0.0}) is None
        assert NoiseModel.from_spec(NoiseModel()) is None
        assert NoiseModel.from_spec(NoiseModel(jitter=0)) is None

    def test_silent_spellings_record_the_same_noise(self):
        """A silent model passed as an object and as a dict spec is the
        same experiment, so it must give the same record."""
        as_model = extract_secret("A", noise=NoiseModel(), trials=2)
        as_dict = extract_secret("A", noise={"jitter": 0}, trials=2)
        assert as_model.to_dict()["noise"] is None
        assert as_model.to_dict() == as_dict.to_dict()

    def test_from_spec_roundtrip(self):
        spec = {"jitter": 8, "evict_rate": 0.1, "pollute_rate": 0.2}
        model = NoiseModel.from_spec(spec)
        assert model.to_spec() == spec
        assert NoiseModel.from_spec(model) is model

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown noise spec"):
            NoiseModel.from_spec({"jitterz": 1})
        with pytest.raises(ValueError, match="jitter"):
            NoiseModel(jitter=-1)
        with pytest.raises(ValueError, match="evict_rate"):
            NoiseModel(evict_rate=1.5)
        with pytest.raises(ValueError, match="exceed 1"):
            NoiseModel(evict_rate=0.6, pollute_rate=0.6)

    def test_draw_deterministic(self):
        model = NoiseModel(jitter=10, evict_rate=0.3, pollute_rate=0.3)
        lines = list(range(0, 6400, 64))
        a = model.draw(SplitMix64(42), lines, 100)
        b = model.draw(SplitMix64(42), lines, 100)
        assert a == b
        c = model.draw(SplitMix64(43), lines, 100)
        assert a != c

    def test_draw_respects_rates(self):
        lines = list(range(0, 64000, 64))
        all_evict = NoiseModel(evict_rate=1.0).draw(
            SplitMix64(1), lines, 10)
        assert all_evict.evicted == frozenset(lines)
        assert not all_evict.polluted
        all_pollute = NoiseModel(pollute_rate=1.0).draw(
            SplitMix64(1), lines, 10)
        assert all_pollute.polluted == frozenset(lines)
        clean = NoiseModel(jitter=3).draw(SplitMix64(1), lines, 10)
        assert not clean.evicted and not clean.polluted
        assert len(clean.jitters) == 10
        assert all(-3 <= j <= 3 for j in clean.jitters)

    @settings(max_examples=50)
    @given(seed=st.integers(0, (1 << 64) - 1),
           jitter=st.sampled_from([0, 1, 8, 600]),
           rates=st.sampled_from([(0.0, 0.0), (0.1, 0.0), (0.0, 0.3),
                                  (0.05, 0.05), (0.5, 0.5), (1.0, 0.0)]),
           n_lines=st.integers(0, 64), n_indices=st.integers(0, 16))
    def test_draw_matches_one_by_one_stream(self, seed, jitter, rates,
                                            n_lines, n_indices):
        model = NoiseModel(jitter=jitter, evict_rate=rates[0],
                           pollute_rate=rates[1])
        lines = [64 * i for i in range(n_lines)]
        bulk, single = SplitMix64(seed), SplitMix64(seed)
        assert model.draw(bulk, lines, n_indices) == \
            one_by_one_draw(model, single, lines, n_indices)
        assert bulk.next_u64() == single.next_u64()

    @pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
    @pytest.mark.parametrize("n_lines", BULK_LENGTHS)
    def test_long_draw_matches_one_by_one_stream(self, seed, n_lines):
        model = NoiseModel(jitter=600, evict_rate=0.1, pollute_rate=0.3)
        lines = [64 * i for i in range(n_lines)]
        bulk, single = SplitMix64(seed), SplitMix64(seed)
        assert model.draw(bulk, lines, 256) == \
            one_by_one_draw(model, single, lines, 256)
        assert bulk.next_u64() == single.next_u64()

    @pytest.mark.parametrize("evict_rate,pollute_rate", [
        (0.5, 0.0), (0.25, 0.0), (1.0, 0.0), (2.0 ** -53, 0.0),
        (0.0, 0.5), (0.25, 0.25), (0.25, 0.5), (2.0 ** -53, 2.0 ** -53),
        (0.0, 1.0), (0.5, 0.5)])
    def test_exact_rate_thresholds(self, evict_rate, pollute_rate):
        """A sample lands exactly on, just below and just above each
        rate: ``sample = (z >> 11) / 2**53``, and each rate here is a
        multiple of ``2**-53``, so ``z`` is chosen to hit it."""
        model = NoiseModel(evict_rate=evict_rate, pollute_rate=pollute_rate)
        noisy_rate = evict_rate + pollute_rate
        for rate in (evict_rate, noisy_rate):
            step = int(rate * 2 ** 53)
            for k in (step - 1, step, step + 1):
                if not 0 <= k < 1 << 53:
                    continue
                for low_bits in (0, 2047):
                    z = (k << 11) | low_bits
                    seed = seed_whose_first_output_is(z)
                    draw = model.draw(SplitMix64(seed), [64], 0)
                    assert draw == one_by_one_draw(
                        model, SplitMix64(seed), [64], 0)
                    sample = k / 2 ** 53
                    assert draw.evicted == (
                        {64} if sample < evict_rate else set())
                    assert draw.polluted == (
                        {64} if evict_rate <= sample < noisy_rate
                        else set())

    def test_evict_and_pollute_disjoint(self):
        model = NoiseModel(evict_rate=0.5, pollute_rate=0.5)
        draw = model.draw(SplitMix64(2), list(range(0, 6400, 64)), 0)
        assert not (draw.evicted & draw.polluted)

    def test_no_noise_sentinel(self):
        assert NO_NOISE.jitters == ()
        assert not NO_NOISE.evicted and not NO_NOISE.polluted
