import math

import pytest

from hqec.rng import SplitMix64


def test_reference_outputs_seed_zero():
    # the published splitmix64 sequence for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_random_in_unit_interval():
    rng = SplitMix64(7)
    assert all(0.0 <= rng.random() < 1.0 for _ in range(10_000))


@pytest.mark.parametrize("weights", [[0.25] * 4, [0.5, 0, 0.3, 0.2]])
def test_choice_weighted_frequencies(weights):
    # every count within 6 sigma of its binomial mean; a zero weight is never drawn
    draws = 10_000
    rng = SplitMix64(2024)
    counts = [0] * len(weights)
    for _ in range(draws):
        counts[rng.choice_weighted(weights)] += 1
    total = sum(weights)
    for count, w in zip(counts, weights):
        p = w / total
        assert abs(count - draws * p) <= 6 * math.sqrt(draws * p * (1 - p)), (counts, weights)


@pytest.mark.parametrize("weights", [[], [0, 0], [0.0] * 4, [-0.25, 0.25], [-1.0], [math.inf, 1.0],
                                     [math.nan, 0.5]])
def test_choice_weighted_refuses_a_sum_that_is_not_positive_and_finite(weights):
    # no draw is made: the generator's state is where it was
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="^weights must have a positive, finite sum, got "):
        rng.choice_weighted(weights)
    assert rng.state == SplitMix64(5).state


def test_choice_weighted_draws_one_random():
    # the draw is random() scaled by the total, so the index follows it
    for seed in range(200):
        r = SplitMix64(seed).random()
        rng = SplitMix64(seed)
        assert rng.choice_weighted([0.5, 0.25, 0.25]) == (0 if r < 0.5 else 1 if r < 0.75 else 2)
        assert rng.state == SplitMix64(seed).state + 0x9E3779B97F4A7C15 & (1 << 64) - 1
