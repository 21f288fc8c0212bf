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
