from hqec.rng import SplitMix64


def test_reference_outputs_seed_zero():
    # the published splitmix64 sequence for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_random_in_unit_interval():
    rng = SplitMix64(7)
    assert all(0.0 <= rng.random() < 1.0 for _ in range(10_000))
