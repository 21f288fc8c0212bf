import numpy as np

from hqec._kernels import coalesce64


def test_coalesce_sums_duplicates_and_prunes():
    keys = np.array([5, 3, 5, 3, 9, 9], dtype=np.uint64)
    amps = np.array([1.0, 2.0, -1.0, 1.0j, 0.5, -0.5], dtype=np.complex128)
    k, a = coalesce64(keys, amps, 1e-12)
    # key 5 cancels, key 9 cancels, key 3 keeps 2+1j
    assert k.tolist() == [3]
    assert a.tolist() == [2.0 + 1.0j]


def test_coalesce_empty():
    k, a = coalesce64(np.array([], np.uint64), np.array([], np.complex128), 1e-12)
    assert k.size == 0 and a.size == 0


def test_coalesce_reference_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 200))
        keys = rng.integers(0, 40, m).astype(np.uint64)
        amps = (rng.normal(size=m) + 1j * rng.normal(size=m)).astype(np.complex128)
        k, a = coalesce64(keys, amps, 1e-12)
        ref = {}
        for key, amp in zip(keys.tolist(), amps.tolist()):
            ref[key] = ref.get(key, 0) + amp
        ref = {key: amp for key, amp in ref.items() if abs(amp) > 1e-12}
        assert sorted(k.tolist()) == sorted(ref)
        assert k.tolist() == sorted(k.tolist())
        for key, amp in zip(k.tolist(), a.tolist()):
            assert abs(amp - ref[key]) < 1e-12
