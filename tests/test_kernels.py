import numpy as np

from hqec.states import PRUNE_TOL, _coalesce


def test_coalesce_sums_duplicates_and_prunes():
    keys = [5, 3, 5, 3, 9, 9]
    amps = [1.0 + 0j, 2.0 + 0j, -1.0 + 0j, 1.0j, 0.5 + 0j, -0.5 + 0j]
    k, a = _coalesce(keys, amps)
    # key 5 cancels, key 9 cancels, key 3 keeps 2+1j
    assert k == (3,)
    assert a == (2.0 + 1.0j,)


def test_coalesce_empty():
    k, a = _coalesce((), ())
    assert k == () and a == ()


def test_coalesce_reference_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 200))
        keys = rng.integers(0, 40, m).tolist()
        amps = (rng.normal(size=m) + 1j * rng.normal(size=m)).tolist()
        k, a = _coalesce(keys, amps)
        ref = {}
        for key, amp in zip(keys, amps):
            ref[key] = ref.get(key, 0) + amp
        ref = {key: amp for key, amp in ref.items() if abs(amp) > PRUNE_TOL}
        assert sorted(k) == sorted(ref)
        assert list(k) == sorted(k)
        for key, amp in zip(k, a):
            assert abs(amp - ref[key]) < PRUNE_TOL
