"""The sort-and-sum kernel of the sparse-state layer, in plain numpy.

``sum_by_key`` sorts terms by key and sums the values that share one;
``coalesce64`` builds on it to turn an unsorted list of (basis key,
amplitude) terms into the sorted, duplicate-free, pruned form that
``SparseState`` stores, and ``states.teleport`` sums its four measurement
branches with it.  The term arrays stay small (tens to a few hundred
entries), so one vectorised numpy pass is the whole cost; bit counts
elsewhere use ``int.bit_count`` or ``np.bitwise_count`` inline.
"""

from __future__ import annotations

import numpy as np


def sum_by_key(keys: np.ndarray, values: np.ndarray):
    """The distinct keys of a non-empty key array in order, and values
    (... x keys) summed per key along the last axis, in their given order
    within a key."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return keys[starts], np.add.reduceat(values[..., order], starts, axis=-1)


def coalesce64(keys: np.ndarray, amps: np.ndarray, tol: float):
    """Sort by key, sum duplicate keys, drop terms with |amp| <= tol."""
    if keys.size == 0:
        return keys.astype(np.uint64), amps.astype(np.complex128)
    k, sums = sum_by_key(keys, amps)
    keep = np.abs(sums) > tol
    return k[keep], sums[keep]
