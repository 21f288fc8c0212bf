"""A numpy sort-and-sum kernel that the library itself does not use.

``coalesce64`` turns an unsorted list of (basis key, amplitude) terms into
a sorted, duplicate-free, pruned form; ``states._coalesce`` does the same
on Python ints and tuples.  Only perfbench, which loads this module as one
of its traced layers, and tests/test_kernels.py import it.
"""

from __future__ import annotations

import numpy as np


def coalesce64(keys: np.ndarray, amps: np.ndarray, tol: float):
    """Sort by key, sum duplicate keys in their given order, drop terms
    with |amp| <= tol."""
    if keys.size == 0:
        return keys.astype(np.uint64), amps.astype(np.complex128)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    sums = np.add.reduceat(amps[order], starts)
    keep = np.abs(sums) > tol
    return keys[starts][keep], sums[keep]
