"""The sort-and-sum kernel of the sparse-state layer, in plain numpy.

``coalesce64`` turns an unsorted list of (basis key, amplitude) terms into
the sorted, duplicate-free, pruned form that ``SparseState`` stores.  The
term arrays stay small (tens to a few hundred entries), so one vectorised
numpy pass is the whole cost; bit counts elsewhere use ``int.bit_count``
or ``np.bitwise_count`` inline.
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
