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
    """Sort by key, sum duplicate keys, drop terms with |amp| <= tol."""
    if keys.size == 0:
        return keys.astype(np.uint64), amps.astype(np.complex128)
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    a = amps[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    sums = np.add.reduceat(a, starts)
    keep = np.abs(sums) > tol
    return k[starts][keep], sums[keep]
