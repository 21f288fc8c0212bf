"""Dense reference implementations used only by the tests.

The dense vector index equals the packed sparse key (qubit q at bit q-1),
so a sparse state and its dense counterpart agree entry-for-entry.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from hqec.codes import builtin_code, logical_codewords
from hqec.pauli import PauliOperator
from hqec.states import SparseState

I2 = np.eye(2, dtype=complex)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
ZM = np.array([[1, 0], [0, -1]], dtype=complex)
HM = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SM = np.array([[1, 0], [0, 1j]], dtype=complex)
TM = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
BELL_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def dense_of(state: SparseState) -> np.ndarray:
    vec = np.zeros(1 << state.n, dtype=complex)
    for k, a in state.items():
        vec[k] = a
    return vec


def sparse_of(vec: np.ndarray, n: int) -> SparseState:
    keys = np.flatnonzero(np.abs(vec) > 0).astype(np.uint64)
    return SparseState(n, keys, vec[keys.astype(np.int64)])


def op_on(u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Single-qubit operator embedded at 1-based qubit position."""
    return np.kron(np.eye(1 << (n - qubit)), np.kron(u, np.eye(1 << (qubit - 1))))


def dense_cnot(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        j = k ^ ((((k >> (control - 1)) & 1)) << (target - 1))
        m[j, k] = 1
    return m


def dense_swap(i: int, j: int, n: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        bi, bj = (k >> (i - 1)) & 1, (k >> (j - 1)) & 1
        out = k
        if bi != bj:
            out = k ^ (1 << (i - 1)) ^ (1 << (j - 1))
        m[out, k] = 1
    return m


def dense_pauli(p: PauliOperator) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for q in range(1, p.n + 1):
        mq = np.linalg.matrix_power(XM, p.x_bit(q)) @ np.linalg.matrix_power(ZM, p.z_bit(q))
        m = np.kron(mq, m)
    return (1j ** p.phase) * m


def dense_rotated_bell_branches(vec: np.ndarray, n: int, pair, u: np.ndarray) -> list[np.ndarray]:
    """Unnormalized post-measurement vectors of a rotated Bell measurement,
    one per outcome (a, b) in BELL_OUTCOMES.

    The basis vector of (a, b) is (U^dag Z^b X^a (x) I)|Phi> with the
    operator on pair[0]; the measured pair is removed and the remaining
    qubits keep their order.  Built from dense matrices and explicit bit
    insertion, independently of the sparse implementation.
    """
    q1, q2 = pair
    rest = [q for q in range(1, n + 1) if q not in pair]
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)  # index b1 + 2*b2
    out = []
    for a, b in BELL_OUTCOMES:
        m = u.conj().T @ np.linalg.matrix_power(ZM, b) @ np.linalg.matrix_power(XM, a)
        basis = op_on(m, 1, 2) @ phi
        branch = np.zeros(1 << (n - 2), dtype=complex)
        for r in range(branch.size):
            base = sum(((r >> j) & 1) << (q - 1) for j, q in enumerate(rest))
            for b1 in (0, 1):
                for b2 in (0, 1):
                    full = base | (b1 << (q1 - 1)) | (b2 << (q2 - 1))
                    branch[r] += np.conj(basis[b1 + 2 * b2]) * vec[full]
        out.append(branch)
    return out


def random_pauli(rng: np.random.Generator, n: int) -> PauliOperator:
    return PauliOperator.from_bits(
        rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist(), int(rng.integers(0, 4))
    )


def random_dense_state(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


@lru_cache(maxsize=None)
def cached_code(name: str):
    return builtin_code(name)


@lru_cache(maxsize=None)
def cached_code_space(name: str):
    return logical_codewords(cached_code(name))
