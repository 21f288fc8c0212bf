"""Exact sparse state vectors on up to 64 qubits.

Basis strings are packed into uint64 keys (qubit q lives at bit q-1, so
qubit 1 is the leftmost character of a bitstring like "110"), amplitudes
are complex128, and term arrays are kept sorted by key.  States are
values: every operation returns a new state.

All the amplitudes appearing in the supported protocols (powers of 1/sqrt2
times eighth roots of unity) are representable to ~1e-16, so comparisons
use a 1e-10 tolerance and terms below 1e-12 are pruned.

The named gates are built once at import, and so are the rotated Bell
bases of the T gadgets: 4 outcomes times the rotations {I, S, Sd}, looked
up by the rotation's matrix.  Any other rotation gets its basis computed
on the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import coalesce64
from .pauli import PauliOperator

MAX_STATE_QUBITS = 64
PRUNE_TOL = 1e-12
NORM_TOL = 1e-10
GRAM_TOL = 1e-10
ZERO_WEIGHT = 1e-20
TERM_GUARD = 1 << 22

_SQ2 = 1.0 / np.sqrt(2.0)
_GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sd": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "Td": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
}


@dataclass(frozen=True)
class SingleQubitGate:
    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).reshape(2, 2)
        # m m^dag summed by hand: the builtin gates are made at import, and
        # a first BLAS call there would add ~0.4 MB to every process
        m_mdag = (m[:, None, :] * m.conj()[None, :, :]).sum(axis=2)
        if np.abs(m_mdag - np.eye(2)).max() > 1e-12:
            raise ValueError(f"gate {self.label!r} is not unitary")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


_GATES = {label: SingleQubitGate(label, m) for label, m in _GATE_MATRICES.items()}
IDENTITY = SingleQubitGate("I", np.eye(2, dtype=complex))


def gate(label: str) -> SingleQubitGate:
    """Named gate from {X, Z, H, S, Sd, T, Td}; gates are immutable and shared."""
    try:
        return _GATES[label]
    except KeyError:
        raise ValueError(f"unknown gate {label!r}") from None


def key_to_bitstring(key: int, n: int) -> str:
    return "".join("1" if (key >> q) & 1 else "0" for q in range(n))


def bitstring_to_key(bits: str) -> int:
    key = 0
    for q, ch in enumerate(bits):
        if ch == "1":
            key |= 1 << q
        elif ch != "0":
            raise ValueError(f"invalid bitstring character {ch!r}")
    return key


class SparseState:
    """Immutable map from packed basis keys to complex amplitudes."""

    __slots__ = ("n", "keys", "amps")

    def __init__(self, n: int, keys, amps, already_clean: bool = False):
        if not 0 <= n <= MAX_STATE_QUBITS:
            raise ValueError(f"qubit count must be in 0..{MAX_STATE_QUBITS}, got {n}")
        keys = np.asarray(keys, dtype=np.uint64)
        amps = np.asarray(amps, dtype=np.complex128)
        if keys.shape != amps.shape:
            raise ValueError("keys and amplitudes differ in length")
        if n < 64 and keys.size and int(keys.max()) >> n:
            raise ValueError("basis key has bits beyond the register size")
        if not already_clean:
            keys, amps = coalesce64(keys, amps, PRUNE_TOL)
        keys.flags.writeable = False
        amps.flags.writeable = False
        self.n = n
        self.keys = keys
        self.amps = amps

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_basis(cls, n: int, bits: int | str) -> "SparseState":
        if isinstance(bits, str):
            if len(bits) != n:
                raise ValueError(f"bitstring length {len(bits)} != qubit count {n}")
            bits = bitstring_to_key(bits)
        return cls(n, np.array([bits], np.uint64), np.array([1.0], np.complex128), True)

    @classmethod
    def from_terms(cls, n: int, terms: dict) -> "SparseState":
        keys = []
        amps = []
        for k, a in terms.items():
            keys.append(bitstring_to_key(k) if isinstance(k, str) else int(k))
            amps.append(a)
        return cls(n, np.array(keys, np.uint64), np.array(amps, np.complex128))

    @classmethod
    def vacuum(cls) -> "SparseState":
        """The empty register (n=0): a single unit amplitude."""
        return cls(0, np.array([0], np.uint64), np.array([1.0], np.complex128), True)

    # -- inspection -------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return int(self.keys.size)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def amplitude(self, bits: int | str) -> complex:
        if isinstance(bits, str):
            bits = bitstring_to_key(bits)
        i = np.searchsorted(self.keys, np.uint64(bits))
        if i < self.keys.size and self.keys[i] == np.uint64(bits):
            return complex(self.amps[i])
        return 0j

    def items(self):
        for k, a in zip(self.keys.tolist(), self.amps.tolist()):
            yield k, a

    def dump_lines(self) -> list[str]:
        """State dump format: 'bitstring re im' sorted by bitstring."""
        rows = [(key_to_bitstring(k, self.n), a) for k, a in self.items()]
        rows.sort(key=lambda r: r[0])
        return [f"{b} {a.real:.17g} {a.imag:.17g}" for b, a in rows]

    def normalized(self) -> "SparseState":
        nrm = self.norm()
        if nrm < 1e-15:
            raise ValueError("cannot normalize a zero state")
        return SparseState(self.n, self.keys, self.amps / nrm, True)

    def scaled(self, factor: complex) -> "SparseState":
        return SparseState(self.n, self.keys, self.amps * factor, True)

    def _check_qubit(self, qubit: int):
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit {qubit} out of range 1..{self.n}")

    def _resorted(self, keys, amps) -> "SparseState":
        order = np.argsort(keys)
        return SparseState(self.n, keys[order], amps[order], True)


def combine(states, coeffs) -> SparseState:
    """Linear combination sum_i coeffs[i] * states[i] (not normalized)."""
    n = states[0].n
    for s in states:
        if s.n != n:
            raise ValueError("dimension mismatch in combine")
    keys = np.concatenate([s.keys for s in states])
    amps = np.concatenate([c * s.amps for s, c in zip(states, coeffs)])
    return SparseState(n, keys, amps)


def inner(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the shared basis keys."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    _, ia, ib = np.intersect1d(a.keys, b.keys, assume_unique=True, return_indices=True)
    return complex(np.sum(np.conj(a.amps[ia]) * b.amps[ib]))


def fidelity_up_to_phase(a: SparseState, b: SparseState) -> float:
    """|<a|b>|; 1 means equal up to a global phase (for normalized inputs)."""
    return abs(inner(a, b))


def apply_single(state: SparseState, g: SingleQubitGate, qubit: int) -> SparseState:
    state._check_qubit(qubit)
    m = g.matrix
    mask = np.uint64(1 << (qubit - 1))
    b = ((state.keys & mask) != 0).astype(np.int64)
    if m[0, 1] == 0 and m[1, 0] == 0:
        # diagonal: sparsity preserved exactly
        amps = state.amps * np.where(b == 1, m[1, 1], m[0, 0])
        return SparseState(state.n, state.keys, amps, True)
    if m[0, 0] == 0 and m[1, 1] == 0:
        # antidiagonal: basis permutation
        amps = state.amps * np.where(b == 1, m[0, 1], m[1, 0])
        return state._resorted(state.keys ^ mask, amps)
    # general: each term branches into bit=0 and bit=1 components
    keys0 = state.keys & ~mask
    keys1 = state.keys | mask
    amps0 = state.amps * np.where(b == 1, m[0, 1], m[0, 0])
    amps1 = state.amps * np.where(b == 1, m[1, 1], m[1, 0])
    return SparseState(state.n, np.concatenate([keys0, keys1]), np.concatenate([amps0, amps1]))


def apply_cnot(state: SparseState, control: int, target: int) -> SparseState:
    state._check_qubit(control)
    state._check_qubit(target)
    if control == target:
        raise ValueError("control and target must differ")
    cbit = (state.keys >> np.uint64(control - 1)) & np.uint64(1)
    return state._resorted(state.keys ^ (cbit << np.uint64(target - 1)), state.amps.copy())


def apply_pauli(state: SparseState, p: PauliOperator) -> SparseState:
    if p.n != state.n:
        raise ValueError(f"dimension mismatch: operator on {p.n}, state on {state.n}")
    zmask = np.uint64(p.z)
    xmask = np.uint64(p.x)
    signs = 1.0 - 2.0 * (np.bitwise_count(state.keys & zmask) & 1)
    amps = state.amps * signs * p.phase_value()
    if xmask:
        return state._resorted(state.keys ^ xmask, amps)
    return SparseState(state.n, state.keys, amps, True)


def swap_qubits(state: SparseState, i: int, j: int) -> SparseState:
    state._check_qubit(i)
    state._check_qubit(j)
    if i == j:
        return state
    bi = (state.keys >> np.uint64(i - 1)) & np.uint64(1)
    bj = (state.keys >> np.uint64(j - 1)) & np.uint64(1)
    diff = bi ^ bj
    flip = (diff << np.uint64(i - 1)) | (diff << np.uint64(j - 1))
    return state._resorted(state.keys ^ flip, state.amps.copy())


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Product state with a's qubits first (leftmost) and b's appended."""
    n = a.n + b.n
    if n > MAX_STATE_QUBITS:
        raise ValueError(f"tensor result on {n} qubits exceeds the {MAX_STATE_QUBITS}-qubit cap")
    if a.num_terms * b.num_terms > TERM_GUARD:
        raise ValueError("tensor result exceeds the term-count guard")
    # b's keys fill the high bits, so b-major order is already sorted
    keys = ((b.keys[:, None] << np.uint64(a.n)) | a.keys[None, :]).ravel()
    amps = (b.amps[:, None] * a.amps[None, :]).ravel()
    return SparseState(n, keys, amps, True)


_BELL_PAIR = SparseState(2, np.array([0b00, 0b11], np.uint64), np.array([_SQ2, _SQ2], complex), True)


def bell_pair() -> SparseState:
    """(|00> + |11>)/sqrt(2); states are immutable, so one instance is shared."""
    return _BELL_PAIR


def project_onto(span, state: SparseState):
    """Orthogonal projection of state onto span (a list of orthonormal states).

    Returns (projection, weight) where weight is the squared norm of the
    projection; the projection is NOT renormalized and is None when the
    weight is below 1e-20.
    """
    for i, u in enumerate(span):
        for j, v in enumerate(span):
            expected = 1.0 if i == j else 0.0
            if abs(inner(u, v) - expected) > GRAM_TOL:
                raise ValueError("projection span is not orthonormal")
    coeffs = [inner(u, state) for u in span]
    weight = float(sum(abs(c) ** 2 for c in coeffs))
    if weight < ZERO_WEIGHT:
        return None, weight
    return combine(span, coeffs), weight


def _drop_bit(keys: np.ndarray, pos: int) -> np.ndarray:
    low = keys & np.uint64((1 << pos) - 1)
    high = (keys >> np.uint64(pos + 1)) << np.uint64(pos)
    return low | high


_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _bell_basis_rows(rotation: np.ndarray) -> np.ndarray:
    """Row i: the conjugated basis vector (U^dag Z^b X^a (x) I)|Phi> of
    outcome (a, b) = _OUTCOMES[i], at index b1 + 2*b2 (b1 the bit of the
    first measured qubit).  Entry b1 + 2*b2 is M[b1, b2]/sqrt2, and column j
    of M = U^dag Z^b X^a is (-1)^(b*(j^a)) times column j^a of U^dag, which
    is exact; adding 0.0 clears negative zeros, so the rows equal the dense
    product bit for bit."""
    u_dag = rotation.conj().T
    rows = np.empty((4, 4), dtype=complex)
    for i, (a, b) in enumerate(_OUTCOMES):
        cols = np.array([a, 1 - a])
        m = u_dag[:, cols] * (1 - 2 * b * cols)
        rows[i] = np.conj(m.T.reshape(4) * _SQ2 + 0.0)
    rows.flags.writeable = False
    return rows


# the rotations the T gadgets use (I, S and Sd), keyed by their matrix bytes
_BELL_ROWS = {
    g.matrix.tobytes(): _bell_basis_rows(g.matrix) for g in (IDENTITY, _GATES["S"], _GATES["Sd"])
}


def rotated_bell_measure(state, pair, rotation: SingleQubitGate, rng, forced=None):
    """Measure a qubit pair in the rotation-conjugated Bell basis.

    The basis states are (U^dag Z^b X^a (x) I)|Phi> with the single-qubit
    operators acting on pair[0].  The measured pair is removed from the
    register (remaining qubits keep their relative order), so the collapsed
    state has n-2 qubits.  `forced` short-circuits sampling with a given
    (r_a, r_b); otherwise the outcome is drawn from rng.

    The terms are grouped once by their key with the pair dropped, and all
    four branch amplitudes of a group are summed in key order, so every
    branch equals a separate sort-and-sum of that branch.
    """
    q1, q2 = pair
    state._check_qubit(q1)
    state._check_qubit(q2)
    if q1 == q2:
        raise ValueError("measured pair must be two distinct qubits")
    if state.num_terms == 0:
        raise ValueError("measurement on a zero-weight state")
    rows = _BELL_ROWS.get(rotation.matrix.tobytes())
    if rows is None:
        rows = _bell_basis_rows(rotation.matrix)

    keys = state.keys
    hi, lo = max(q1, q2) - 1, min(q1, q2) - 1
    rest = _drop_bit(_drop_bit(keys, hi), lo)
    order = np.argsort(rest, kind="stable")
    rest = rest[order]
    keys = keys[order]
    local = ((keys >> np.uint64(q1 - 1)) & np.uint64(1)) | (
        ((keys >> np.uint64(q2 - 1)) & np.uint64(1)) << np.uint64(1)
    )
    first = np.empty(rest.size, dtype=bool)
    first[0] = True
    np.not_equal(rest[1:], rest[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    # (4, groups): branch i's amplitude of each remaining basis key
    branches = np.add.reduceat(state.amps[order] * rows[:, local.astype(np.intp)], starts, axis=1)
    mags = np.abs(branches)
    kept = mags > PRUNE_TOL
    probs = [float(np.sum(w[k])) for w, k in zip(mags**2, kept)]
    total = sum(probs)
    if total < 1e-12:
        raise ValueError("measurement on a zero-weight state")

    if forced is not None:
        outcome = (int(forced[0]), int(forced[1]))
        idx = _OUTCOMES.index(outcome)
    else:
        idx = rng.choice_weighted(probs)
        outcome = _OUTCOMES[idx]
    p = probs[idx]
    if p < 1e-12:
        raise ValueError(f"outcome {outcome} has zero probability")
    keep = kept[idx]
    amps = branches[idx][keep] / np.sqrt(p)
    collapsed = SparseState(state.n - 2, rest[starts][keep], amps, True)
    return outcome, collapsed
