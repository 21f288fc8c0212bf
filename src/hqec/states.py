"""Exact sparse state vectors on up to 64 qubits.

Basis strings are packed into uint64 keys (qubit q lives at bit q-1, so
qubit 1 is the leftmost character of a bitstring like "110"), amplitudes
are complex128, and term arrays are kept sorted by key.  States are
values: every operation returns a new state.

All the amplitudes appearing in the supported protocols (powers of 1/sqrt2
times eighth roots of unity) are representable to ~1e-16, so comparisons
use a 1e-10 tolerance and terms below 1e-12 are pruned.

Reading a state never re-sorts it: ``inner`` finds one state's keys in
the other's with ``searchsorted``, and ``pauli_eigenvalues`` reads
<psi|P|psi> for a batch of Paulis (generators, logical operators) by
finding the flipped keys k ^ x the same way, term by term.

``teleport`` contracts a data qubit, a fresh Bell pair and the pair's
rotated Bell measurement without building the joint register: an outcome
sends each term to one key, so the collapse is one gather and the four
probabilities are two sums.  ``apply_phases`` runs a layer of Z, S and Sd
gates on many qubits as one phase pass.
"""

from __future__ import annotations

import numpy as np

from ._kernels import coalesce64
from .gf2 import format_row, parse_row
from .pauli import PauliOperator

MAX_STATE_QUBITS = 64
PRUNE_TOL = 1e-12
NORM_TOL = 1e-10
GRAM_TOL = 1e-10
ZERO_WEIGHT = 1e-20
TERM_GUARD = 1 << 22
EIGEN_BLOCK = 1 << 16  # entries of one (Paulis x terms) block in pauli_eigenvalues

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


class SingleQubitGate:
    __slots__ = ("label", "matrix")

    def __init__(self, label: str, matrix):
        m = np.asarray(matrix, dtype=complex).reshape(2, 2)
        # m m^dag summed by hand: the builtin gates are made at import, and
        # a first BLAS call there would add ~0.4 MB to every process
        m_mdag = (m[:, None, :] * m.conj()[None, :, :]).sum(axis=2)
        if np.abs(m_mdag - np.eye(2)).max() > 1e-12:
            raise ValueError(f"gate {label!r} is not unitary")
        m.flags.writeable = False
        self.label = label
        self.matrix = m


_GATES = {label: SingleQubitGate(label, m) for label, m in _GATE_MATRICES.items()}
IDENTITY = SingleQubitGate("I", np.eye(2, dtype=complex))


def gate(label: str) -> SingleQubitGate:
    """Named gate from {X, Z, H, S, Sd, T, Td}; gates are immutable and shared."""
    try:
        return _GATES[label]
    except KeyError:
        raise ValueError(f"unknown gate {label!r}") from None


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
    def from_terms(cls, n: int, terms: dict) -> "SparseState":
        keys = []
        amps = []
        for k, a in terms.items():
            keys.append(parse_row(k) if isinstance(k, str) else int(k))
            amps.append(a)
        return cls(n, np.array(keys, np.uint64), np.array(amps, np.complex128))

    # -- inspection -------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return int(self.keys.size)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def amplitude(self, bits: int | str) -> complex:
        if isinstance(bits, str):
            bits = parse_row(bits)
        i = np.searchsorted(self.keys, np.uint64(bits))
        if i < self.keys.size and self.keys[i] == np.uint64(bits):
            return complex(self.amps[i])
        return 0j

    def items(self):
        for k, a in zip(self.keys.tolist(), self.amps.tolist()):
            yield k, a

    def dump_lines(self) -> list[str]:
        """State dump format: 'bitstring re im' sorted by bitstring."""
        rows = [(format_row(k, self.n), a) for k, a in self.items()]
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
    if sum(s.num_terms for s in states) > TERM_GUARD:
        raise ValueError("combine result exceeds the term-count guard")
    keys = np.concatenate([s.keys for s in states])
    amps = np.concatenate([c * s.amps for s, c in zip(states, coeffs)])
    return SparseState(n, keys, amps)


def inner(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the shared basis keys, summed in key order."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return _inner_arrays(a.keys, a.amps, b.keys, b.amps)


def _inner_arrays(a_keys, a_amps, b_keys, b_amps) -> complex:
    """inner on bare sorted key and amplitude arrays: the shared keys are
    found by searching b's keys and summed in a's key order."""
    if not b_keys.size:
        return 0j
    idx = np.minimum(np.searchsorted(b_keys, a_keys), b_keys.size - 1)
    hit = b_keys[idx] == a_keys
    return complex(np.sum(np.conj(a_amps[hit]) * b_amps[idx[hit]]))


def fidelity_up_to_phase(a: SparseState, b: SparseState) -> float:
    """|<a|b>|; 1 means equal up to a global phase (for normalized inputs)."""
    return abs(inner(a, b))


def apply_single(state: SparseState, g: SingleQubitGate, qubit: int) -> SparseState:
    state._check_qubit(qubit)
    m = g.matrix
    keys, amps = state.keys, state.amps
    flipped = keys ^ np.uint64(1 << (qubit - 1))
    b = (keys > flipped).astype(np.intp)  # the bit is set iff flipping it lowers the key
    if m[0, 1] == 0 and m[1, 0] == 0:
        # diagonal: sparsity preserved exactly
        return SparseState(state.n, keys, amps * m[b, b], True)
    if m[0, 0] == 0 and m[1, 1] == 0:
        # antidiagonal: basis permutation
        return state._resorted(flipped, amps * m[1 - b, b])
    # general: each term branches into bit=0 and bit=1 components
    if 2 * state.num_terms > TERM_GUARD:
        raise ValueError(f"gate {g.label} result exceeds the term-count guard")
    keys0 = np.minimum(keys, flipped)
    keys1 = np.maximum(keys, flipped)
    return SparseState(state.n, np.concatenate([keys0, keys1]),
                       np.concatenate([amps * m[0, b], amps * m[1, b]]))


_I_POWERS = np.array([1, 1j, -1, -1j])


def apply_phases(state: SparseState, powers) -> SparseState:
    """The diagonal layer diag(1, i^powers[q-1]) on every qubit q in one pass:
    each term |k> is multiplied by i^(sum of powers[q-1] * bit q of k), with
    the exponent read by bitwise_count from two qubit masks (its 1s and 2s).
    Every factor is an exact unit, so for amplitudes without zero real or
    imaginary parts this equals applying the Z (power 2), S (1) and Sd (3)
    gates one by one, bit for bit."""
    if len(powers) != state.n:
        raise ValueError(f"{len(powers)} phase powers for {state.n} qubits")
    ones = sum(1 << q for q, k in enumerate(powers) if k & 1)
    twos = sum(1 << q for q, k in enumerate(powers) if k & 2)
    keys = state.keys
    exps = np.bitwise_count(keys & np.uint64(ones)) + 2 * np.bitwise_count(keys & np.uint64(twos))
    return SparseState(state.n, keys, state.amps * _I_POWERS[exps & 3], True)


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


def pauli_eigenvalues(state: SparseState, paulis) -> tuple[np.ndarray, np.ndarray]:
    """(values, eigen) for a sequence of Paulis: <psi|P|psi> for each P, and
    whether every term of P|psi> matches lambda|psi> within NORM_TOL, where
    lambda = value / <psi|psi>.  The zero state is no eigenstate.

    P = i^phase X(x) Z(z) sends a|k> to i^phase (-1)^popcount(k & z) a|k^x>;
    each flipped key is looked up in the sorted keys (a missing one counts as
    amplitude 0), in blocks of (Paulis x terms) entries that stay within
    EIGEN_BLOCK unless a single row is larger.
    """
    for p in paulis:
        if p.n != state.n:
            raise ValueError(f"dimension mismatch: operator on {p.n}, state on {state.n}")
    values, eigen = np.zeros(len(paulis), complex), np.zeros(len(paulis), bool)
    keys, amps = state.keys, state.amps
    norm2 = float(np.vdot(amps, amps).real)
    if not paulis or norm2 == 0:
        return values, eigen
    xs = np.array([p.x for p in paulis], np.uint64)[:, None]
    zs = np.array([p.z for p in paulis], np.uint64)[:, None]
    phases = np.array([p.phase_value() for p in paulis], complex)[:, None]
    rows = max(1, EIGEN_BLOCK // keys.size)
    for lo in range(0, len(paulis), rows):
        block = slice(lo, lo + rows)
        flipped = keys ^ xs[block]
        idx = np.minimum(np.searchsorted(keys, flipped), keys.size - 1)
        # psi and P|psi> at k ^ x, for every stored key k
        target = np.where(keys[idx] == flipped, amps[idx], 0)
        image = amps * (1.0 - 2.0 * (np.bitwise_count(keys & zs[block]) & 1)) * phases[block]
        lam = np.sum(np.conj(target) * image, axis=1)
        values[block] = lam
        residual = image - (lam / norm2)[:, None] * target
        eigen[block] = np.all(np.abs(residual) <= NORM_TOL, axis=1)
    return values, eigen


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


def _bell_gather(rotation: SingleQubitGate):
    """(flips, entries, zeros) from _bell_basis_rows: outcome i sends data
    bit d to pair bit e = d ^ flips[i], times entries[i, d] (column d + 2e);
    zeros[i, d] is the entry its partner meets there (column 1 - d + 2e).
    Raises unless the rotation is diagonal or antidiagonal."""
    rows = _bell_basis_rows(rotation.matrix)
    flips = tuple(int(rows[i, 2] != 0) for i in range(4))
    entries = np.take_along_axis(rows, np.array([[2, 1] if f else [0, 3] for f in flips]), 1)
    if np.count_nonzero(entries) != 8 or np.count_nonzero(rows) != 8:
        raise ValueError(f"teleport takes a diagonal or antidiagonal rotation, got {rotation.label!r}")
    return flips, entries, np.take_along_axis(rows, np.array([[3, 0] if f else [1, 2] for f in flips]), 1)


_ZERO = np.zeros(1)
# the rotations the T gadgets use (I, S and Sd), keyed by their matrix bytes
_BELL_GATHERS = {g.matrix.tobytes(): _bell_gather(g) for g in (IDENTITY, _GATES["S"], _GATES["Sd"])}


def teleport(state: SparseState, qubit: int, rotation: SingleQubitGate, rng, forced=None,
             diagonal: SingleQubitGate | None = None):
    """Teleport `qubit` through a fresh Bell pair measured in the basis
    (U^dag Z^b X^a (x) I)|Phi>: tensor(state, _BELL_PAIR), swap_qubits(qubit,
    n+1) and a measurement of the pair (n+1, n+2), without the joint
    register.  Returns ((r_a, r_b), the collapsed n-qubit state); `forced`
    replaces sampling.  U must be diagonal or antidiagonal: an outcome then
    sends term k to k or k ^ mask alone, with the same |amp| for every
    outcome, so the collapse is one gather and the probabilities are two
    sums.  All of it equals the joint register's sort-and-sum bit for bit.

    `diagonal`, a T gadget's T or Td, is applied to `qubit` first, by the
    product apply_single uses, so the result equals teleport(apply_single(
    state, diagonal, qubit), ...) bit for bit; a non-diagonal gate raises."""
    if diagonal is not None and (diagonal.matrix[0, 1] != 0 or diagonal.matrix[1, 0] != 0):
        raise ValueError(f"teleport takes a diagonal gate, got {diagonal.label!r}")
    flips, entries, zeros = _BELL_GATHERS.get(rotation.matrix.tobytes()) or _bell_gather(rotation)
    n = state.n
    if n + 2 > MAX_STATE_QUBITS:
        raise ValueError(f"tensor result on {n + 2} qubits exceeds the {MAX_STATE_QUBITS}-qubit cap")
    if 2 * state.num_terms > TERM_GUARD:
        raise ValueError("tensor result exceeds the term-count guard")
    state._check_qubit(qubit)
    if state.num_terms == 0:
        raise ValueError("measurement on a zero-weight state")

    keys = state.keys
    flipped = keys ^ np.uint64(1 << (qubit - 1))
    bit = (keys > flipped).astype(np.intp)  # the bit is set iff flipping it lowers the key
    amps = state.amps
    if diagonal is not None:
        amps = amps * np.diagonal(diagonal.matrix)[bit]
    amps = _BELL_PAIR.amps[0] * amps
    mags = np.abs(amps * entries[0][bit])
    kept = mags > PRUNE_TOL
    order = np.argsort(flipped)
    # np.sum of the kept |amp|^2, bit for bit: reduceat adds the rest of a
    # segment to its first entry, so both segments start with a 0
    sq = mags**2
    weights = np.concatenate((_ZERO, sq[kept], _ZERO, sq[order][kept[order]]))
    sums = np.add.reduceat(weights, [0, np.count_nonzero(kept) + 1]).tolist()
    probs = [sums[f] for f in flips]
    if sum(probs) < 1e-12:
        raise ValueError("measurement on a zero-weight state")

    if forced is None:
        idx = rng.choice_weighted(probs)
    else:
        try:
            idx = _OUTCOMES.index(tuple(forced))
        except (TypeError, ValueError):
            raise ValueError(f"forced outcome must be a pair of bits, got {forced!r}") from None
    outcome, p = _OUTCOMES[idx], probs[idx]
    if p < 1e-12:
        raise ValueError(f"outcome {outcome} has zero probability")
    # where partner k ^ mask is stored, the joint sum adds its zero-entry
    # product too: that sets the signs of zero parts
    at = np.searchsorted(keys, flipped)
    partner = keys.take(at, mode="clip") == flipped
    out = amps * entries[idx][bit]
    np.add(out, amps.take(at, mode="clip") * zeros[idx][bit], out=out, where=partner)
    if flips[idx]:
        keys, out, kept = flipped[order], out[order], kept[order]
    return outcome, SparseState(n, keys[kept], out[kept] / np.sqrt(p), True)
