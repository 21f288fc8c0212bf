"""Dense reference implementations used only by the tests.

The dense vector index equals the packed sparse key (qubit q at bit q-1),
so a sparse state and its dense counterpart agree entry-for-entry.  The T
gadget is checked against dense_gadget_branches, the dense joint register
of a teleportation through a rotated Bell measurement, and run_circuit bit
for bit against per_gate_exponent_run.

Also here: routes that no runner or CLI verb takes, kept because tests
compare the library against them (codeword enumeration, the eigenvalue
readout that once checked the codewords, the signed-weight syndrome readout
and the per-qubit-key storage runner, the CSS coset state, the
state-level phase layer and projector, the even-support parity check, the
code-file writer, code validation by PauliOperator.commutes calls with
the reduction tracked by PauliOperator.multiply products, the dict
constructor, tensor product and qubit swap of sparse states, the
Clifford key rule on (a, b) pairs, and the combine/inner, two-pass,
index-sort, coalescing and per-Pauli image routes that the code-space
plan, the trailing Pauli of apply_monomial, the zip sort of
_resorted, the paired general branch of apply_single and the one sweep of
apply_paulis replaced).  No oracle applies a Pauli through apply_paulis:
each goes through image_apply_pauli, one pass and one sort per Pauli.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from hqec import states as _states
from hqec.codes import (
    StabilizerCode,
    ValidationReport,
    _zero_codeword,
    builtin_code,
    decode_single_error,
    logical_codewords,
)
from hqec.gf2 import ENUM_DIM_GUARD, ClassicalCode, GuardExceeded, parse_row
from hqec.pauli import MAX_QUBITS, PauliOperator
from hqec.protocol import (
    CircuitRun,
    KeyRegister,
    ProtocolError,
    StorageReport,
    Transcript,
    apply_plain_circuit,
)
from hqec.states import (
    _OUTCOMES,
    _SIGNS,
    _SQ2,
    PRUNE_TOL,
    TERM_GUARD,
    TOL,
    SingleQubitGate,
    SparseState,
    _coalesce,
    _resorted,
    _state,
    _unit_factors,
    _weight,
    fidelity_up_to_phase,
    gate,
    inner,
    unit_amplitudes,
)

I2 = np.eye(2, dtype=complex)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
ZM = np.array([[1, 0], [0, -1]], dtype=complex)
HM = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SM = np.array([[1, 0], [0, 1j]], dtype=complex)
TM = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
BELL_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))
IDENTITY = SingleQubitGate("I", ((1, 0), (0, 1)))
_BELL_PAIR = _state(2, (0b00, 0b11), (_SQ2, _SQ2))


class PickRng:
    """Stands in for the generator: every word it returns has a fixed
    outcome index as its top two bits, and it counts the words drawn."""

    def __init__(self, pick):
        self.pick = pick
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return self.pick << 62


class UnreadRows(tuple):
    """Matrix rows that may be counted and iterated but not indexed: a
    check that looks up rows by index (as an enumeration of row pairs and
    triples does) fails on them."""

    def __getitem__(self, i):
        raise AssertionError(f"row {i} was looked up")


def from_terms(n: int, terms: dict) -> SparseState:
    """A state from {key: amplitude}, each key a packed int or a bitstring."""
    keys = [parse_row(k) if isinstance(k, str) else int(k) for k in terms]
    return SparseState(n, keys, terms.values())


def combine(states, coeffs) -> SparseState:
    """Linear combination sum_i coeffs[i] * states[i] (not normalized)."""
    n = states[0].n
    for s in states:
        if s.n != n:
            raise ValueError("dimension mismatch in combine")
    if sum(s.num_terms for s in states) > TERM_GUARD:
        raise ValueError("combine result exceeds the term-count guard")
    keys = [k for s in states for k in s.keys]
    amps = [c * a for s, c in zip(states, map(complex, coeffs)) for a in s.amps]
    return _state(n, *_coalesce(keys, amps))


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Product state with a's qubits first (leftmost) and b's appended."""
    n = a.n + b.n
    if n > MAX_QUBITS:
        raise ValueError(f"tensor result on {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    if a.num_terms * b.num_terms > _states.TERM_GUARD:
        raise ValueError("tensor result exceeds the term-count guard")
    # b's keys fill the high bits, so b-major order is already sorted
    keys = tuple([(kb << a.n) | ka for kb in b.keys for ka in a.keys])
    return _state(n, keys, tuple([y * x for y in b.amps for x in a.amps]))


def swap_qubits(state: SparseState, i: int, j: int) -> SparseState:
    state._check_qubit(i)
    state._check_qubit(j)
    if i == j:
        return state
    both = (1 << (i - 1)) | (1 << (j - 1))
    keys = [k ^ both if ((k >> (i - 1)) ^ (k >> (j - 1))) & 1 else k for k in state.keys]
    return _resorted(state.n, keys, state.amps)


def pair_key_rule(kind: str, pairs):
    """Clifford key rule on the (a, b) pairs of a gate's qubits: X and Z
    leave them alone, H swaps a and b, S and Sd fold a into b, and CNOT
    mixes the two pairs."""
    if kind in ("X", "Z"):
        return pairs
    if kind == "H":
        ((a, b),) = pairs
        return ((b, a),)
    if kind in ("S", "Sd"):
        ((a, b),) = pairs
        return ((a, a ^ b),)
    (ai, bi), (aj, bj) = pairs
    return ((ai, bi ^ bj), (ai ^ aj, bj))


def pair_mask(pairs) -> PauliOperator:
    """X^a Z^b on each qubit, from its (a, b) pair, qubit 1 first."""
    pairs = list(pairs)
    x = sum(1 << q for q, (a, _) in enumerate(pairs) if a)
    z = sum(1 << q for q, (_, b) in enumerate(pairs) if b)
    return PauliOperator(len(pairs), x, z, 0)


def basis_state(n: int, bits: int | str) -> SparseState:
    """|bits> on n qubits; bits is a packed key or a bitstring like "110"."""
    if isinstance(bits, str):
        if len(bits) != n:
            raise ValueError(f"bitstring length {len(bits)} != qubit count {n}")
        bits = parse_row(bits)
    return SparseState(n, [bits], [1.0])


def vacuum() -> SparseState:
    """The empty register (n=0): a single unit amplitude."""
    return SparseState(0, [0], [1.0])


def bell_pair() -> SparseState:
    """(|00> + |11>)/sqrt(2); states are immutable, so one instance is
    shared."""
    return _BELL_PAIR


def state_bytes(state: SparseState) -> tuple[int, tuple, bytes]:
    """(n, keys, amplitude bytes): equal for two states exactly when they
    agree bit for bit, signed zeros included, at any key width."""
    return state.n, tuple(state.keys), np.array(state.amps, complex).tobytes()


def dense_of(state: SparseState) -> np.ndarray:
    vec = np.zeros(1 << state.n, dtype=complex)
    for k, a in state.items():
        vec[k] = a
    return vec


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
        xq, zq = (p.x >> (q - 1)) & 1, (p.z >> (q - 1)) & 1
        mq = np.linalg.matrix_power(XM, xq) @ np.linalg.matrix_power(ZM, zq)
        m = np.kron(mq, m)
    return (1j ** p.phase) * m


def dense_rotated_bell_branches(vec: np.ndarray, n: int, pair, u) -> list[np.ndarray]:
    """Unnormalized post-measurement vectors of a rotated Bell measurement,
    one per outcome (a, b) in BELL_OUTCOMES.

    The basis vector of (a, b) is (U^dag Z^b X^a (x) I)|Phi> with the
    operator on pair[0]; the measured pair is removed and the remaining
    qubits keep their order.  Built from dense matrices and explicit bit
    insertion, independently of the sparse implementation.
    """
    q1, q2 = pair
    u = np.array(u, dtype=complex)
    rest = [q for q in range(1, n + 1) if q not in pair]
    # the full index of remaining index r with both pair bits 0
    bases = [sum(((r >> j) & 1) << (q - 1) for j, q in enumerate(rest)) for r in range(1 << (n - 2))]
    vals = np.asarray(vec, dtype=complex).tolist()
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)  # index b1 + 2*b2
    out = []
    for a, b in BELL_OUTCOMES:
        m = u.conj().T @ np.linalg.matrix_power(ZM, b) @ np.linalg.matrix_power(XM, a)
        bra = np.conj(op_on(m, 1, 2) @ phi).tolist()
        branch = []
        for base in bases:
            amp = 0j
            for b1 in (0, 1):
                for b2 in (0, 1):
                    amp += bra[b1 + 2 * b2] * vals[base | (b1 << (q1 - 1)) | (b2 << (q2 - 1))]
            branch.append(amp)
        out.append(np.array(branch, dtype=complex))
    return out


def dense_gadget_branches(vec: np.ndarray, n: int, qubit: int, rotation, t: int) -> list[np.ndarray]:
    """The four unnormalized branches, in BELL_OUTCOMES order, of a T gadget
    on `qubit` of the n-qubit vector vec, from the dense joint register:
    diag(1, omega^t) on the qubit, a Bell pair tensored in as qubits n+1
    and n+2, the qubit swapped with n+1, and the pair (n+1, n+2) measured
    by dense_rotated_bell_branches in the basis that `rotation` selects.
    Each branch is an n-qubit vector with the teleported qubit at `qubit`."""
    gated = op_on(np.diag([1, np.exp(1j * np.pi / 4 * t)]), qubit, n) @ vec
    joint = dense_swap(qubit, n + 1, n + 2) @ np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), gated)
    return dense_rotated_bell_branches(joint, n + 2, (n + 1, n + 2), rotation)


def dense_zero_codeword(code) -> np.ndarray:
    """|0_L> as P|s>/|P|s>|, with P the product of the projectors (I + g)/2
    over the generators and logical Z, and s the first basis index that P
    does not annihilate (the phase convention of logical_codewords)."""
    dim = 1 << code.n
    proj = np.eye(dim, dtype=complex)
    for g in list(code.generators) + [code.logical_z[0]]:
        proj = (np.eye(dim) + dense_pauli(g)) / 2 @ proj
    norms = np.linalg.norm(proj, axis=0)
    s = int(np.flatnonzero(norms > 1e-9)[0])
    return proj[:, s] / norms[s]


# letter -> (flips the bit, factor on input bit 0, factor on input bit 1)
_LETTER_ACTION = {"I": (0, 1, 1), "X": (1, 1, 1), "Y": (1, 1j, -1j), "Z": (0, 1, -1)}
_PREFIX_VALUE = {"": 1, "i": 1j, "-": -1, "-i": -1j}


def pauli_image_terms(p: PauliOperator, terms: dict) -> dict:
    """P|psi> as {key: amplitude}, applying the letters of p.to_string() one
    qubit at a time (Y|0> = i|1>, Y|1> = -i|0>) and then the sign prefix.
    Works on any key width, so it covers 64-qubit keys where no dense
    matrix fits."""
    text = p.to_string()
    prefix, letters = text[: len(text) - p.n], text[len(text) - p.n:]
    out: dict = {}
    for key, amp in terms.items():
        for q, letter in enumerate(letters):
            flip, f0, f1 = _LETTER_ACTION[letter]
            amp = amp * (f1 if (key >> q) & 1 else f0)
            key ^= flip << q
        out[key] = out.get(key, 0) + _PREFIX_VALUE[prefix] * amp
    return out


def eigen_bit_terms(p: PauliOperator, terms: dict, tol: float = 1e-10):
    """b when every amplitude of P|psi> (pauli_image_terms) matches (-1)^b
    psi within tol, over the keys of both; None otherwise and for the zero
    state."""
    if not terms:
        return None
    image = pauli_image_terms(p, terms)
    keys = set(terms) | set(image)
    for bit, sign in ((0, 1), (1, -1)):
        if all(abs(image.get(k, 0) - sign * terms.get(k, 0)) <= tol for k in keys):
            return bit
    return None


def intersect_inner(a: SparseState, b: SparseState) -> complex:
    """<a|b> by np.intersect1d over the keys, summed one term at a time in
    key order, as states.inner sums."""
    # object arrays hold the keys as Python ints, of any width
    _, ia, ib = np.intersect1d(np.array(a.keys, object), np.array(b.keys, object),
                               assume_unique=True, return_indices=True)
    total = 0j
    for i, j in zip(ia.tolist(), ib.tolist()):
        total += a.amps[i].conjugate() * b.amps[j]
    return total


# ---------------------------------------------------------------------------
# routes no runner or verb takes: codewords, phases and projections by
# enumeration, and the code-file writer


def enumerate_codewords(code: ClassicalCode) -> list[int]:
    """All 2^k codewords, ordered lexicographically by basis coefficients."""
    k = code.dimension
    if k > ENUM_DIM_GUARD:
        raise GuardExceeded(f"dimension {k} exceeds enumeration guard {ENUM_DIM_GUARD}")
    words = []
    for i in range(1 << k):
        w = 0
        for j in range(k):
            if (i >> (k - 1 - j)) & 1:
                w ^= code.basis[j]
        words.append(w)
    return words


def weight_mod(words, m: int) -> set[int]:
    """Set of Hamming weights mod m over the supplied words."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return {w.bit_count() % m for w in words}


def coset_state(code: ClassicalCode, x: int | str) -> SparseState:
    """Normalized uniform superposition over the coset x + code."""
    if isinstance(x, str):
        x = parse_row(x)
    if code.dimension > ENUM_DIM_GUARD:
        raise GuardExceeded(f"coset of 2^{code.dimension} words exceeds guard")
    words = enumerate_codewords(code)
    amp = 1.0 / (len(words) ** 0.5)
    return from_terms(code.length, {x ^ y: amp for y in words})


def even_support_check(z_supports, x_supports) -> bool:
    """True iff every generator support (an int bitset) has even cardinality:
    the geometric parity form of the masking criterion for CSS generator
    families."""
    return all(s.bit_count() % 2 == 0 for s in list(z_supports) + list(x_supports))


def apply_diagonal(state: SparseState, phase_per_one: complex) -> SparseState:
    """Multiply each basis amplitude by phase^(number of 1 bits)."""
    phase = complex(phase_per_one)
    amps = [a * phase ** k.bit_count() for k, a in state.items()]
    return _state(state.n, state.keys, tuple(amps))


def project_onto(span, state: SparseState):
    """Orthogonal projection of state onto span (a list of orthonormal states).

    Returns (projection, weight) where weight is the squared norm of the
    projection; the projection is NOT renormalized and is None when the
    weight is below TOL**2.
    """
    for i, u in enumerate(span):
        for j, v in enumerate(span):
            expected = 1.0 if i == j else 0.0
            if abs(inner(u, v) - expected) > TOL:
                raise ValueError("projection span is not orthonormal")
    coeffs = [inner(u, state) for u in span]
    weight = float(sum(abs(c) ** 2 for c in coeffs))
    if weight < TOL**2:
        return None, weight
    return combine(span, coeffs), weight


def sympl_vec(p: PauliOperator, n: int) -> int:
    """The symplectic vector x | z << n of p."""
    return p.x | (p.z << n)


def pauli_reduce_tracked(vec: int, pauli: PauliOperator, basis: list):
    """Reduce vec against rows (vector, group element with that vector), each
    reduced against the rows before it, multiplying the tracked elements."""
    for bvec, bp in basis:
        piv = bvec & -bvec
        if vec & piv:
            vec ^= bvec
            pauli = pauli.multiply(bp)
    return vec, pauli


def pairwise_validate_code(code: StabilizerCode) -> ValidationReport:
    """codes.validate_code in its pairwise form: every pair is a
    PauliOperator.commutes call, each logical is reduced against the basis
    with PauliOperator.identity products, and a logical is Hermitian when
    it squares to the identity by PauliOperator.multiply."""
    v: list[str] = []
    gens = code.generators
    for i, g in enumerate(gens):
        if not g.is_hermitian:
            v.append(f"generator {i + 1} ({g}) is not Hermitian")
    if len(gens) != code.n - code.k:
        v.append(f"expected {code.n - code.k} generators, got {len(gens)}")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not gens[i].commutes(gens[j]):
                v.append(f"generators {i + 1} ({gens[i]}) and {j + 1} ({gens[j]}) anticommute")

    basis: list = []
    for i, g in enumerate(gens):
        vec, prod = pauli_reduce_tracked(sympl_vec(g, code.n), g, basis)
        if vec == 0:
            # prod is g times a product of earlier generators, equal to a phase
            if prod.phase == 0:
                v.append(f"generator {i + 1} ({g}) is dependent on earlier generators")
            else:
                v.append(f"-I is in the group generated (via generator {i + 1})")
        else:
            basis.append((vec, prod))

    if len(code.logical_x) != code.k or len(code.logical_z) != code.k:
        v.append(f"expected {code.k} logical X and Z operators")
    for label, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for j, p in enumerate(ops):
            if p.multiply(p) != PauliOperator.identity(code.n):
                v.append(f"logical {label}[{j + 1}] ({p}) is not Hermitian")
            for i, g in enumerate(gens):
                if not p.commutes(g):
                    v.append(f"logical {label}[{j + 1}] anticommutes with generator {i + 1}")
            vec, _ = pauli_reduce_tracked(sympl_vec(p, code.n), PauliOperator.identity(code.n), basis)
            if vec == 0:
                v.append(f"logical {label}[{j + 1}] lies in the stabilizer group")
    for j, xj in enumerate(code.logical_x):
        for l, zl in enumerate(code.logical_z):
            if (j == l) == xj.commutes(zl):
                want = "anticommute" if j == l else "commute"
                v.append(f"logical X[{j + 1}] and Z[{l + 1}] must {want}")
    for label, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for j in range(len(ops)):
            for l in range(j + 1, len(ops)):
                if not ops[j].commutes(ops[l]):
                    v.append(f"logical {label}[{j + 1}] and {label}[{l + 1}] anticommute")
    return ValidationReport(code.name, tuple(v))


def format_code_text(code: StabilizerCode) -> str:
    """The code-definition file that parse_code_text reads back."""
    lines = [f"{code.n} {code.k}"]
    lines += [p.to_string() for p in code.generators]
    lines += [p.to_string() for p in code.logical_x]
    lines += [p.to_string() for p in code.logical_z]
    return "\n".join(lines) + "\n"


def projection_diagonal_action(code_space, phase_per_one):
    """(leakage, logical phases or None) of a transversal diagonal gate by
    the state-level route: combine (|0> + |1>)/sqrt2, apply_diagonal,
    project_onto the basis, the residual's norm, then <i|gate|i> by inner.
    compat._diagonal_action decides the same verdicts exactly, on counts of
    omega-exponents, with numbers within 1e-12 of these."""
    basis = code_space.basis
    ref = combine(basis, [1 / math.sqrt(2)] * 2)
    out = apply_diagonal(ref, phase_per_one)
    proj, _ = project_onto(list(basis), out)
    leakage = 1.0 if proj is None else combine([out, proj], [1.0, -1.0]).norm()
    if leakage >= TOL:
        return leakage, None
    phases = tuple(inner(b, apply_diagonal(b, phase_per_one)) for b in basis)
    if any(abs(abs(ph) - 1) > TOL for ph in phases):
        return leakage, None
    return leakage, phases


def random_pauli(rng: np.random.Generator, n: int) -> PauliOperator:
    xs, zs = rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()
    x = sum(1 << q for q, b in enumerate(xs) if b)
    z = sum(1 << q for q, b in enumerate(zs) if b)
    return PauliOperator(n, x, z, int(rng.integers(0, 4)))


@lru_cache(maxsize=None)
def cached_code(name: str):
    return builtin_code(name)


@lru_cache(maxsize=None)
def cached_code_space(name: str):
    return logical_codewords(cached_code(name))


def scan_zero_codeword(code) -> SparseState:
    """|0_L> by an exhaustive seed scan, the reference for logical_codewords:
    the first basis seed 0..2^n whose projection onto the +1 eigenspaces of
    the generators and logical Z survives, normalized."""
    zero = None
    for seed in range(1 << code.n):
        st = basis_state(code.n, seed)
        for g in list(code.generators) + [code.logical_z[0]]:
            st = combine([st, image_apply_pauli(st, g)], [0.5, 0.5])
            if st.norm() < 1e-9:
                st = None
                break
        if st is not None:
            zero = st.normalized()
            break
    if zero is None:
        raise ValueError(f"no codeword seed found for {code.name}")
    return zero


def readout_codeword_verdict(code) -> str | None:
    """The check that logical_codewords once ran on its two states, as
    eigen_bit_terms readouts of the states its construction builds: the
    message of the ValueError it raises, or None when both codewords pass.
    Construction errors propagate.  Checks, in order: every generator fixes
    |0>, then |1>; logical Z fixes |0> and negates |1>; <0|1> = 0."""
    zero = _zero_codeword(code)
    one = image_apply_pauli(zero, code.logical_x[0])
    zero_terms, one_terms = dict(zero.items()), dict(one.items())
    for terms in (zero_terms, one_terms):
        for g in code.generators:
            if eigen_bit_terms(g, terms) != 0:
                return f"{code.name}: codeword is not fixed by {g}"
    if eigen_bit_terms(code.logical_z[0], zero_terms) != 0:
        return f"{code.name}: logical Z does not fix |0>"
    if eigen_bit_terms(code.logical_z[0], one_terms) != 1:
        return f"{code.name}: logical Z does not negate |1>"
    if abs(inner(zero, one)) > TOL:
        return f"{code.name}: logical basis states are not orthogonal"
    return None


# ---------------------------------------------------------------------------
# the signed-weight syndrome readout and the storage runner built on it: the
# reference that run_storage_protocol must equal bit for bit


def signed_weight_eigenvalues(state: SparseState, paulis) -> tuple[tuple, tuple]:
    """(<psi|P|psi>, eigen) for each P: eigen holds when every amplitude of
    P|psi> matches mu psi within TOL, mu = <psi|P|psi> / <psi|psi>.  A Z-only
    P reads the weights signed by parity; the zero state is no eigenstate."""
    for p in paulis:
        if p.n != state.n:
            raise ValueError(f"dimension mismatch: operator on {p.n}, state on {state.n}")
    weights = [a.real * a.real + a.imag * a.imag for a in state.amps]
    norm2 = math.fsum(weights)
    if not paulis or norm2 == 0:
        return (0j,) * len(paulis), (False,) * len(paulis)
    lookup = dict(state.items())
    values, eigen = [], []
    for p in paulis:
        ph = p.phase_value()
        if p.x:
            target = [lookup.get(k ^ p.x, 0j) for k in state.keys]
            image = _pauli_image(state, p)
            lam = 0j
            for t, y in zip(target, image):
                lam += t.conjugate() * y
            mu = lam / norm2
            eigen.append(all(abs(y - mu * t) <= TOL for t, y in zip(target, image)))
        else:
            signed = [-w if (k & p.z).bit_count() & 1 else w for k, w in zip(state.keys, weights)]
            lam = ph * complex(math.fsum(signed))
            mu = lam / norm2
            eigen.append(max(max(signed), 0.0) * abs(ph - mu) ** 2 <= TOL**2
                         and max(-min(signed), 0.0) * abs(ph + mu) ** 2 <= TOL**2)
        values.append(lam)
    return tuple(values), tuple(eigen)


def keyed_storage(name: str, amplitudes, key, injected_error=None) -> StorageReport:
    """The masked storage round trip with a per-qubit key register: mask
    with the uniform KeyRegister's Pauli, corrupt, read the syndrome with
    signed_weight_eigenvalues, decode, and unmask with the adjoint of
    pair_mask of its pairs times the correction, one image_apply_pauli pass
    per Pauli.  Takes a mask-compatible builtin code."""
    code = builtin_code(name)
    c0, c1 = unit_amplitudes(amplitudes)
    psi = combine(list(logical_codewords(code).basis), [c0, c1]).normalized()
    keys = KeyRegister.uniform(code.n, key[0], key[1])
    state = image_apply_pauli(psi, keys.mask)
    if injected_error is not None:
        state = image_apply_pauli(state, injected_error)
    syn = []
    vals, eigen = signed_weight_eigenvalues(state, code.generators)
    for g, val, ok in zip(code.generators, vals, eigen):
        if not ok or abs(abs(val.real) - 1) > TOL:
            raise ProtocolError(f"state is not an eigenstate of {g}")
        syn.append(0 if val.real > 0 else 1)
    corr = decode_single_error(code, tuple(syn))
    state = image_apply_pauli(state, pair_mask(keys.as_lists()).adjoint().multiply(corr))
    return StorageReport(
        code.name, keys.pair(1), injected_error, tuple(syn), corr, fidelity_up_to_phase(state, psi),
        final_state=state,
    )


# ---------------------------------------------------------------------------
# logical Bell measurement by dict loops on the 27-qubit register: the
# reference for protocol.run_logical_t_protocol


def _split_key(key: int, low_bits: int) -> tuple[int, int]:
    return key & ((1 << low_bits) - 1), key >> low_bits


def dict_logical_bell_branches(chi, products, bell, a):
    """The rotated logical Bell measurement of run_logical_t_protocol on the
    masked block chi (low n qubits), the logical product states of two
    blocks and the logical Bell pair bell (on w_p, c_p): per outcome, the
    basis state is built with combine and contracted term by term through
    dicts.  Returns (branches, probs) in BELL_OUTCOMES order; an empty
    branch is None."""
    n = chi.n
    sq2 = 1 / np.sqrt(2)
    xm = np.array([[0, 1], [1, 0]], dtype=complex)
    zm = np.array([[1, 0], [0, -1]], dtype=complex)
    sdag = np.array([[1, 0], [0, (-1j) ** a]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    m0 = i2 * sq2
    chi_d = dict(chi.items())
    bell_d = dict(bell.items())

    branches, probs = [], []
    for r_a, r_b in BELL_OUTCOMES:
        coeff = sdag @ (zm if r_b else i2) @ (xm if r_a else i2) @ m0
        basis_state = combine(products, [coeff[0, 0], coeff[0, 1], coeff[1, 0], coeff[1, 1]])
        beta: dict[int, complex] = {}
        for k, amp in basis_state.items():
            x_part, z_part = _split_key(k, n)
            if x_part in chi_d:
                beta[z_part] = beta.get(z_part, 0j) + np.conj(amp) * chi_d[x_part]
        out: dict[int, complex] = {}
        for k, amp in bell_d.items():
            y_part, z_part = _split_key(k, n)
            bz = beta.get(z_part)
            if bz is not None:
                out[y_part] = out.get(y_part, 0j) + bz * amp
        st = from_terms(n, out) if out else None
        branches.append(st)
        probs.append(0.0 if st is None else st.norm() ** 2)
    return branches, probs


# ---------------------------------------------------------------------------
# run_circuit gate by gate with exact exponents: its bit-for-bit reference


def _bell_basis_rows(rotation) -> tuple:
    """Row i: the conjugated basis vector (U^dag Z^b X^a (x) I)|Phi> of
    outcome (a, b) = _OUTCOMES[i], at index b1 + 2*b2 (b1 the bit of the
    first measured qubit), for the 2x2 matrix `rotation` of U.  Entry
    b1 + 2*b2 is M[b1, b2]/sqrt2, and column j of M = U^dag Z^b X^a is
    (-1)^(b*(j^a)) times column j^a of U^dag, which is exact; adding 0j
    clears negative zeros."""
    rows = []
    for a, b in _OUTCOMES:
        # M[r][j] = U^dag[r][j ^ a] * (-1)^(b*(j ^ a)), U^dag[r][c] = conj(U[c][r])
        m = [[rotation[j ^ a][r].conjugate() * _SIGNS[b & (j ^ a)] for j in (0, 1)] for r in (0, 1)]
        rows.append(tuple((m[b1][b2] * _SQ2 + 0j).conjugate() for b2 in (0, 1) for b1 in (0, 1)))
    return tuple(rows)


# the power of omega each diagonal gate puts on |1>
_OMEGA_POWER = {"Z": 4, "S": 2, "Sd": 6, "T": 1, "Td": 7}


def _row_exponent(entry: complex) -> int:
    """m with entry = omega^m / sqrt2, for an entry of a Bell basis row."""
    m = round(cmath.phase(entry * math.sqrt(2)) / (math.pi / 4)) % 8
    if abs(entry * math.sqrt(2) - cmath.exp(1j * math.pi / 4 * m)) > 1e-15:
        raise ValueError(f"{entry} is not omega^m / sqrt2")
    return m


def gadget_exponents(rotation: SingleQubitGate) -> tuple:
    """(flip, m0, m1) per outcome, read from _bell_basis_rows: data bit d
    meets the one nonzero entry of its row among the columns d + 2e, which
    moves it to pair bit e = d ^ flip with the factor omega^(m_d)/sqrt2."""
    table = []
    for row in _bell_basis_rows(rotation.matrix):
        moves = []
        for d in (0, 1):
            (e,) = [e for e in (0, 1) if row[d + 2 * e] != 0]
            moves.append((d ^ e, _row_exponent(row[d + 2 * e])))
        (f0, m0), (f1, m1) = moves
        if f0 != f1:
            raise ValueError("the two data bits move differently")
        table.append((f0, m0, m1))
    return tuple(table)


class _ExponentChain:
    """Each stored term of a run of Z, S, Sd and T gadgets keeps its current
    key and an integer omega-exponent, updated gate by gate; an X, H, CNOT
    or the final correction first multiplies each amplitude by
    _unit_factors(norm2)[exponent & 7], as apply_monomial does, pruning at
    PRUNE_TOL after a gadget, and sorts by key."""

    def __init__(self, state):
        self.state = state
        self._start()

    def _start(self):
        self.keys = list(self.state.keys)
        self.exps = [0] * self.state.num_terms
        self.sums = [0] * self.state.n  # the gates' exponents on each qubit
        self.norm2 = None

    @property
    def num_terms(self):
        return self.state.num_terms

    def _flush(self):
        if self.norm2 is None and not any(c & 7 for c in self.sums):
            return
        units = _unit_factors(self.norm2)
        terms = [(k, a * units[e & 7]) for k, a, e in zip(self.keys, self.state.amps, self.exps)]
        if self.norm2 is not None:
            terms = [t for t in terms if abs(t[1]) > PRUNE_TOL]
        terms.sort(key=lambda t: t[0])
        self.state = _state(self.state.n, tuple(k for k, _ in terms), tuple(a for _, a in terms))
        self._start()

    def _phase(self, q, c):
        self.sums[q - 1] += c
        self.exps = [e + c * ((k >> (q - 1)) & 1) for k, e in zip(self.keys, self.exps)]

    def gate(self, g):
        if g.kind in ("Z", "S", "Sd"):
            self._phase(g.qubits[0], _OMEGA_POWER[g.kind])
        else:
            self._flush()
            self.state = apply_plain_circuit(self.state, (g,))
            self._start()  # the gate moved the keys

    def gadget(self, kind, w, rotation, rng, pick):
        self.state._check_qubit(w)
        if self.norm2 is None:
            self.norm2 = _weight(self.state.amps)
            if self.norm2 < PRUNE_TOL:
                raise ValueError("measurement on a zero-weight state")
        idx = int(4 * rng.random()) if pick is None else _OUTCOMES.index(tuple(pick))
        flip, m0, m1 = gadget_exponents(rotation)[idx]
        self._phase(w, _OMEGA_POWER[kind])
        bit = 1 << (w - 1)
        self.exps = [e + (m1 if k & bit else m0) for k, e in zip(self.keys, self.exps)]
        self.keys = [k ^ (flip << (w - 1)) for k in self.keys]
        return _OUTCOMES[idx]

    def finish(self, correction):
        self._flush()
        return image_apply_pauli(self.state, correction)

def per_gate_exponent_run(enc_state, circuit, keys, rng, forced_outcomes=None) -> CircuitRun:
    """run_circuit with exact exponents: gate by gate, every stored term
    keeps its current key and its omega-exponent mod 8 (the gadgets' flips
    and exponents read from _bell_basis_rows, not from the library's
    closed form), and each run of Z, S, Sd and T gadgets ends in the one
    multiply per term that apply_monomial makes.  Each gadget draws its
    outcome from four equal weights, as int(4 * rng.random()): one
    generator word per gadget.  The keys are replayed by pair_key_rule, and
    the transcript (always built: what run_circuit appends to a sink),
    final keys, outcomes, peaks and forced-outcome count check are
    run_circuit's."""
    n = keys.n
    chain = _ExponentChain(enc_state)
    cur = [tuple(pair) for pair in keys.as_lists()]
    forced = None if forced_outcomes is None else list(forced_outcomes)
    if forced is not None:
        t = sum(g.kind in ("T", "Td") for g in circuit)
        if t != len(forced):
            raise ValueError(f"circuit needs {t} forced outcome pairs, got {len(forced)}")
    server, client, outcomes = [], [], []
    max_qubits, max_terms = enc_state.n, chain.num_terms
    for g in circuit:
        kind, qubits = g.kind, g.qubits
        if g.is_clifford:
            chain.gate(g)
            server.append({"kind": "gate", "gate": kind, "qubits": list(qubits)})
            if kind not in ("X", "Z"):
                old = [cur[q - 1] for q in qubits]
                for q, was, new in zip(qubits, old, pair_key_rule(kind, old)):
                    client.append({"kind": "key_update", "qubit": q, "old": list(was), "new": list(new)})
                    cur[q - 1] = new
            continue
        (w,) = qubits
        i = len(outcomes) + 1
        s_pos, c_pos = n + 2 * i - 1, n + 2 * i
        server += [
            {"kind": "gate", "gate": kind, "qubits": [w], "pair_index": i, "pair_positions": [s_pos, c_pos]},
            {"kind": "bell_consumed", "pair_index": i, "positions": [s_pos, c_pos]},
            {"kind": "swap", "positions": [w, s_pos]},
        ]
        max_qubits = max(max_qubits, n + 2)
        max_terms = max(max_terms, 2 * chain.num_terms)
        pick = None if forced is None else forced[i - 1]
        a, b = cur[w - 1]
        base = "S" if kind == "T" else "Sd"  # the pair is measured in base^a
        outcome = chain.gadget(kind, w, gate(base) if a else IDENTITY, rng, pick)
        r_a, r_b = outcome
        cur[w - 1] = new = (a ^ r_a, b ^ (a ^ r_b))
        outcomes.append(outcome)
        client += [
            {"kind": "measurement", "pair_index": i, "rotation": f"{base}^{a}", "outcome": list(outcome),
             "forced": pick is not None},
            {"kind": "key_update", "qubit": w, "old": [a, b], "new": list(new)},
        ]
    correction = pair_mask(cur).adjoint()
    client += [
        {"kind": "final_keys", "keys": [list(pair) for pair in cur]},
        {"kind": "final_correction", "pauli": correction.to_string()},
    ]
    return CircuitRun(chain.finish(correction), KeyRegister.of(cur), Transcript(server + client), outcomes,
                      max_qubits, max_terms)


# ---------------------------------------------------------------------------
# the routes that the code-space plan, the fused trailing Pauli of
# apply_monomial, the zip sort of _resorted, the paired general branch of
# apply_single and the one sweep of apply_paulis replaced; the new paths
# must equal them byte for byte


def _pauli_image(state: SparseState, p: PauliOperator) -> list:
    """The amplitudes i^phase (-1)^popcount(k & z) a_k that P = i^phase X(x)
    Z(z) puts at the keys k ^ x, in key order."""
    z, ph = p.z, p.phase_value()
    return [a * _SIGNS[(k & z).bit_count() & 1] * ph for k, a in state.items()]


def image_apply_pauli(state: SparseState, p: PauliOperator) -> SparseState:
    """apply_pauli as one pass and one sort for its one Pauli."""
    if p.n != state.n:
        raise ValueError(f"dimension mismatch: operator on {p.n}, state on {state.n}")
    amps = _pauli_image(state, p)
    if p.x:
        return _resorted(state.n, [k ^ p.x for k in state.keys], amps)
    return _state(state.n, state.keys, tuple(amps))


def combine_encode(code, amplitudes):
    """The code space and _encode on it by combine: (space, unit amplitudes,
    c0|0_L> + c1|1_L> normalized)."""
    space = logical_codewords(code)
    amps = unit_amplitudes(amplitudes)
    return space, amps, combine(list(space.basis), amps).normalized()


def combine_coords(space, state) -> list:
    return [inner(space.zero, state), inner(space.one, state)]


def combine_overlap(space, state, c0, c1) -> complex:
    return inner(state, combine(list(space.basis), [c0, c1]))


def index_sort_resorted(n: int, keys, amps) -> SparseState:
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return _state(n, tuple([keys[i] for i in order]), tuple([amps[i] for i in order]))


def two_pass_monomial(state: SparseState, layer, then: PauliOperator | None = None) -> SparseState:
    """The layer's monomial pass, then image_apply_pauli(then) as a second pass."""
    cs = layer.coeffs
    ones = sum(1 << q for q, c in enumerate(cs) if c & 1)
    twos = sum(1 << q for q, c in enumerate(cs) if c & 2)
    fours = sum(1 << q for q, c in enumerate(cs) if c & 4)
    c0, flip, units = layer.c0, layer.flip, _unit_factors(layer.norm2)
    terms = [(k ^ flip, a * units[(c0 + (k & ones).bit_count() + 2 * (k & twos).bit_count()
                                     + 4 * (k & fours).bit_count()) & 7])
             for k, a in zip(state.keys, state.amps)]
    if layer.norm2 is not None:
        terms = [t for t in terms if abs(t[1]) > PRUNE_TOL]
    if flip:
        terms.sort()
    out = _state(state.n, tuple([k for k, _ in terms]), tuple([a for _, a in terms]))
    return out if then is None else image_apply_pauli(out, then)


def coalescing_apply_single(state: SparseState, g: SingleQubitGate, qubit: int) -> SparseState:
    """apply_single with the general branch as 2n terms summed by _coalesce."""
    (m00, m01), (m10, m11) = g.matrix
    bit = 1 << (qubit - 1)
    keys, amps = state.keys, state.amps
    if m01 == 0 and m10 == 0:
        return _state(state.n, keys, tuple([a * m11 if k & bit else a * m00 for k, a in zip(keys, amps)]))
    if m00 == 0 and m11 == 0:
        return index_sort_resorted(state.n, [k ^ bit for k in keys],
                                   [a * m01 if k & bit else a * m10 for k, a in zip(keys, amps)])
    keys2 = [k & ~bit for k in keys] + [k | bit for k in keys]
    amps2 = ([a * m01 if k & bit else a * m00 for k, a in zip(keys, amps)]
             + [a * m11 if k & bit else a * m10 for k, a in zip(keys, amps)])
    return _state(state.n, *_states._coalesce(keys2, amps2))
