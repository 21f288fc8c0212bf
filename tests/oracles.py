"""Dense reference implementations used only by the tests.

The dense vector index equals the packed sparse key (qubit q at bit q-1),
so a sparse state and its dense counterpart agree entry-for-entry.

Also here: routes that no runner or CLI verb takes, kept because tests
compare the library against them (codeword enumeration, the CSS coset
state, the state-level phase layer and projector, the even-support parity
check, the code-file writer).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from hqec.codes import StabilizerCode, builtin_code, logical_codewords
from hqec.gf2 import ENUM_DIM_GUARD, ClassicalCode, GuardExceeded, parse_row
from hqec.pauli import PauliOperator
from hqec.protocol import (
    CircuitGate,
    CircuitRun,
    KeyRegister,
    ProtocolError,
    Transcript,
    _key_rule,
    apply_plain_circuit,
    clifford_key_update,
    mask_pauli,
)
from hqec.states import (
    _BELL_PAIR,
    _OUTCOMES,
    IDENTITY,
    PRUNE_TOL,
    TOL,
    SingleQubitGate,
    SparseState,
    _bell_basis_rows,
    _state,
    apply_pauli,
    apply_single,
    combine,
    gate,
    inner,
    swap_qubits,
    teleport,
    tensor,
)

I2 = np.eye(2, dtype=complex)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
ZM = np.array([[1, 0], [0, -1]], dtype=complex)
HM = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SM = np.array([[1, 0], [0, 1j]], dtype=complex)
TM = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
BELL_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


class PickRng:
    """Stands in for the generator: returns a fixed outcome index and keeps
    the weights it was asked to sample from."""

    def __init__(self, pick):
        self.pick = pick
        self.weights = None

    def choice_weighted(self, weights):
        self.weights = list(weights)
        return self.pick


def basis_state(n: int, bits: int | str) -> SparseState:
    """|bits> on n qubits; bits is a packed key or a bitstring like "110"."""
    if isinstance(bits, str):
        if len(bits) != n:
            raise ValueError(f"bitstring length {len(bits)} != qubit count {n}")
        bits = parse_row(bits)
    return SparseState(n, np.array([bits], np.uint64), np.array([1.0], np.complex128))


def vacuum() -> SparseState:
    """The empty register (n=0): a single unit amplitude."""
    return SparseState(0, np.array([0], np.uint64), np.array([1.0], np.complex128))


def bell_pair() -> SparseState:
    """(|00> + |11>)/sqrt(2), the pair states.teleport contracts; states
    are immutable, so one instance is shared."""
    return _BELL_PAIR


def state_bytes(state: SparseState) -> tuple[int, bytes, bytes]:
    """(n, key bytes, amplitude bytes): equal for two states exactly when
    they agree bit for bit, signed zeros included."""
    return state.n, np.array(state.keys, np.uint64).tobytes(), np.array(state.amps, complex).tobytes()


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


def pauli_expectation_terms(p: PauliOperator, terms: dict, tol: float = 1e-10):
    """(<psi|P|psi>, eigen): eigen holds when every amplitude of P|psi>
    matches mu * psi within tol, mu = <psi|P|psi> / <psi|psi>; the zero
    state is no eigenstate."""
    image = pauli_image_terms(p, terms)
    value = complex(sum(np.conj(terms.get(k, 0)) * a for k, a in image.items()))
    norm2 = sum(abs(a) ** 2 for a in terms.values())
    if norm2 == 0:
        return value, False
    mu = value / norm2
    keys = set(terms) | set(image)
    return value, all(abs(image.get(k, 0) - mu * terms.get(k, 0)) <= tol for k in keys)


def intersect_inner(a: SparseState, b: SparseState) -> complex:
    """<a|b> by np.intersect1d over the keys, summed one term at a time in
    key order, as states.inner sums."""
    _, ia, ib = np.intersect1d(np.array(a.keys, np.uint64), np.array(b.keys, np.uint64),
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
    return SparseState.from_terms(code.length, {x ^ y: amp for y in words})


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
    project_onto the basis, the residual's norm, then <i|gate|i> by inner."""
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


def scan_zero_codeword(code) -> SparseState:
    """|0_L> by an exhaustive seed scan, the reference for logical_codewords:
    the first basis seed 0..2^n whose projection onto the +1 eigenspaces of
    the generators and logical Z survives, normalized."""
    zero = None
    for seed in range(1 << code.n):
        st = basis_state(code.n, seed)
        for g in list(code.generators) + [code.logical_z[0]]:
            st = combine([st, apply_pauli(st, g)], [0.5, 0.5])
            if st.norm() < 1e-9:
                st = None
                break
        if st is not None:
            zero = st.normalized()
            break
    if zero is None:
        raise ValueError(f"no codeword seed found for {code.name}")
    return zero


# ---------------------------------------------------------------------------
# rotated Bell measurement on the joint register: the reference for
# states.teleport, which contracts tensor -> swap -> this measurement


def _drop_bit(keys: np.ndarray, pos: int) -> np.ndarray:
    low = keys & np.uint64((1 << pos) - 1)
    high = (keys >> np.uint64(pos + 1)) << np.uint64(pos)
    return low | high


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
    rows = _bell_basis_rows(rotation.matrix)

    keys = np.array(state.keys, np.uint64)
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
    # (4, groups): branch i's amplitude of each remaining basis key; the
    # products are Python complex ones, rounded as states.teleport rounds
    amps = [state.amps[i] for i in order.tolist()]
    products = np.array([[a * row[j] for a, j in zip(amps, local.tolist())] for row in rows])
    branches = np.add.reduceat(products, starts, axis=1)
    mags = np.abs(branches)
    kept = mags > PRUNE_TOL
    probs = [math.fsum(w[k].tolist()) for w, k in zip(branches.real**2 + branches.imag**2, kept)]
    total = math.fsum(probs)
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
    collapsed = SparseState(state.n - 2, rest[starts][keep], branches[idx][keep])
    return outcome, collapsed.scaled(1 / math.sqrt(p))


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
        st = SparseState.from_terms(n, out) if out else None
        branches.append(st)
        probs.append(0.0 if st is None else st.norm() ** 2)
    return branches, probs


# ---------------------------------------------------------------------------
# deferred T gadget: the reference for protocol.run_circuit


class DeferredTranscript(Transcript):
    def record(self, kind: str, **fields) -> dict:
        ev = {"kind": kind, **fields}
        self.events.append(ev)
        return ev


_ROTATIONS = {
    ("T", 0): (IDENTITY, "S^0"),
    ("T", 1): (gate("S"), "S^1"),
    ("Td", 0): (IDENTITY, "Sd^0"),
    ("Td", 1): (gate("Sd"), "Sd^1"),
}


def _measure_t_pair(state, pair, kind: str, key, rng, forced=None):
    """Measure a T (Td) gadget's Bell pair in the rotated basis that the
    qubit's current key (a, b) selects, and fold the outcome into the key:
    a -> a ^ r_a and b -> b ^ (a ^ r_b), with the pre-update a in both.
    Returns (outcome, new key, rotation label, collapsed state)."""
    a, b = key
    rotation, label = _ROTATIONS[kind, a]
    outcome, state = rotated_bell_measure(state, pair, rotation, rng, forced)
    r_a, r_b = outcome
    return outcome, (a ^ r_a, b ^ (a ^ r_b)), label, state


def evaluate_circuit(enc_state, circuit, keys, bell_pool, rng=None):
    """Server pass: apply Cliffords directly; for each T/Td apply the gate,
    tensor in a fresh Bell pair, and swap the data qubit with the pair's s
    half.  Returns (state, transcript).  Key values never enter this pass;
    they are replayed by decrypt.  Every pair stays in the register, so it
    grows by two qubits and doubles its terms per T gate."""
    if len(keys) != enc_state.n:
        raise ValueError("key register length does not match the data register")
    state = enc_state
    transcript = DeferredTranscript()
    pool = list(bell_pool)
    for pair in pool:
        if pair.n != 2:
            raise ValueError("bell pool entries must be two-qubit states")
    next_pair = 0
    for g in circuit:
        if g.is_clifford:
            transcript.record("gate", gate=g.kind, qubits=list(g.qubits))
            state = apply_plain_circuit(state, (g,))
        else:
            if next_pair >= len(pool):
                raise ProtocolError("bell pool exhausted")
            w = g.qubits[0]
            state = apply_single(state, gate(g.kind), w)
            s_pos, c_pos = state.n + 1, state.n + 2
            state = tensor(state, pool[next_pair])
            next_pair += 1
            transcript.record(
                "gate", gate=g.kind, qubits=[w], pair_index=next_pair, pair_positions=[s_pos, c_pos]
            )
            transcript.record("bell_consumed", pair_index=next_pair, positions=[s_pos, c_pos])
            state = swap_qubits(state, w, s_pos)
            transcript.record("swap", positions=[w, s_pos])
    return state, transcript


def decrypt(client_state, transcript, keys, rng, forced_outcomes=None):
    """Client pass: replay the gate sequence updating keys, measure each T
    pair in its rotated Bell basis (factoring the pair out), and finish with
    the multi-qubit Pauli correction.  Appends its events to the transcript
    and returns the decrypted state."""
    n_data = len(keys)
    gate_events = [ev for ev in transcript.events if ev["kind"] == "gate"]
    n_pairs = sum(1 for ev in gate_events if ev["gate"] in ("T", "Td"))
    if client_state.n != n_data + 2 * n_pairs:
        raise ProtocolError(
            f"register has {client_state.n} qubits, transcript implies {n_data + 2 * n_pairs}"
        )
    forced = list(forced_outcomes) if forced_outcomes is not None else None
    forced_idx = 0

    state = client_state
    cur = keys
    alive = list(range(1, client_state.n + 1))
    for ev in gate_events:
        kind = ev["gate"]
        if kind in ("T", "Td"):
            j = ev["qubits"][0]
            s_pos, c_pos = ev["pair_positions"]
            p1, p2 = alive.index(s_pos) + 1, alive.index(c_pos) + 1
            pick = None
            if forced is not None:
                if forced_idx >= len(forced):
                    raise ProtocolError("not enough forced outcomes")
                pick = forced[forced_idx]
                forced_idx += 1
            old = cur.pair(j)
            outcome, new, rot_label, state = _measure_t_pair(
                state, (p1, p2), kind, old, rng, pick
            )
            alive.remove(s_pos)
            alive.remove(c_pos)
            transcript.record(
                "measurement",
                pair_index=ev["pair_index"],
                rotation=rot_label,
                outcome=list(outcome),
                forced=pick is not None,
            )
            transcript.record("key_update", qubit=j, old=list(old), new=list(new))
            cur = KeyRegister(cur.pairs[: j - 1] + (new,) + cur.pairs[j:])
        else:
            g = CircuitGate(kind, tuple(ev["qubits"]))
            updated = clifford_key_update(g, cur)
            for q in g.qubits:
                if updated.pair(q) != cur.pair(q) or g.kind in ("H", "S", "Sd", "CNOT"):
                    transcript.record(
                        "key_update", qubit=q, old=list(cur.pair(q)), new=list(updated.pair(q))
                    )
            cur = updated

    transcript.record("final_keys", keys=cur.as_lists())
    correction = mask_pauli(cur).adjoint()
    state = apply_pauli(state, correction)
    transcript.record("final_correction", pauli=correction.to_string())
    return state


# ---------------------------------------------------------------------------
# per-gate T gadget: the bit-for-bit reference for protocol.run_circuit


def per_gate_run_circuit(enc_state, circuit, keys, rng, forced_outcomes=None) -> CircuitRun:
    """run_circuit with every gate applied on its own by apply_plain_circuit
    (one apply_single per Z, S, Sd, T and Td) and each T/Td gate followed by
    a plain teleport of its qubit.  Same transcript, outcomes, peaks and
    forced-outcome count check."""
    n = len(keys)
    cur = list(keys.pairs)
    forced = None if forced_outcomes is None else list(forced_outcomes)
    if forced is not None:
        t = sum(g.kind in ("T", "Td") for g in circuit)
        if t != len(forced):
            raise ValueError(f"circuit needs {t} forced outcome pairs, got {len(forced)}")
    state = enc_state
    server, client, outcomes = [], [], []
    max_qubits, max_terms = state.n, state.num_terms
    for g in circuit:
        kind, qubits = g.kind, g.qubits
        state = apply_plain_circuit(state, (g,))
        if g.is_clifford:
            server.append({"kind": "gate", "gate": kind, "qubits": list(qubits)})
            if kind not in ("X", "Z"):
                old = [cur[q - 1] for q in qubits]
                for q, was, new in zip(qubits, old, _key_rule(kind, old)):
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
        max_terms = max(max_terms, 2 * state.num_terms)
        pick = None if forced is None else forced[i - 1]
        a, b = cur[w - 1]
        rotation, label = _ROTATIONS[kind, a]
        outcome, state = teleport(state, w, rotation, rng, pick)
        r_a, r_b = outcome
        cur[w - 1] = new = (a ^ r_a, b ^ (a ^ r_b))
        outcomes.append(outcome)
        client += [
            {"kind": "measurement", "pair_index": i, "rotation": label, "outcome": list(outcome),
             "forced": pick is not None},
            {"kind": "key_update", "qubit": w, "old": [a, b], "new": list(new)},
        ]
    final = KeyRegister(tuple(cur))
    correction = mask_pauli(final).adjoint()
    client += [
        {"kind": "final_keys", "keys": final.as_lists()},
        {"kind": "final_correction", "pauli": correction.to_string()},
    ]
    state = apply_pauli(state, correction)
    return CircuitRun(state, Transcript(server + client), outcomes, max_qubits, max_terms)
