"""Encrypted evaluation protocols: key registers, Clifford key updates,
teleportation-based T handling, and the end-to-end runners.

Conventions shared by all runners:

* Encryption applies X^a Z^b per qubit; the key register holds the (a, b)
  pairs.  Clifford gates update keys through exact 2x2/4x4 identities.
* A T (Td) gate on a masked qubit leaves an S-type byproduct (S-dagger to
  the a-th power for T, S to the a-th power for Td) plus the Pauli mask
  with b replaced by a xor b.  The byproduct is removed by measuring the
  gate's Bell pair in the matching rotated Bell basis.
* The client replay (decrypt) walks the recorded gate sequence in order,
  so every rotation exponent and key update uses the key values current
  at that point; measurement outcomes fold in as a -> a^r_a and
  b -> b ^ (a ^ r_b) with the pre-update a.  The other reading of that
  update breaks the round trip (see the negative test in the suite).
* The server pass (evaluate_circuit) appends one Bell pair per T/Td gate
  and keeps every pair until the client replay (decrypt) measures them, so
  the register grows by two qubits per T gate until decrypt.  Each measured
  pair is factored out of the register as soon as decrypt measures it.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .codes import (
    StabilizerCode,
    builtin_code,
    decode_single_error,
    logical_codewords,
)
from .compat import clifford_correction_for_t, stabilizer_mask_check
from .pauli import PauliOperator, parse_pauli
from .states import (
    IDENTITY,
    SparseState,
    apply_cnot,
    apply_pauli,
    apply_single,
    bell_pair,
    combine,
    fidelity_up_to_phase,
    gate,
    inner,
    pauli_eigenvalues,
    rotated_bell_measure,
    swap_qubits,
    tensor,
)

OMEGA = np.exp(1j * np.pi / 4)
ROUND_TRIP_TOL = 1e-10


class ProtocolError(RuntimeError):
    pass


class IncompatibleCodeError(ProtocolError):
    """The requested code does not support transversal Pauli masking."""


# ---------------------------------------------------------------------------
# keys, gates, transcripts


@dataclass(frozen=True)
class KeyRegister:
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, pairs) -> "KeyRegister":
        return cls(tuple((int(a) & 1, int(b) & 1) for a, b in pairs))

    @classmethod
    def uniform(cls, n: int, a: int, b: int) -> "KeyRegister":
        return cls.of([(a, b)] * n)

    @classmethod
    def random(cls, n: int, rng) -> "KeyRegister":
        return cls.of([(rng.next_u64() & 1, rng.next_u64() & 1) for _ in range(n)])

    def __len__(self) -> int:
        return len(self.pairs)

    def pair(self, qubit: int) -> tuple[int, int]:
        return self.pairs[qubit - 1]

    def with_pair(self, qubit: int, pair) -> "KeyRegister":
        pairs = list(self.pairs)
        pairs[qubit - 1] = (int(pair[0]) & 1, int(pair[1]) & 1)
        return KeyRegister(tuple(pairs))

    def as_lists(self) -> list[list[int]]:
        return [[a, b] for a, b in self.pairs]


CLIFFORD_KINDS = ("X", "Z", "H", "S", "CNOT")
GATE_KINDS = CLIFFORD_KINDS + ("T", "Td")


@dataclass(frozen=True)
class CircuitGate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind == "CNOT" else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.kind} takes {want} qubit(s)")
        if self.kind == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT qubits must be distinct")

    @property
    def is_clifford(self) -> bool:
        return self.kind in CLIFFORD_KINDS


_TOKEN = re.compile(r"^(CX|Td|[XZHST])(\d+)(?:,(\d+))?$")


def parse_circuit(text: str) -> list[CircuitGate]:
    """Whitespace-separated tokens like 'H1 T1 Td2 S2 CX1,2'."""
    gates = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad circuit token {tok!r}")
        kind, q1, q2 = m.group(1), int(m.group(2)), m.group(3)
        if kind == "CX":
            if q2 is None:
                raise ValueError(f"CX needs two qubits in token {tok!r}")
            gates.append(CircuitGate("CNOT", (q1, int(q2))))
        else:
            if q2 is not None:
                raise ValueError(f"{kind} takes one qubit in token {tok!r}")
            gates.append(CircuitGate(kind, (q1,)))
    return gates


def format_circuit(circuit) -> str:
    toks = []
    for g in circuit:
        if g.kind == "CNOT":
            toks.append(f"CX{g.qubits[0]},{g.qubits[1]}")
        else:
            toks.append(f"{g.kind}{g.qubits[0]}")
    return " ".join(toks)


@dataclass
class Transcript:
    events: list[dict] = field(default_factory=list)

    def record(self, kind: str, **fields) -> dict:
        ev = {"kind": kind, **fields}
        self.events.append(ev)
        return ev

    @property
    def bell_pairs_consumed(self) -> int:
        return sum(1 for ev in self.events if ev["kind"] == "bell_consumed")

    def as_dict(self) -> dict:
        return {"events": self.events}


# ---------------------------------------------------------------------------
# key algebra


def mask_pauli(keys: KeyRegister) -> PauliOperator:
    """The full mask: X^a Z^b on each qubit."""
    return PauliOperator.from_bits([a for a, _ in keys.pairs], [b for _, b in keys.pairs])


def encrypt(state: SparseState, keys: KeyRegister) -> SparseState:
    if len(keys) != state.n:
        raise ValueError(f"key register has {len(keys)} pairs, state has {state.n} qubits")
    return apply_pauli(state, mask_pauli(keys))


def clifford_key_update(g: CircuitGate, keys: KeyRegister) -> KeyRegister:
    """Exact key-update rules; X and Z leave keys alone, H swaps, S folds a
    into b, CNOT mixes the two pairs."""
    if not g.is_clifford:
        raise ValueError(f"{g.kind} is not a Clifford gate")
    if g.kind in ("X", "Z"):
        return keys
    if g.kind == "H":
        a, b = keys.pair(g.qubits[0])
        return keys.with_pair(g.qubits[0], (b, a))
    if g.kind == "S":
        a, b = keys.pair(g.qubits[0])
        return keys.with_pair(g.qubits[0], (a, a ^ b))
    i, j = g.qubits
    ai, bi = keys.pair(i)
    aj, bj = keys.pair(j)
    return keys.with_pair(i, (ai, bi ^ bj)).with_pair(j, (ai ^ aj, bj))


@dataclass(frozen=True)
class TByproduct:
    byproduct_gate: str  # "Sd" for T, "S" for Td
    exponent: int
    new_key: tuple[int, int]


def t_byproduct(kind: str, key) -> TByproduct:
    """Commuting T (Td) past X^a Z^b: byproduct (Sd)^a (S^a) and key (a, a^b)."""
    if kind not in ("T", "Td"):
        raise ValueError(f"kind must be 'T' or 'Td', got {kind!r}")
    a, b = int(key[0]) & 1, int(key[1]) & 1
    return TByproduct("Sd" if kind == "T" else "S", a, (a, a ^ b))


# rotated-basis choice for (gadget kind, key bit a): S^a for T, Sd^a for Td
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


# ---------------------------------------------------------------------------
# evaluate / decrypt


def evaluate_circuit(enc_state, circuit, keys, bell_pool, rng=None):
    """Server pass: apply Cliffords directly; for each T/Td apply the gate,
    tensor in a fresh Bell pair, and swap the data qubit with the pair's s
    half.  Returns (state, transcript).  Key values never enter this pass;
    they are replayed by decrypt."""
    if len(keys) != enc_state.n:
        raise ValueError("key register length does not match the data register")
    state = enc_state
    transcript = Transcript()
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
            cur = cur.with_pair(j, new)
        else:
            g = CircuitGate(kind, tuple(ev["qubits"]))
            updated = clifford_key_update(g, cur)
            for q in g.qubits:
                if updated.pair(q) != cur.pair(q) or g.kind in ("H", "S", "CNOT"):
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
# runners


def random_state(n: int, rng) -> SparseState:
    """Deterministic pseudo-random n-qubit state (dense support)."""
    amps = [
        complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(1 << n)
    ]
    return SparseState(n, np.arange(1 << n, dtype=np.uint64), np.array(amps)).normalized()


DEMO_CIRCUIT = (
    CircuitGate("H", (1,)),
    CircuitGate("T", (1,)),
    CircuitGate("Td", (2,)),
    CircuitGate("S", (2,)),
)


def apply_plain_circuit(state: SparseState, circuit) -> SparseState:
    for g in circuit:
        if g.kind == "CNOT":
            state = apply_cnot(state, g.qubits[0], g.qubits[1])
        else:
            state = apply_single(state, gate(g.kind), g.qubits[0])
    return state


@dataclass(frozen=True)
class DemoReport:
    keys_initial: list
    keys_final: list
    fidelity: float
    transcript: Transcript

    def as_dict(self) -> dict:
        return {
            "circuit": format_circuit(DEMO_CIRCUIT),
            "keys_initial": self.keys_initial,
            "keys_final": self.keys_final,
            "fidelity": self.fidelity,
            "transcript": self.transcript.as_dict(),
        }


def run_demo_circuit(rng, keys=None, state=None, forced_outcomes=None):
    """Two-qubit demo: H,T on qubit 1 and Td,S on qubit 2, run through
    encrypt -> evaluate -> decrypt.  Returns (report, decrypted, expected)."""
    psi = state if state is not None else random_state(2, rng)
    kr = keys if keys is not None else KeyRegister.random(2, rng)
    enc = encrypt(psi, kr)
    pool = [bell_pair(), bell_pair()]
    out, transcript = evaluate_circuit(enc, DEMO_CIRCUIT, kr, pool, rng)
    dec = decrypt(out, transcript, kr, rng, forced_outcomes)
    expected = apply_plain_circuit(psi, DEMO_CIRCUIT)
    fid = fidelity_up_to_phase(dec, expected)
    final_keys = next(ev for ev in transcript.events if ev["kind"] == "final_keys")["keys"]
    report = DemoReport(kr.as_lists(), final_keys, fid, transcript)
    return report, dec, expected


@dataclass(frozen=True)
class StorageReport:
    code_name: str
    keys: tuple[int, int]
    injected_error: str | None
    syndrome: tuple[int, ...]
    correction: str
    fidelity: float
    final_state: SparseState | None = None

    @property
    def recovered(self) -> bool:
        return self.fidelity >= 1 - ROUND_TRIP_TOL

    def as_dict(self) -> dict:
        return {
            "code": self.code_name,
            "keys": list(self.keys),
            "injected_error": self.injected_error,
            "syndrome": list(self.syndrome),
            "correction": self.correction,
            "fidelity": self.fidelity,
            "recovered": self.recovered,
        }


def measured_syndrome(state: SparseState, code: StabilizerCode) -> tuple[int, ...]:
    """Stabilizer eigenvalues read off the (eigenstate) register in one
    pauli_eigenvalues pass; raises naming the first generator that fails."""
    bits = []
    vals, eigen = pauli_eigenvalues(state, code.generators)
    for g, val, ok in zip(code.generators, vals.real, eigen):
        if not ok or abs(abs(val) - 1) > 1e-8:
            raise ProtocolError(f"state is not an eigenstate of {g}")
        bits.append(0 if val > 0 else 1)
    return tuple(bits)


def run_storage_protocol(code, amplitudes, key, injected_error=None, rng=None) -> StorageReport:
    """Encode, mask, optionally corrupt, correct on the masked register, and
    unmask; refuses codes whose generators fail the masking criterion."""
    if isinstance(code, str):
        code = builtin_code(code)
    compat = stabilizer_mask_check(code)
    if not compat.verdict:
        bad = compat.failing_generators()[0]
        raise IncompatibleCodeError(
            f"{code.name} is not mask-compatible: generator {bad.index} ({bad.generator}) "
            f"anticommutes with a transversal mask component"
        )
    cs = logical_codewords(code)
    c0, c1 = amplitudes
    psi = combine(list(cs.basis), [c0, c1]).normalized()
    keys = KeyRegister.uniform(code.n, key[0], key[1])
    state = encrypt(psi, keys)
    if injected_error is not None:
        if isinstance(injected_error, str):
            injected_error = parse_pauli(injected_error)
        state = apply_pauli(state, injected_error)
    syn = measured_syndrome(state, code)
    corr = decode_single_error(code, syn)
    if corr is None:
        raise ProtocolError(f"syndrome {syn} matches no weight-<=1 error")
    state = apply_pauli(state, corr)
    state = apply_pauli(state, mask_pauli(keys).adjoint())
    fid = fidelity_up_to_phase(state, psi)
    return StorageReport(
        code.name,
        (key[0], key[1]),
        None if injected_error is None else injected_error.to_string(),
        syn,
        corr.to_string(),
        fid,
        final_state=state,
    )


@dataclass(frozen=True)
class TransversalTReport:
    keys: tuple[int, int]
    outcomes: list
    correction: dict
    fidelity: float
    data_qubits: int
    bell_pairs_used: int
    max_live_qubits: int
    max_terms: int
    final_state: SparseState | None = None

    def as_dict(self) -> dict:
        return {
            "code": "rm15",
            "keys": list(self.keys),
            "outcomes": [list(o) for o in self.outcomes],
            "correction": self.correction,
            "fidelity": self.fidelity,
            "data_qubits": self.data_qubits,
            "bell_pairs_used": self.bell_pairs_used,
            "max_live_qubits": self.max_live_qubits,
            "max_terms": self.max_terms,
        }


def run_transversal_t_protocol(amplitudes, key, rng, forced_outcomes=None) -> TransversalTReport:
    """Transversal T on the masked [[15,1,3]] block: T on every qubit, one
    teleportation per qubit to strip the S-type byproducts, then the diagonal
    logical Clifford correction (realized transversally) and the final Pauli
    unmask.  Pairs are processed one at a time so the 45-qubit joint register
    is never materialized."""
    code = builtin_code("rm15")
    forced = list(forced_outcomes) if forced_outcomes is not None else None
    if forced is not None and len(forced) != code.n:
        raise ValueError(f"transversal T needs {code.n} forced outcome pairs, got {len(forced)}")
    cs = logical_codewords(code)
    corr = clifford_correction_for_t(cs)
    if corr is None:
        raise ProtocolError("no diagonal logical correction available for rm15")
    c0, c1 = amplitudes
    norm = np.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    c0, c1 = c0 / norm, c1 / norm
    psi = combine(list(cs.basis), [c0, c1])
    a, b = int(key[0]) & 1, int(key[1]) & 1
    keys = KeyRegister.uniform(code.n, a, b)
    state = encrypt(psi, keys)
    max_qubits = state.n
    max_terms = state.num_terms

    for q in range(1, code.n + 1):
        state = apply_single(state, gate("T"), q)

    outcomes = []
    for q in range(1, code.n + 1):
        state = tensor(state, bell_pair())
        s_pos, c_pos = code.n + 1, code.n + 2
        state = swap_qubits(state, q, s_pos)
        max_qubits = max(max_qubits, state.n)
        max_terms = max(max_terms, state.num_terms)
        pick = forced[q - 1] if forced is not None else None
        outcome, new, _, state = _measure_t_pair(state, (s_pos, c_pos), "T", keys.pair(q), rng, pick)
        outcomes.append(outcome)
        keys = keys.with_pair(q, new)

    # diagonal logical correction: S-power realized as transversal Sd, the
    # Z-power as transversal Z; both propagate the keys exactly
    for _ in range(corr.logical_s_power % 4):
        for q in range(1, code.n + 1):
            state = apply_single(state, gate("Sd"), q)
            aq, bq = keys.pair(q)
            keys = keys.with_pair(q, (aq, aq ^ bq))
    if corr.logical_z_power % 2:
        for q in range(1, code.n + 1):
            state = apply_single(state, gate("Z"), q)

    state = apply_pauli(state, mask_pauli(keys).adjoint())
    target = combine(list(cs.basis), [c0, OMEGA * c1])
    fid = fidelity_up_to_phase(state, target)
    if fid < 1 - ROUND_TRIP_TOL:
        raise ProtocolError(f"transversal-T output fidelity {fid} below tolerance")
    return TransversalTReport(
        (a, b), outcomes, corr.as_dict(), fid, code.n, code.n, max_qubits, max_terms,
        final_state=state,
    )


@dataclass(frozen=True)
class ResourceReport:
    n: int
    q_data: int
    q_aux_phys: int
    q_tot_phys: int
    q_aux_log: int
    q_tot_log: int

    def as_dict(self) -> dict:
        return asdict(self)


def resource_report(n: int) -> ResourceReport:
    """Register cost of one teleported non-Clifford gate on an n-qubit block:
    n data qubits plus n physical Bell pairs, or one logical Bell pair of two
    n-qubit blocks; both total 3n."""
    if n < 1:
        raise ValueError("block size must be positive")
    return ResourceReport(n, n, 2 * n, 3 * n, 2 * n, 3 * n)


@dataclass(frozen=True)
class LogicalTReport:
    keys: tuple[int, int]
    outcome: tuple[int, int]
    fidelity: float
    register_qubits: int
    max_terms: int
    resources: ResourceReport
    final_state: SparseState | None = None

    def as_dict(self) -> dict:
        return {
            "code": "shor",
            "keys": list(self.keys),
            "outcome": list(self.outcome),
            "fidelity": self.fidelity,
            "register_qubits": self.register_qubits,
            "max_terms": self.max_terms,
            "resources": self.resources.as_dict(),
        }


def _projector_phase_gate(cs, phase: complex):
    """Unitary extension I + (phase-1)|1L><1L| applied to a code block."""
    one = cs.one

    def apply(state: SparseState) -> SparseState:
        c = inner(one, state)
        return combine([state, one], [1.0, (phase - 1.0) * c])

    return apply


def _split_key(key: int, low_bits: int) -> tuple[int, int]:
    return key & ((1 << low_bits) - 1), key >> low_bits


def run_logical_t_protocol(amplitudes, key, rng, forced_outcome=None) -> LogicalTReport:
    """Logical-mask protocol on the nine-qubit code: encrypt with logical
    Paulis, apply the projector-extended logical T, block-swap into a logical
    Bell pair, measure in the rotated logical Bell basis, and unmask.

    The data block and the 18-qubit Bell block stay product factors until the
    measurement, which is evaluated as a bipartite contraction, so the stored
    term count stays far below the dense 27-qubit expansion.
    """
    code = builtin_code("shor")
    cs = logical_codewords(code)
    zero, one = cs.basis
    x_bar, z_bar = code.logical_x[0], code.logical_z[0]
    a, b = int(key[0]) & 1, int(key[1]) & 1

    c0, c1 = amplitudes
    norm = np.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    c0, c1 = c0 / norm, c1 / norm
    psi = combine([zero, one], [c0, c1])

    enc = psi
    if b:
        enc = apply_pauli(enc, z_bar)
    if a:
        enc = apply_pauli(enc, x_bar)
    t_bar = _projector_phase_gate(cs, OMEGA)
    chi = t_bar(enc)  # data block, conceptually living on s_p after the swap

    sq2 = 1 / np.sqrt(2)
    # the logical product states |00>, |01>, |10>, |11> of two blocks
    products = [tensor(zero, zero), tensor(zero, one), tensor(one, zero), tensor(one, one)]
    bell = combine([products[0], products[3]], [sq2, sq2])  # on (w_p, c_p)
    register_qubits = chi.n + bell.n
    max_terms = chi.num_terms + bell.num_terms

    # rotated logical Bell basis on (s_p, c_p): (S^a)^dag Z^rb X^ra on the s slot
    xm = np.array([[0, 1], [1, 0]], dtype=complex)
    zm = np.array([[1, 0], [0, -1]], dtype=complex)
    sdag = np.array([[1, 0], [0, (-1j) ** a]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    m0 = i2 * sq2
    chi_d = dict(chi.items())
    bell_d = dict(bell.items())

    branches = {}
    probs = {}
    for r_a in (0, 1):
        for r_b in (0, 1):
            coeff = sdag @ (zm if r_b else i2) @ (xm if r_a else i2) @ m0
            basis_state = combine(products, [coeff[0, 0], coeff[0, 1], coeff[1, 0], coeff[1, 1]])
            beta: dict[int, complex] = {}
            for k, amp in basis_state.items():
                x_part, z_part = _split_key(k, code.n)
                if x_part in chi_d:
                    beta[z_part] = beta.get(z_part, 0j) + np.conj(amp) * chi_d[x_part]
            out: dict[int, complex] = {}
            for k, amp in bell_d.items():
                y_part, z_part = _split_key(k, code.n)
                bz = beta.get(z_part)
                if bz is not None:
                    out[y_part] = out.get(y_part, 0j) + bz * amp
            st = SparseState.from_terms(code.n, out) if out else None
            p = 0.0 if st is None else st.norm() ** 2
            branches[(r_a, r_b)] = st
            probs[(r_a, r_b)] = p

    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    total = sum(probs[o] for o in order)
    if abs(total - 1) > 1e-9:
        raise ProtocolError(f"logical Bell measurement probabilities sum to {total}")
    if forced_outcome is not None:
        outcome = (int(forced_outcome[0]), int(forced_outcome[1]))
    else:
        outcome = order[rng.choice_weighted([probs[o] for o in order])]
    if probs[outcome] < 1e-12:
        raise ProtocolError(f"outcome {outcome} has zero probability")
    state = branches[outcome].scaled(1 / np.sqrt(probs[outcome]))

    r_a, r_b = outcome
    a_f, b_f = a ^ r_a, (a ^ b) ^ r_b
    # undo the residual logical mask X^af Z^bf with Z^bf X^af
    if a_f:
        state = apply_pauli(state, x_bar)
    if b_f:
        state = apply_pauli(state, z_bar)

    target = combine([zero, one], [c0, OMEGA * c1])
    fid = fidelity_up_to_phase(state, target)
    if fid < 1 - ROUND_TRIP_TOL:
        raise ProtocolError(f"logical-T output fidelity {fid} below tolerance")
    return LogicalTReport(
        (a, b), outcome, fid, register_qubits, max_terms, resource_report(code.n),
        final_state=state,
    )
