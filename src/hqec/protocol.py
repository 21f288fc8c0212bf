"""Encrypted evaluation protocols: key registers, Clifford key updates,
teleportation-based T handling, and the end-to-end runners.

Conventions shared by all runners:

* Encryption applies X^a Z^b per qubit; the key register holds the (a, b)
  pairs.  Clifford gates update keys through exact 2x2/4x4 identities.
* A T (Td) gate on a masked qubit leaves an S-type byproduct (S-dagger to
  the a-th power for T, S to the a-th power for Td) plus the Pauli mask
  with b replaced by a xor b.  The byproduct is removed by measuring the
  gate's Bell pair in the matching rotated Bell basis.
* The key replay walks the gate sequence in order, so every rotation
  exponent and key update uses the key values current at that point;
  measurement outcomes fold in as a -> a^r_a and b -> b ^ (a ^ r_b) with
  the pre-update a.  The other reading of that update breaks the round
  trip (see the negative test in the suite).
* run_circuit is the one T gadget: one states.teleport call applies the
  T or Td gate and teleports the data qubit through a fresh Bell pair
  measured at once, never building the data-plus-pair register.  Measured
  qubits are never touched again, so this equals keeping every pair until
  the end.  Z, S and Sd gates are deferred and run as one phase pass
  (states.apply_phases) before the next other gate, T gadget or the final
  correction; their key rules and transcript events stay per gate.  The
  transcript lists the server's events before the client's, with pair i at
  the positions n+2i-1, n+2i it would hold if every pair were kept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .codes import (
    CODE_CACHE_SIZE,
    StabilizerCode,
    builtin_code,
    decode_single_error,
    logical_codewords,
)
from .compat import (
    OMEGA,
    IncompatibleCodeError,
    ProtocolError,
    ResourceReport,
    clifford_correction_for_t,
    resource_report,
    stabilizer_mask_check,
)
from .pauli import PauliOperator, parse_pauli
from .states import (
    IDENTITY,
    TOL,
    SparseState,
    _weight,
    apply_cnot,
    apply_pauli,
    apply_phases,
    apply_single,
    combine,
    fidelity_up_to_phase,
    gate,
    inner,
    pauli_eigenvalues,
    teleport,
    unit_amplitudes,
)


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

    def as_lists(self) -> list[list[int]]:
        return [[a, b] for a, b in self.pairs]


CLIFFORD_KINDS = ("X", "Z", "H", "S", "Sd", "CNOT")
GATE_KINDS = CLIFFORD_KINDS + ("T", "Td")


class _GateFields(NamedTuple):
    kind: str
    qubits: tuple[int, ...]


class CircuitGate(_GateFields):
    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...]):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        want = 2 if kind == "CNOT" else 1
        if len(qubits) != want:
            raise ValueError(f"{kind} takes {want} qubit(s)")
        if any(q < 1 for q in qubits):
            raise ValueError(f"{kind} qubits are numbered from 1, got {qubits}")
        if kind == "CNOT" and qubits[0] == qubits[1]:
            raise ValueError("CNOT qubits must be distinct")
        return tuple.__new__(cls, (kind, qubits))

    @property
    def is_clifford(self) -> bool:
        return self.kind in CLIFFORD_KINDS


_TOKEN = re.compile(r"^(CX|Td|Sd|[XZHST])(\d+)(?:,(\d+))?$")


def parse_circuit(text: str) -> list[CircuitGate]:
    """Whitespace-separated tokens like 'H1 T1 Td2 S2 Sd1 CX1,2'."""
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


class Transcript:
    __slots__ = ("events",)

    def __init__(self, events: list[dict] | None = None):
        self.events = [] if events is None else events

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


def _key_rule(kind: str, pairs):
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


def clifford_key_update(g: CircuitGate, keys: KeyRegister) -> KeyRegister:
    """The key register after the Clifford gate g, by the exact key rules."""
    if not g.is_clifford:
        raise ValueError(f"{g.kind} is not a Clifford gate")
    pairs = list(keys.pairs)
    for q, pair in zip(g.qubits, _key_rule(g.kind, [pairs[q - 1] for q in g.qubits])):
        pairs[q - 1] = pair
    return KeyRegister(tuple(pairs))


# rotated-basis choice for (gadget kind, key bit a): S^a for T, Sd^a for Td
_ROTATIONS = {
    ("T", 0): (IDENTITY, "S^0"),
    ("T", 1): (gate("S"), "S^1"),
    ("Td", 0): (IDENTITY, "Sd^0"),
    ("Td", 1): (gate("Sd"), "Sd^1"),
}


# Z, S and Sd as the power of i they put on |1>, deferred by run_circuit
_PHASE_POWERS = {"Z": 2, "S": 1, "Sd": 3}


class CircuitRun(NamedTuple):
    state: SparseState
    transcript: Transcript
    outcomes: list
    max_live_qubits: int
    max_terms: int


def run_circuit(enc_state, circuit, keys, rng, forced_outcomes=None) -> CircuitRun:
    """Evaluate a Clifford+T circuit on the encrypted register and decrypt
    it, in one pass over the gates.

    A Clifford gate's key rule is replayed on the keys.  Z, S and Sd gates
    only add to a pending power of i on their qubit; the pending layer is
    applied as one phase pass before any other gate, T gadget or the final
    correction, which equals applying them one by one.  A T/Td gate is
    applied inside the teleportation of its data qubit through a Bell pair
    measured in the rotated basis that the qubit's current key (a, b)
    selects; the outcome folds in as a -> a ^ r_a and b -> b ^ (a ^ r_b),
    with the pre-update a in both.  Forced outcomes, exactly one per T/Td
    gate in order, replace sampling; a wrong count raises ValueError before
    any gate runs.  The final Pauli correction undoes the remaining mask.
    The peaks count the data-plus-pair register that each teleportation
    stands for.
    """
    n = len(keys)
    if n != enc_state.n:
        raise ValueError("key register length does not match the data register")
    forced = None if forced_outcomes is None else list(forced_outcomes)
    if forced is not None:
        t = sum(not g.is_clifford for g in circuit)
        if t != len(forced):
            raise ValueError(f"circuit needs {t} forced outcome pairs, got {len(forced)}")
    cur = list(keys.pairs)
    pending = [0] * n
    state = enc_state
    server, client, outcomes = [], [], []
    max_qubits, max_terms = state.n, state.num_terms
    for g in circuit:
        kind, qubits = g.kind, g.qubits
        for q in qubits:
            if not 1 <= q <= n:
                raise ValueError(f"qubit {q} out of range 1..{n}")
        if kind in _PHASE_POWERS:
            (q,) = qubits
            pending[q - 1] = (pending[q - 1] + _PHASE_POWERS[kind]) & 3
        else:
            if any(pending):
                state = apply_phases(state, pending)
                pending = [0] * n
            if g.is_clifford:
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
        # the joint register a tensored-in pair would make
        max_qubits = max(max_qubits, n + 2)
        max_terms = max(max_terms, 2 * state.num_terms)
        pick = None if forced is None else forced[i - 1]
        a, b = cur[w - 1]
        rotation, label = _ROTATIONS[kind, a]
        outcome, state = teleport(state, w, rotation, rng, pick, gate(kind))
        r_a, r_b = outcome
        cur[w - 1] = new = (a ^ r_a, b ^ (a ^ r_b))
        outcomes.append(outcome)
        client += [
            {"kind": "measurement", "pair_index": i, "rotation": label, "outcome": list(outcome),
             "forced": pick is not None},
            {"kind": "key_update", "qubit": w, "old": [a, b], "new": list(new)},
        ]
    if any(pending):
        state = apply_phases(state, pending)
    final = KeyRegister(tuple(cur))
    correction = mask_pauli(final).adjoint()
    client += [
        {"kind": "final_keys", "keys": final.as_lists()},
        {"kind": "final_correction", "pauli": correction.to_string()},
    ]
    state = apply_pauli(state, correction)
    return CircuitRun(state, Transcript(server + client), outcomes, max_qubits, max_terms)


# ---------------------------------------------------------------------------
# runners


def random_state(n: int, rng) -> SparseState:
    """Deterministic pseudo-random n-qubit state (dense support)."""
    amps = [complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(1 << n)]
    return SparseState(n, range(1 << n), amps).normalized()


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


class DemoReport(NamedTuple):
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
    encrypt -> run_circuit.  Returns (report, decrypted, expected)."""
    psi = state if state is not None else random_state(2, rng)
    kr = keys if keys is not None else KeyRegister.random(2, rng)
    run = run_circuit(encrypt(psi, kr), DEMO_CIRCUIT, kr, rng, forced_outcomes)
    expected = apply_plain_circuit(psi, DEMO_CIRCUIT)
    fid = fidelity_up_to_phase(run.state, expected)
    final_keys = next(ev for ev in run.transcript.events if ev["kind"] == "final_keys")["keys"]
    report = DemoReport(kr.as_lists(), final_keys, fid, run.transcript)
    return report, run.state, expected


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
        return self.fidelity >= 1 - TOL

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
    for g, val, ok in zip(code.generators, vals, eigen):
        if not ok or abs(abs(val.real) - 1) > TOL:
            raise ProtocolError(f"state is not an eigenstate of {g}")
        bits.append(0 if val.real > 0 else 1)
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
    state = apply_pauli(state, mask_pauli(keys).adjoint().multiply(corr))
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


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _transversal_t_circuit(n: int, s_power: int, z_power: int) -> tuple[CircuitGate, ...]:
    """T on every qubit, then transversal Sd^s_power and Z^z_power."""
    layers = ["T"] + ["Sd"] * s_power + ["Z"] * z_power
    return tuple(CircuitGate(kind, (q,)) for kind in layers for q in range(1, n + 1))


def run_transversal_t_protocol(amplitudes, key, rng, forced_outcomes=None) -> TransversalTReport:
    """Transversal T on the masked [[15,1,3]] block through run_circuit: T on
    every qubit, each teleported to strip its S-type byproduct, then the
    diagonal logical Clifford correction realized as transversal Sd and Z.
    Each pair is measured before the next is tensored in, so the 45-qubit
    joint register is never materialized."""
    code = builtin_code("rm15")
    cs = logical_codewords(code)
    corr = clifford_correction_for_t(cs)
    if corr is None:
        raise ProtocolError("no diagonal logical correction available for rm15")
    c0, c1 = unit_amplitudes(amplitudes)
    psi = combine(list(cs.basis), [c0, c1])
    a, b = int(key[0]) & 1, int(key[1]) & 1
    keys = KeyRegister.uniform(code.n, a, b)
    circuit = _transversal_t_circuit(code.n, corr.logical_s_power % 4, corr.logical_z_power % 2)
    run = run_circuit(encrypt(psi, keys), circuit, keys, rng, forced_outcomes)
    target = combine(list(cs.basis), [c0, OMEGA * c1])
    fid = fidelity_up_to_phase(run.state, target)
    if fid < 1 - TOL:
        raise ProtocolError(f"transversal-T output fidelity {fid} below tolerance")
    return TransversalTReport(
        (a, b), run.outcomes, corr.as_dict(), fid, code.n, len(run.outcomes), run.max_live_qubits,
        run.max_terms, final_state=run.state,
    )


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


def run_logical_t_protocol(amplitudes, key, rng, forced_outcome=None) -> LogicalTReport:
    """Logical-mask protocol on the nine-qubit code: encrypt with logical
    Paulis, apply the projector-extended logical T, block-swap into a logical
    Bell pair, measure in the rotated logical Bell basis, and unmask.

    The measurement reads the masked block chi only through its code-space
    amplitudes x_i = <i_L|chi>, and each Bell block adds |j_L>/sqrt2, so it
    is states.teleport of the one-qubit register (x0, x1) in the basis that
    S^a selects; the kept amplitudes (y0, y1) give y0|0_L> + y1|1_L>.  The
    27-qubit register and the 18-qubit Bell block are never built.
    """
    code = builtin_code("shor")
    cs = logical_codewords(code)
    zero, one = cs.basis
    x_bar, z_bar = code.logical_x[0], code.logical_z[0]
    a, b = int(key[0]) & 1, int(key[1]) & 1

    c0, c1 = unit_amplitudes(amplitudes)
    psi = combine([zero, one], [c0, c1])

    enc = psi
    if b:
        enc = apply_pauli(enc, z_bar)
    if a:
        enc = apply_pauli(enc, x_bar)
    # logical T extended to I + (omega-1)|1L><1L|; chi sits on s_p after the swap
    chi = combine([enc, one], [1.0, (OMEGA - 1.0) * inner(one, enc)])

    x = [inner(zero, chi), inner(one, chi)]
    total = _weight(x)
    if abs(total - 1) > TOL:
        raise ProtocolError(f"logical Bell measurement probabilities sum to {total}")
    logical = SparseState(1, (0, 1), x)
    outcome, logical = teleport(logical, 1, _ROTATIONS["T", a][0], rng, forced_outcome)
    state = combine([zero, one], [logical.amplitude(0), logical.amplitude(1)])

    r_a, r_b = outcome
    a_f, b_f = a ^ r_a, (a ^ b) ^ r_b
    # undo the residual logical mask X^af Z^bf with Z^bf X^af
    if a_f:
        state = apply_pauli(state, x_bar)
    if b_f:
        state = apply_pauli(state, z_bar)

    target = combine([zero, one], [c0, OMEGA * c1])
    fid = fidelity_up_to_phase(state, target)
    if fid < 1 - TOL:
        raise ProtocolError(f"logical-T output fidelity {fid} below tolerance")
    resources = resource_report(code.n)
    max_terms = max(st.num_terms for st in (psi, enc, chi, state))
    return LogicalTReport(
        (a, b), outcome, fid, resources.q_tot_log, max_terms, resources, final_state=state,
    )
