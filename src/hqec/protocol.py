"""Encrypted evaluation protocols: key registers, Clifford key updates,
teleportation-based T handling, and the end-to-end runners.

Conventions shared by all runners:

* Encryption applies X^a Z^b per qubit; the key register holds the mask's
  bits, qubit q's (a, b) at bit q-1 of its x and z masks.  Clifford gates
  update keys by the exact symplectic rules on those masks.
* A T (Td) gate on a masked qubit leaves an S-type byproduct (S-dagger to
  the a-th power for T, S to the a-th power for Td) plus the Pauli mask
  with b replaced by a xor b.  The byproduct is removed by measuring the
  gate's Bell pair in the matching rotated Bell basis.
* Both T runners and the demo go through run_circuit (the logical runner
  on a one-qubit register of code-space amplitudes), which replays the key
  rules gate by gate; its docstring gives the outcome fold-in, whose other
  reading breaks the round trip (see the negative test in the suite).  It
  builds transcript events only into a Transcript sink that its caller
  passes: the demo does, the T runners do not.
* The runners share one encode step (_encode, on a code space, which takes
  its amplitudes as a pair (c0, c1), anything else a ValueError) and one
  logical-T check (_checked_logical_t).  Every runner unpacks its key as a
  pair (a, b), anything else a ValueError, builds KeyRegister.uniform(n, a,
  b), masks with keys.mask and reports keys.pair(1); run_circuit's final
  correction is the mask's adjoint.
  Storage and transversal T read one cached plan per code (_storage_plan,
  _transversal_t_plan); syndrome decoding, the transversal circuit and the
  logical mask stay in their own runner.  They build code-space states by
  CodeSpace.state and read them by CodeSpace.coords and states.inner.
* The storage runner takes its syndrome from the error (as codes.syndrome
  computes it), not from the state: on a compatible code the mask commutes
  with every generator, so it leaves each syndrome bit as the error sets
  it, and the mask, error and unmask times correction are one apply_paulis
  pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import NamedTuple

from . import DEMO_CIRCUIT_TEXT, ResourceReport, resource_report
from .codes import (
    CODE_CACHE_SIZE,
    StabilizerCode,
    _single_error_table,
    builtin_code,
    logical_codewords,
    syndrome,
)
from .compat import (
    OMEGA,
    IncompatibleCodeError,
    ProtocolError,
    clifford_correction_for_t,
    stabilizer_mask_check,
)
from .pauli import PauliOperator, _qubit_count, parse_pauli
from .states import (
    PRUNE_TOL,
    TOL,
    MonomialLayer,
    SparseState,
    _terms_state,
    apply_cnot,
    apply_monomial,
    apply_pauli,
    apply_paulis,
    apply_single,
    fidelity_up_to_phase,
    gate,
    unit_amplitudes,
)


# ---------------------------------------------------------------------------
# keys, gates, transcripts


class _KeyFields(NamedTuple):
    n: int
    x: int
    z: int


def _key_bit(bit) -> int:
    """bit as 0 or 1 by operator.index, a numpy scalar by its value: TypeError for a float or a str."""
    if (b := index(bit.item() if hasattr(bit, "item") else bit)) in (0, 1):
        return b
    raise ValueError(f"key bit must be 0 or 1, got {b}")


class KeyRegister(_KeyFields):
    """The key bits of an n-qubit register, laid out as its mask: qubit q's
    (a, b) at bit q-1 of x and of z, so the mask is X(x) Z(z).  The
    constructor refuses n outside 1..MAX_QUBITS and bits off the n qubits."""

    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int):
        if not 0 <= x | z < 1 << _qubit_count(n):
            raise ValueError(f"key bits x={x:#x}, z={z:#x} out of range for qubits 1..{n}")
        return tuple.__new__(cls, (n, x, z))

    _make = classmethod(lambda cls, fields: cls(*fields))  # NamedTuple._replace calls it: checked too

    @classmethod
    def of(cls, pairs) -> "KeyRegister":
        bits = [(_key_bit(a), _key_bit(b)) for a, b in pairs]
        return cls(len(bits), sum(a << q for q, (a, _) in enumerate(bits)),
                   sum(b << q for q, (_, b) in enumerate(bits)))

    @classmethod
    def uniform(cls, n: int, a: int, b: int) -> "KeyRegister":
        full = (1 << _qubit_count(n)) - 1
        return tuple.__new__(cls, (n, full * _key_bit(a), full * _key_bit(b)))  # fits n qubits: unchecked

    @classmethod
    def random(cls, n: int, rng) -> "KeyRegister":
        return cls.of([(rng.next_u64() & 1, rng.next_u64() & 1) for _ in range(n)])

    def pair(self, qubit: int) -> tuple[int, int]:
        return self.x >> (qubit - 1) & 1, self.z >> (qubit - 1) & 1

    def as_lists(self) -> list[list[int]]:
        return [[self.x >> q & 1, self.z >> q & 1] for q in range(self.n)]

    @property
    def mask(self) -> PauliOperator:
        """The full mask: X^a Z^b on each qubit, unchecked (the register is checked)."""
        return tuple.__new__(PauliOperator, (self.n, self.x, self.z, 0))


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
        try:
            qubits = tuple(map(index, qubits))
        except TypeError:
            raise ValueError(f"{kind} qubits must be integers, got {qubits!r}") from None
        want = 2 if kind == "CNOT" else 1
        if len(qubits) != want:
            raise ValueError(f"{kind} takes {want} qubit(s)")
        if any(q < 1 for q in qubits):
            raise ValueError(f"{kind} qubits are numbered from 1, got {qubits}")
        if kind == "CNOT" and qubits[0] == qubits[1]:
            raise ValueError("CNOT qubits must be distinct")
        return tuple.__new__(cls, (kind, qubits))

    _make = classmethod(lambda cls, fields: cls(*fields))  # NamedTuple._replace calls it: checked too

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


class Transcript:
    __slots__ = ("events",)

    def __init__(self, events: list[dict] | None = None):
        self.events = [] if events is None else events

    def as_dict(self) -> dict:
        return {"events": self.events}


# ---------------------------------------------------------------------------
# key algebra


def encrypt(state: SparseState, keys: KeyRegister) -> SparseState:
    if keys.n != state.n:
        raise ValueError(f"key register has {keys.n} pairs, state has {state.n} qubits")
    return apply_pauli(state, keys.mask)


def _key_rule(kind: str, qubits, x: int, z: int) -> tuple[int, int]:
    """Clifford key rule on the mask bits x, z: X and Z leave them alone, H
    swaps qubit q's two bits, S and Sd fold its x bit into its z bit, and
    CNOT(c, t) folds x_c into x_t and z_t into z_c."""
    if kind == "H":
        bit = 1 << (qubits[0] - 1)
        d = (x ^ z) & bit
        return x ^ d, z ^ d
    if kind in ("S", "Sd"):
        return x, z ^ (x & (1 << (qubits[0] - 1)))
    if kind == "CNOT":
        c, t = qubits[0] - 1, qubits[1] - 1
        return x ^ ((x >> c & 1) << t), z ^ ((z >> t & 1) << c)
    return x, z


def clifford_key_update(g: CircuitGate, keys: KeyRegister) -> KeyRegister:
    """The key register after the Clifford gate g, by the exact key rules."""
    if not g.is_clifford:
        raise ValueError(f"{g.kind} is not a Clifford gate")
    if max(g.qubits) > keys.n:
        raise ValueError(f"qubit {max(g.qubits)} out of range 1..{keys.n}")
    return KeyRegister(keys.n, *_key_rule(g.kind, g.qubits, keys.x, keys.z))


# the power of omega = exp(i pi/4) that Z, S, Sd, T and Td put on |1>
_OMEGA_EXPONENTS = {"Z": 4, "S": 2, "Sd": 6, "T": 1, "Td": 7}


class CircuitRun(NamedTuple):
    state: SparseState
    keys: KeyRegister  # the final keys, undone by the final correction
    transcript: Transcript | None
    outcomes: list
    max_live_qubits: int
    max_terms: int


def run_circuit(enc_state, circuit, keys, rng, forced_outcomes=None, transcript=None) -> CircuitRun:
    """Evaluate a Clifford+T circuit on the encrypted register and decrypt
    it, in one pass over the gates.

    A Clifford gate's key rule is replayed on the keys.  Z, S, Sd gates and
    T/Td gadgets join the pending MonomialLayer, which apply_monomial runs as
    one pass before any X, H or CNOT, and at the end with the final correction
    as its trailing Pauli (measured qubits are never touched again, so this
    equals keeping every pair until the end).  A T/Td gate is applied inside
    the teleportation of its data qubit through a Bell pair measured in the
    rotated basis that the qubit's current key (a, b) selects; its outcome is
    sampled when the gadget joins the layer and folds in as a -> a ^ r_a and b
    -> b ^ (a ^ r_b), with the pre-update a in both.  Forced outcomes, one per
    T/Td gate in order, replace sampling.  A wrong forced count, then a qubit
    outside 1..n, raises ValueError before any gate runs.  The final Pauli
    correction undoes the remaining mask.  The peaks count the data-plus-pair
    register each teleportation stands for.  With a Transcript sink, the run
    appends its events to it when done, the server's before the client's (pair
    i at the positions n+2i-1, n+2i it would hold if every pair were kept), and
    returns it as CircuitRun.transcript (None without one: no event is built).
    """
    n = keys.n
    if n != enc_state.n:
        raise ValueError("key register length does not match the data register")
    forced = None if forced_outcomes is None else list(forced_outcomes)
    if forced is not None:
        t = sum(g.kind not in CLIFFORD_KINDS for g in circuit)
        if t != len(forced):
            raise ValueError(f"circuit needs {t} forced outcome pairs, got {len(forced)}")
    bad = [q for g in circuit for q in g.qubits if not 1 <= q <= n]
    if bad:
        raise ValueError(f"qubit {bad[0]} out of range 1..{n}")
    x, z = keys.x, keys.z
    gadget = (layer := MonomialLayer(n)).gadget
    state, server, client, outcomes = enc_state, [], [], []
    max_qubits, max_terms = n, len(state.keys)
    for g in circuit:
        kind, qubits = g.kind, g.qubits
        t = _OMEGA_EXPONENTS.get(kind)
        if t is None or not t & 1:  # a Clifford gate
            if t is None:  # X, H or CNOT
                if layer.pending:
                    state = apply_monomial(state, layer)
                    gadget = (layer := MonomialLayer(n)).gadget
                state = apply_plain_circuit(state, (g,))
                x2, z2 = _key_rule(kind, qubits, x, z)
            else:  # Z, S or Sd; S and Sd (t & 2) fold x_q into z_q, _key_rule's S rule
                layer.phase(qubits[0], t)
                x2, z2 = x, (z ^ (x & (1 << qubits[0] - 1)) if t & 2 else z)
            if transcript is not None:
                server.append({"kind": "gate", "gate": kind, "qubits": list(qubits)})
                client += [{"kind": "key_update", "qubit": q, "old": [x >> q - 1 & 1, z >> q - 1 & 1],
                            "new": [x2 >> q - 1 & 1, z2 >> q - 1 & 1]} for q in qubits if kind not in ("X", "Z")]
            x, z = x2, z2
            continue
        (w,) = qubits
        # the joint register a tensored-in pair would make (state.n == n)
        max_qubits, max_terms = n + 2, max(max_terms, 2 * len(state.keys))
        pick = None if forced is None else forced[len(outcomes)]
        bit = 1 << w - 1
        a, b = x >> w - 1 & 1, z >> w - 1 & 1
        # the pair is measured in S^a for T and Sd^a for Td, diag(1, omega^(2ta))
        r_a, r_b = outcome = gadget(state, w, 2 * t * a, t, rng, pick)
        x, z = x ^ (r_a and bit), z ^ (a ^ r_b and bit)
        outcomes.append(outcome)
        if transcript is not None:
            i = len(outcomes)
            s_pos, c_pos = n + 2 * i - 1, n + 2 * i
            server += [
                {"kind": "gate", "gate": kind, "qubits": [w], "pair_index": i, "pair_positions": [s_pos, c_pos]},
                {"kind": "bell_consumed", "pair_index": i, "positions": [s_pos, c_pos]},
                {"kind": "swap", "positions": [w, s_pos]},
            ]
            client += [
                {"kind": "measurement", "pair_index": i, "rotation": f"{'S' if kind == 'T' else 'Sd'}^{a}",
                 "outcome": list(outcome), "forced": pick is not None},
                {"kind": "key_update", "qubit": w, "old": [a, b], "new": [x >> w - 1 & 1, z >> w - 1 & 1]},
            ]
    final = KeyRegister(n, x, z)
    correction = final.mask.adjoint()  # X(x) Z(z) times (-1)^|x & z|
    if transcript is not None:
        transcript.events += server + client + [
            {"kind": "final_keys", "keys": final.as_lists()},
            {"kind": "final_correction", "pauli": correction.to_string()},
        ]
    state = apply_monomial(state, layer, correction) if layer.pending else apply_pauli(state, correction)
    return CircuitRun(state, final, transcript, outcomes, max_qubits, max_terms)


# ---------------------------------------------------------------------------
# runners


def random_state(n: int, rng) -> SparseState:
    """Deterministic pseudo-random n-qubit state (dense support)."""
    amps = [complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(1 << n)]
    return _terms_state(n, [t for t in enumerate(amps) if abs(t[1]) > PRUNE_TOL]).normalized()  # SparseState's prune


DEMO_CIRCUIT = tuple(parse_circuit(DEMO_CIRCUIT_TEXT))
_LOGICAL_T_CIRCUIT = (CircuitGate("T", (1,)),)  # what run_logical_t_protocol runs on its one-qubit register


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
            "circuit": DEMO_CIRCUIT_TEXT,
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
    run = run_circuit(encrypt(psi, kr), DEMO_CIRCUIT, kr, rng, forced_outcomes, Transcript())
    expected = apply_plain_circuit(psi, DEMO_CIRCUIT)
    fid = fidelity_up_to_phase(run.state, expected)
    report = DemoReport(kr.as_lists(), run.keys.as_lists(), fid, run.transcript)
    return report, run.state, expected


def _encode(space, amplitudes):
    """unit_amplitudes of the pair (c0, c1) and c0|0_L> + c1|1_L> on the code space, normalized."""
    if len(amplitudes) != 2:
        raise ValueError(f"amplitudes must be a pair (c0, c1), got {len(amplitudes)} values")
    amps = unit_amplitudes(amplitudes)
    return amps, space.state(*amps).normalized()


def _checked_logical_t(state: SparseState, space, amps, what: str) -> float:
    """The fidelity of state with c0|0_L> + omega c1|1_L>; raises below 1 - TOL."""
    c0, c1 = amps
    fid = fidelity_up_to_phase(state, space.state(c0, OMEGA * c1))
    if fid < 1 - TOL:
        raise ProtocolError(f"{what} output fidelity {fid} below tolerance")
    return fid


@dataclass(frozen=True)
class StorageReport:
    """A masked storage round trip; injected_error and correction format its
    two PauliOperators, error_op and correction_op, as text when read."""

    code_name: str
    keys: tuple[int, int]
    error_op: PauliOperator | None
    syndrome: tuple[int, ...]
    correction_op: PauliOperator
    fidelity: float
    final_state: SparseState | None = None

    @property
    def injected_error(self) -> str | None:
        return None if self.error_op is None else self.error_op.to_string()

    @property
    def correction(self) -> str:
        return self.correction_op.to_string()

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


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _storage_plan(code: StabilizerCode):
    """(code space, single-error table) of a mask-compatible code; raises
    IncompatibleCodeError otherwise, and a raise caches nothing."""
    compat = stabilizer_mask_check(code)
    if not compat.verdict:
        bad = compat.failing_generators()[0]
        raise IncompatibleCodeError(f"{code.name} is not mask-compatible: generator {bad.index} "
                                    f"({bad.generator}) anticommutes with a transversal mask component")
    return logical_codewords(code), _single_error_table(code)


def run_storage_protocol(code, amplitudes, key, injected_error=None, rng=None) -> StorageReport:
    """Encode, mask, optionally corrupt, correct on the masked register, and
    unmask; refuses codes whose generators fail the masking criterion.

    The mask U_enc(a,b) = (X^a Z^b)^n is one transversal Pauli that, on a
    compatible code, commutes with every generator: so the syndrome is the
    error's own (codes.syndrome; all zeros without one), and one pass applies
    the mask, the error and the unmask (its adjoint) times the correction.
    Nothing is drawn from rng, so a seed has no effect on the result."""
    if isinstance(code, str):
        code = builtin_code(code)
    space, table = _storage_plan(code)
    _, psi = _encode(space, amplitudes)
    a, b = key
    keys = KeyRegister.uniform(code.n, a, b)
    mask = keys.mask
    if injected_error is None:
        paulis, syn = [mask], (0,) * len(code.generators)
    else:
        if isinstance(injected_error, str):
            injected_error = parse_pauli(injected_error)
        paulis, syn = [mask, injected_error], syndrome(code, injected_error)
    corr = table.get(syn)
    if corr is None:
        raise ProtocolError(f"syndrome {syn} matches no weight-<=1 error")
    state = apply_paulis(psi, paulis + [mask.adjoint().multiply(corr)])
    return StorageReport(
        code.name, keys.pair(1), injected_error, syn, corr, fidelity_up_to_phase(state, psi), final_state=state,
    )


@dataclass(frozen=True)
class TransversalTReport:
    code_name: str
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
            "code": self.code_name,
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
def _transversal_t_plan(code: StabilizerCode):
    """(code space, T correction, circuit of T then Sd^s on every qubit, s the
    correction's S-power); no correction raises ProtocolError, caching nothing."""
    space = logical_codewords(code)
    corr = clifford_correction_for_t(space)
    if corr is None:
        raise ProtocolError(f"no diagonal logical correction available for {code.name}")
    layers = ["T"] + ["Sd"] * (corr.logical_s_power % 4)
    return space, corr, tuple(CircuitGate(kind, (q,)) for kind in layers for q in range(1, code.n + 1))


def run_transversal_t_protocol(amplitudes, key, rng, forced_outcomes=None) -> TransversalTReport:
    """Transversal T on the masked [[15,1,3]] block through run_circuit: T on
    every qubit, each teleported to strip its S-type byproduct, then the
    diagonal logical Clifford correction realized as transversal Sd.
    All of it is one monomial layer: the 15 gadgets sample their outcomes in
    gate order, and one apply_monomial pass applies the gates, so neither
    the 45-qubit joint register nor any state between gadgets is built."""
    code = builtin_code("rm15")
    space, corr, circuit = _transversal_t_plan(code)
    amps, psi = _encode(space, amplitudes)
    a, b = key
    keys = KeyRegister.uniform(code.n, a, b)
    run = run_circuit(encrypt(psi, keys), circuit, keys, rng, forced_outcomes)
    fid = _checked_logical_t(run.state, space, amps, "transversal-T")
    return TransversalTReport(
        code.name, keys.pair(1), run.outcomes, corr.as_dict(), fid, code.n, len(run.outcomes),
        run.max_live_qubits, run.max_terms, final_state=run.state,
    )


@dataclass(frozen=True)
class LogicalTReport:
    code_name: str
    keys: tuple[int, int]
    outcome: tuple[int, int]
    fidelity: float
    register_qubits: int
    max_terms: int
    resources: ResourceReport
    final_state: SparseState | None = None

    def as_dict(self) -> dict:
        return {
            "code": self.code_name,
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

    On the code space the projector-extended T, I + (omega-1)|1_L><1_L|, is
    diag(1, omega) on the amplitudes x_i = <i_L|enc> of the masked block, and
    the measurement reads the block only through them (each Bell block adds
    |j_L>/sqrt2).  So this is run_circuit's T on the one-qubit register
    (x0, x1) under the key (a, b); its output (y0, y1) gives y0|0_L> +
    y1|1_L>.  The 27-qubit register and Bell block are never built.
    """
    code = builtin_code("shor")
    space = logical_codewords(code)
    amps, psi = _encode(space, amplitudes)
    a, b = key
    keys = KeyRegister.uniform(1, a, b)
    a, b = keys.pair(1)
    enc = apply_paulis(psi, code.logical_z[:b] + code.logical_x[:a])
    x = space.coords(enc)
    forced = None if forced_outcome is None else [forced_outcome]
    register = _terms_state(1, [t for t in zip((0, 1), x) if abs(t[1]) > PRUNE_TOL])  # SparseState's prune
    run = run_circuit(register, _LOGICAL_T_CIRCUIT, keys, rng, forced)
    state = space.state(run.state.amplitude(0), run.state.amplitude(1))
    fid = _checked_logical_t(state, space, amps, "logical-T")
    resources = resource_report(code.n)
    max_terms = max(st.num_terms for st in (psi, enc, state))
    return LogicalTReport(
        code.name, keys.pair(1), run.outcomes[0], fid, resources.q_tot_log, max_terms, resources,
        final_state=state,
    )
