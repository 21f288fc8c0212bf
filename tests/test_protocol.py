import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import protocol, resource_report
from hqec.protocol import (
    CircuitGate,
    IncompatibleCodeError,
    KeyRegister,
    ProtocolError,
    Transcript,
    apply_plain_circuit,
    clifford_key_update,
    encrypt,
    parse_circuit,
    random_state,
    run_circuit,
    run_demo_circuit,
    run_logical_t_protocol,
    run_storage_protocol,
    run_transversal_t_protocol,
)
from hqec.codes import builtin_code, logical_codewords, parse_code_text, syndrome
from hqec.pauli import PauliOperator, parse_pauli
from hqec.rng import SplitMix64
from hqec import states
from hqec.states import (
    SparseState,
    apply_monomial,
    apply_pauli,
    apply_single,
    fidelity_up_to_phase,
    gate,
)
import oracles
from oracles import (
    BELL_OUTCOMES,
    basis_state,
    cached_code_space,
    combine,
    dense_cnot,
    dense_gadget_branches,
    dense_of,
    dense_pauli,
    dict_logical_bell_branches,
    from_terms,
    op_on,
    pair_key_rule,
    per_gate_exponent_run,
    state_bytes,
    tensor,
)

OMEGA = np.exp(1j * np.pi / 4)

DENSE_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sd": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, OMEGA]], dtype=complex),
    "Td": np.array([[1, 0], [0, OMEGA.conjugate()]], dtype=complex),
}


def dense_circuit(circuit, n):
    m = np.eye(1 << n, dtype=complex)
    for g in circuit:
        if g.kind == "CNOT":
            c, t = g.qubits
            dim = 1 << n
            step = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                j = k ^ ((((k >> (c - 1)) & 1)) << (t - 1))
                step[j, k] = 1
        else:
            step = op_on(DENSE_1Q[g.kind], g.qubits[0], n)
        m = step @ m
    return m


class TestEncryption:
    def test_bit_flip_amplitude_table(self):
        # masked amplitudes for the three-qubit repetition code, all keys
        c0, c1 = 0.6, 0.8j
        psi = from_terms(3, {"000": c0, "111": c1})
        expected = {
            (0, 0): (c0, c1),
            (0, 1): (c0, -c1),
            (1, 0): (c1, c0),
            (1, 1): (-c1, c0),
        }
        for (a, b), (e0, e1) in expected.items():
            enc = encrypt(psi, KeyRegister.uniform(3, a, b))
            assert enc.amplitude("000") == pytest.approx(e0, abs=1e-15)
            assert enc.amplitude("111") == pytest.approx(e1, abs=1e-15)

    def test_zero_keys_identity(self):
        psi = from_terms(2, {"01": 0.6, "10": 0.8})
        enc = encrypt(psi, KeyRegister.uniform(2, 0, 0))
        assert fidelity_up_to_phase(enc, psi) == pytest.approx(1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encrypt(basis_state(2, 0), KeyRegister.uniform(3, 1, 1))

    def test_masking_marginal(self):
        # averaging the masked density over uniform keys mixes the code space;
        # the two magnitude patterns each occur for exactly half the keys
        c0, c1 = 0.6, 0.8
        psi = from_terms(3, {"000": c0, "111": c1})
        rho = np.zeros((2, 2), dtype=complex)
        patterns = {"kept": 0, "swapped": 0}
        for a in (0, 1):
            for b in (0, 1):
                enc = encrypt(psi, KeyRegister.uniform(3, a, b))
                v = np.array([enc.amplitude("000"), enc.amplitude("111")])
                rho += np.outer(v, v.conj()) / 4
                if abs(abs(v[0]) - c0) < 1e-12:
                    patterns["kept"] += 1
                else:
                    patterns["swapped"] += 1
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-12
        assert patterns == {"kept": 2, "swapped": 2}


class TestKeyRegister:
    def test_random_draws_a_then_b_per_qubit(self):
        draws = SplitMix64(7)
        want = [[draws.next_u64() & 1, draws.next_u64() & 1] for _ in range(5)]
        assert KeyRegister.random(5, SplitMix64(7)).as_lists() == want

    def test_layout_is_the_mask(self):
        keys = KeyRegister.of([(1, 0), (0, 1), (1, 1)])
        assert (keys.n, keys.x, keys.z) == (3, 0b101, 0b110)
        assert [keys.pair(q) for q in (1, 2, 3)] == [(1, 0), (0, 1), (1, 1)]
        # X^a Z^b on each qubit, and X Z = -iY
        assert keys.mask.to_string() == "-iXZY"

    @pytest.mark.parametrize("n", [1, 9, 15])
    def test_uniform_mask_is_transversal(self, n):
        for a in (0, 1):
            for b in (0, 1):
                want = PauliOperator.identity(n)
                if a:
                    want = want.multiply(parse_pauli("X" * n))
                if b:
                    want = want.multiply(parse_pauli("Z" * n))
                assert KeyRegister.uniform(n, a, b).mask == want
                assert KeyRegister.uniform(n, a, b) == KeyRegister.of([(a, b)] * n)

    def test_update_checks_the_qubit_range(self):
        with pytest.raises(ValueError, match=r"^qubit 3 out of range 1\.\.2$"):
            clifford_key_update(CircuitGate("CNOT", (1, 3)), KeyRegister.of([(0, 0), (1, 1)]))

    @pytest.mark.parametrize("x, z", [(0b100, 0), (0, 0b100), (-1, 0), (0, -2), (1 << 64, 1)])
    def test_refuses_bits_beyond_n_or_negative(self, x, z):
        with pytest.raises(ValueError, match=r"^key bits x=.*, z=.* out of range for qubits 1\.\.2$"):
            KeyRegister(2, x, z)

    @pytest.mark.parametrize("n", [0, -1, 1025])
    def test_refuses_a_qubit_count_outside_the_cap(self, n):
        for build in (KeyRegister, KeyRegister.uniform):
            with pytest.raises(ValueError, match=rf"^qubit count must be in 1\.\.1024, got {n}$"):
                build(n, 1, 0)
        if n >= 0:
            with pytest.raises(ValueError, match=rf"^qubit count must be in 1\.\.1024, got {n}$"):
                KeyRegister.of([(1, 1)] * n)

    def test_accepts_every_register_that_fits(self):
        assert KeyRegister(1024, (1 << 1024) - 1, 0).mask.n == 1024
        for x in range(4):
            for z in range(4):
                keys = KeyRegister(2, x, z)
                assert (keys.n, keys.x, keys.z) == (2, x, z)
                assert keys.mask == PauliOperator(2, x, z, 0)

    @pytest.mark.parametrize("pairs", [[(2, 0), (1, 5)], [(1, 0), (0, -1)], [(3, 1)]])
    def test_of_refuses_a_key_bit_other_than_0_or_1(self, pairs):
        # once read by their low bit: (2, 0), (1, 5) gave KeyRegister(n=2, x=2, z=2)
        bad = next(b for pair in pairs for b in pair if b not in (0, 1))
        with pytest.raises(ValueError, match=rf"^key bit must be 0 or 1, got {bad}$"):
            KeyRegister.of(pairs)

    @pytest.mark.parametrize("a, b, bad", [(2, 0, 2), (0, 3, 3), (-1, 1, -1), (1, 1 << 64, 1 << 64)])
    def test_uniform_refuses_a_key_bit_other_than_0_or_1(self, a, b, bad):
        with pytest.raises(ValueError, match=rf"^key bit must be 0 or 1, got {bad}$"):
            KeyRegister.uniform(3, a, b)

    @pytest.mark.parametrize("bit", ["1", "0", 1.0, 0.0, np.float64(1.0), 1 + 0j, None])
    def test_a_key_bit_that_is_not_an_integer_is_a_type_error(self, bit):
        with pytest.raises(TypeError):
            KeyRegister.of([(bit, 0)])
        with pytest.raises(TypeError):
            KeyRegister.uniform(2, 0, bit)

    def test_integer_and_boolean_key_bits_are_read_as_ints(self):
        for a, b in [(True, False), (np.int64(1), np.uint8(0)), (np.bool_(False), np.bool_(True))]:
            want = (int(a), int(b))
            assert KeyRegister.of([(a, b)] * 2) == KeyRegister(2, 0b11 * want[0], 0b11 * want[1])
            assert KeyRegister.uniform(2, a, b) == KeyRegister(2, 0b11 * want[0], 0b11 * want[1])
            assert all(type(v) is int for v in KeyRegister.uniform(2, a, b))

    def test_replace_and_make_are_checked(self):
        keys = KeyRegister.of([(1, 0), (0, 1)])
        assert keys._replace(z=0b11) == KeyRegister(2, 0b01, 0b11)
        with pytest.raises(ValueError, match="out of range for qubits 1\\.\\.2$"):
            keys._replace(x=0b100)
        with pytest.raises(ValueError, match="out of range for qubits 1\\.\\.1$"):
            keys._replace(n=1)
        with pytest.raises(ValueError, match="^qubit count must be in 1\\.\\.1024, got 0$"):
            KeyRegister._make((0, 0, 0))

    def test_a_register_wider_than_its_state_is_refused_when_built(self):
        # x = 0b11 keys a second qubit that the register lacks; run through
        # run_circuit, its correction would put the state on keys 2 and 3
        psi = random_state(1, SplitMix64(4))
        with pytest.raises(ValueError, match="^key bits x=0x3, z=0x0 out of range for qubits 1\\.\\.1$"):
            k = KeyRegister(1, 0b11, 0)
            run_circuit(encrypt(psi, k), parse_circuit("T1"), k, SplitMix64(1))


class TestKeyUpdates:
    def test_h_swaps(self):
        keys = KeyRegister.of([(1, 0), (0, 1)])
        out = clifford_key_update(CircuitGate("H", (1,)), keys)
        assert out.as_lists() == [[0, 1], [0, 1]]

    def test_s_folds(self):
        keys = KeyRegister.of([(1, 1)])
        out = clifford_key_update(CircuitGate("S", (1,)), keys)
        assert out.as_lists() == [[1, 0]]
        assert clifford_key_update(CircuitGate("S", (1,)), KeyRegister.of([(0, 0)])).as_lists() == [[0, 0]]

    def test_x_z_identity(self):
        keys = KeyRegister.of([(1, 1)])
        for kind in ("X", "Z"):
            assert clifford_key_update(CircuitGate(kind, (1,)), keys).as_lists() == keys.as_lists()

    def test_cnot_rule(self):
        keys = KeyRegister.of([(1, 1), (0, 1)])
        out = clifford_key_update(CircuitGate("CNOT", (1, 2)), keys)
        assert out.as_lists() == [[1, 0], [1, 1]]

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            clifford_key_update(CircuitGate("T", (1,)), KeyRegister.of([(0, 0)]))

    def test_sd_matrix_identity(self):
        # Sd X^a Z^b Sd^dag == lambda * X^a Z^(a^b): the key rule of S
        sd = DENSE_1Q["Sd"]
        for a in (0, 1):
            for b in (0, 1):
                a2, b2 = clifford_key_update(CircuitGate("Sd", (1,)), KeyRegister.of([(a, b)])).pair(1)
                assert (a2, b2) == (a, a ^ b)
                mask = np.linalg.matrix_power(DENSE_1Q["X"], a) @ np.linalg.matrix_power(DENSE_1Q["Z"], b)
                lhs = sd @ mask @ sd.conj().T
                rhs = np.linalg.matrix_power(DENSE_1Q["X"], a) @ np.linalg.matrix_power(DENSE_1Q["Z"], a ^ b)
                idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                lam = lhs[idx] / rhs[idx]
                assert abs(abs(lam) - 1) < 1e-12
                assert np.abs(lhs - lam * rhs).max() < 1e-12

    @pytest.mark.parametrize("kind", ["X", "Z", "H", "S"])
    def test_single_qubit_matrix_identity(self, kind):
        # G X^a Z^b == lambda * X^a' Z^b' G exactly, |lambda| = 1
        g = DENSE_1Q[kind]
        for a in (0, 1):
            for b in (0, 1):
                keys = KeyRegister.of([(a, b)])
                a2, b2 = clifford_key_update(CircuitGate(kind, (1,)), keys).pair(1)
                lhs = g @ np.linalg.matrix_power(DENSE_1Q["X"], a) @ np.linalg.matrix_power(DENSE_1Q["Z"], b)
                rhs = np.linalg.matrix_power(DENSE_1Q["X"], a2) @ np.linalg.matrix_power(DENSE_1Q["Z"], b2) @ g
                # solve lhs = lambda * rhs
                idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                lam = lhs[idx] / rhs[idx]
                assert abs(abs(lam) - 1) < 1e-12
                assert np.abs(lhs - lam * rhs).max() < 1e-12

    def test_cnot_matrix_identity(self):
        cnot = dense_cnot(1, 2, 2)
        x1 = op_on(DENSE_1Q["X"], 1, 2)
        z1 = op_on(DENSE_1Q["Z"], 1, 2)
        x2 = op_on(DENSE_1Q["X"], 2, 2)
        z2 = op_on(DENSE_1Q["Z"], 2, 2)
        for ai in (0, 1):
            for bi in (0, 1):
                for aj in (0, 1):
                    for bj in (0, 1):
                        keys = KeyRegister.of([(ai, bi), (aj, bj)])
                        upd = clifford_key_update(CircuitGate("CNOT", (1, 2)), keys)
                        (ai2, bi2), (aj2, bj2) = upd.as_lists()
                        mask_in = (
                            np.linalg.matrix_power(x1, ai) @ np.linalg.matrix_power(z1, bi)
                            @ np.linalg.matrix_power(x2, aj) @ np.linalg.matrix_power(z2, bj)
                        )
                        mask_out = (
                            np.linalg.matrix_power(x1, ai2) @ np.linalg.matrix_power(z1, bi2)
                            @ np.linalg.matrix_power(x2, aj2) @ np.linalg.matrix_power(z2, bj2)
                        )
                        lhs = cnot @ mask_in
                        rhs = mask_out @ cnot
                        idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                        lam = lhs[idx] / rhs[idx]
                        assert abs(abs(lam) - 1) < 1e-12
                        assert np.abs(lhs - lam * rhs).max() < 1e-12

    def test_mask_rules_on_three_qubits(self):
        # every Clifford kind on every qubit and ordered qubit pair of a
        # 3-qubit register, under all 64 keys: the mask rule equals the pair
        # rule, and G mask G^dag is proportional to the updated mask
        mp = np.linalg.matrix_power
        x, z = DENSE_1Q["X"], DENSE_1Q["Z"]

        def dense_mask(pairs):
            return np.linalg.multi_dot([op_on(mp(x, a) @ mp(z, b), q, 3)
                                        for q, (a, b) in enumerate(pairs, 1)])

        gates = [CircuitGate(kind, (q,)) for kind in ("X", "Z", "H", "S", "Sd") for q in (1, 2, 3)]
        gates += [CircuitGate("CNOT", (c, t)) for c in (1, 2, 3) for t in (1, 2, 3) if c != t]
        assert CircuitGate("CNOT", (3, 1)) in gates
        for g in gates:
            gm = dense_circuit([g], 3)
            for bits in range(64):
                pairs = [(bits >> 2 * q & 1, bits >> 2 * q + 1 & 1) for q in range(3)]
                want = list(pairs)
                for q, new in zip(g.qubits, pair_key_rule(g.kind, [pairs[q - 1] for q in g.qubits])):
                    want[q - 1] = new
                keys = KeyRegister.of(pairs)
                out = clifford_key_update(g, keys)
                assert out.as_lists() == [list(p) for p in want], (g, pairs)
                assert np.array_equal(dense_pauli(keys.mask), dense_mask(pairs))
                lhs = gm @ dense_mask(pairs) @ gm.conj().T
                rhs = dense_pauli(out.mask)
                idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                lam = lhs[idx] / rhs[idx]
                assert abs(abs(lam) - 1) < 1e-12
                assert np.abs(lhs - lam * rhs).max() < 1e-12, (g, pairs)

    def test_t_byproduct_matrix_relation(self):
        # T X^a Z^b == lambda * R^dag X^a Z^(a^b) T, where R is the rotation
        # that run_circuit measures the gadget's Bell pair in for key bit a,
        # as its transcript names it: S^a for T, Sd^a for Td
        mp = np.linalg.matrix_power
        x, z = DENSE_1Q["X"], DENSE_1Q["Z"]
        for kind, base in (("T", "S"), ("Td", "Sd")):
            gm = DENSE_1Q[kind]
            for a in (0, 1):
                keys = KeyRegister.of([(a, 0)])
                run = run_circuit(basis_state(1, 0), [CircuitGate(kind, (1,))], keys, SplitMix64(0),
                                  transcript=Transcript())
                (label,) = [ev["rotation"] for ev in run.transcript.events if ev["kind"] == "measurement"]
                assert label == f"{base}^{a}"
                r_dag = mp(DENSE_1Q[base], a).conj().T
                for b in (0, 1):
                    lhs = gm @ mp(x, a) @ mp(z, b)
                    rhs = r_dag @ mp(x, a) @ mp(z, a ^ b) @ gm
                    idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                    lam = lhs[idx] / rhs[idx]
                    assert abs(abs(lam) - 1) < 1e-12
                    assert np.abs(lhs - lam * rhs).max() < 1e-12


class TestCircuitText:
    def test_parse_tokens(self):
        circ = parse_circuit("H1 T1 Td2 S2 CX1,2")
        assert [g.kind for g in circ] == ["H", "T", "Td", "S", "CNOT"]
        assert circ[-1].qubits == (1, 2)

    def test_sd_round_trip(self):
        text = "Sd1 T2 Sd2 CX2,1 S1"
        circ = parse_circuit(text)
        assert [g.kind for g in circ] == ["Sd", "T", "Sd", "CNOT", "S"]
        assert [g.qubits for g in circ] == [(1,), (2,), (2,), (2, 1), (1,)]
        assert circ[0].is_clifford

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_circuit("Q1")
        with pytest.raises(ValueError):
            parse_circuit("CX1")
        with pytest.raises(ValueError):
            parse_circuit("H1,2")
        with pytest.raises(ValueError, match="numbered from 1"):
            parse_circuit("T0")
        with pytest.raises(ValueError, match="numbered from 1"):
            parse_circuit("H1 CX0,1")

    @pytest.mark.parametrize("kind, qubits, message", [
        ("Q", (1,), "unknown gate kind 'Q'"),
        ("CNOT", (1,), r"CNOT takes 2 qubit\(s\)"),
        ("T", (0,), r"T qubits are numbered from 1, got \(0,\)"),
        ("CNOT", (2, 2), "CNOT qubits must be distinct"),
        ("H", (1.5,), r"H qubits must be integers, got \(1\.5,\)"),
        ("H", (1.0,), r"H qubits must be integers, got \(1\.0,\)"),
        ("H", ("1",), r"H qubits must be integers, got \('1',\)"),
        ("H", 1, "H qubits must be integers, got 1"),
    ])
    def test_gate_record_rejects(self, kind, qubits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CircuitGate(kind, qubits)

    def test_gate_record_replace_goes_through_the_checks(self):
        g = CircuitGate("H", (1,))
        with pytest.raises(ValueError, match="^unknown gate kind 'Q'$"):
            g._replace(kind="Q")
        with pytest.raises(ValueError, match=r"^CNOT takes 2 qubit\(s\)$"):
            CircuitGate._make(("CNOT", (1,)))
        assert g._replace(kind="T") == CircuitGate("T", (1,))

    def test_gate_record_value(self):
        g = CircuitGate("CNOT", (1, 2))
        assert g == CircuitGate("CNOT", (1, 2)) and hash(g) == hash(CircuitGate("CNOT", (1, 2)))
        assert (g.kind, g.qubits) == ("CNOT", (1, 2))
        assert repr(g) == "CircuitGate(kind='CNOT', qubits=(1, 2))"
        # qubits are stored as a tuple of ints, whatever sequence of integers holds them
        for qubits in ([1, 2], (np.int64(1), np.int64(2))):
            same = CircuitGate("CNOT", qubits)
            assert same == g and hash(same) == hash(g) and type(same.qubits[0]) is int


class TestRunCircuit:
    """Encrypted evaluation and decryption through run_circuit: the final
    state against the dense circuit, the forced-outcome and range checks,
    the transcript's Bell pairs and the peaks, and a wrong key-update
    reading against the dense gadget branches."""

    def test_empty_circuit(self):
        psi = random_state(2, SplitMix64(5))
        keys = KeyRegister.of([(1, 0), (0, 1)])
        run = run_circuit(encrypt(psi, keys), [], keys, SplitMix64(6), transcript=Transcript())
        assert [e["kind"] for e in run.transcript.events] == ["final_keys", "final_correction"]
        assert fidelity_up_to_phase(run.state, psi) > 1 - 1e-12

    def test_single_t_plus_state(self):
        plus = apply_single(basis_state(1, 0), gate("H"), 1)
        keys = KeyRegister.of([(0, 0)])
        run = run_circuit(encrypt(plus, keys), [CircuitGate("T", (1,))], keys, SplitMix64(8))
        want = apply_single(plus, gate("T"), 1)
        assert fidelity_up_to_phase(run.state, want) > 1 - 1e-12

    @pytest.mark.parametrize("kind", ["T", "Td"])
    def test_single_t_all_keys_and_outcomes(self, kind):
        # 4 keys x 4 forced outcomes against the dense expectation
        psi = random_state(1, SplitMix64(77))
        want = op_on(DENSE_1Q[kind], 1, 1) @ dense_of(psi)
        for a in (0, 1):
            for b in (0, 1):
                for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    keys = KeyRegister.of([(a, b)])
                    run = run_circuit(encrypt(psi, keys), [CircuitGate(kind, (1,))], keys,
                                      SplitMix64(0), forced_outcomes=[outcome])
                    got = dense_of(run.state)
                    overlap = abs(np.vdot(want, got))
                    assert overlap > 1 - 1e-12

    def test_too_few_forced_outcomes(self):
        psi = random_state(1, SplitMix64(3))
        keys = KeyRegister.of([(0, 0)])
        circuit = [CircuitGate("T", (1,)), CircuitGate("Td", (1,))]
        with pytest.raises(ValueError, match="^circuit needs 2 forced outcome pairs, got 1$"):
            run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(0), forced_outcomes=[(0, 0)])

    def test_too_many_forced_outcomes(self):
        psi = random_state(1, SplitMix64(3))
        keys = KeyRegister.of([(0, 0)])
        with pytest.raises(ValueError, match="^circuit needs 1 forced outcome pairs, got 3$"):
            run_circuit(encrypt(psi, keys), [CircuitGate("T", (1,))], keys, SplitMix64(0),
                        forced_outcomes=[(0, 0), (1, 1), (0, 1)])

    @pytest.mark.parametrize("run", [run_circuit, per_gate_exponent_run])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_forced_count_checked_before_any_gate(self, monkeypatch, run, count):
        def no_gadget(*args, **kwargs):
            raise AssertionError("a T gadget ran before the forced-outcome count check")

        monkeypatch.setattr(protocol, "apply_monomial", no_gadget)
        monkeypatch.setattr(states.MonomialLayer, "gadget", no_gadget)
        monkeypatch.setattr(oracles._ExponentChain, "gadget", no_gadget)
        psi = random_state(2, SplitMix64(3))
        keys = KeyRegister.of([(1, 0), (0, 1)])
        circuit = [CircuitGate("T", (1,)), CircuitGate("H", (2,)), CircuitGate("Td", (2,))]
        with pytest.raises(ValueError, match=f"^circuit needs 2 forced outcome pairs, got {count}$"):
            run(encrypt(psi, keys), circuit, keys, SplitMix64(0), forced_outcomes=[(0, 1)] * count)

    def test_qubit_range_checked_before_any_gate(self, monkeypatch):
        def no_gadget(*args, **kwargs):
            raise AssertionError("a gate ran before the qubit range check")

        class NoDraw:
            def __getattr__(self, name):
                raise AssertionError(f"the generator was read ({name}) before the qubit range check")

        monkeypatch.setattr(protocol, "apply_monomial", no_gadget)
        monkeypatch.setattr(protocol, "apply_plain_circuit", no_gadget)
        monkeypatch.setattr(states.MonomialLayer, "gadget", no_gadget)
        psi = random_state(2, SplitMix64(3))
        keys = KeyRegister.of([(1, 0), (0, 1)])
        for forced in (None, [(0, 1), (1, 0)]):
            with pytest.raises(ValueError, match="^qubit 3 out of range 1..2$"):
                run_circuit(encrypt(psi, keys), parse_circuit("T1 H2 T3"), keys, NoDraw(), forced)

    @pytest.mark.parametrize("kind,qubit", [("S", 0), ("Sd", 3), ("Z", 3)])
    def test_deferred_gate_qubit_range(self, kind, qubit):
        # a deferred phase gate is range-checked when it is read, not when
        # its layer is flushed; CircuitGate itself refuses qubit 0
        psi = random_state(2, SplitMix64(3))
        keys = KeyRegister.of([(0, 1), (1, 0)])
        bad = SimpleNamespace(kind=kind, qubits=(qubit,), is_clifford=True)
        circuit = [CircuitGate("S", (1,)), bad, CircuitGate("H", (2,))]
        with pytest.raises(ValueError, match=f"^qubit {qubit} out of range 1..2$"):
            run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(0))

    def test_phase_and_t_gates_skip_apply_single(self, monkeypatch):
        circuit = parse_circuit("S1 Z2 Sd1 T1 X2 Td2 H1 S2 CX1,2 Z1 Sd2")
        psi = random_state(2, SplitMix64(9))
        want = apply_plain_circuit(psi, circuit)
        applied = []

        def spy(state, g, qubit):
            applied.append(g.label)
            return apply_single(state, g, qubit)

        monkeypatch.setattr(protocol, "apply_single", spy)
        keys = KeyRegister.of([(1, 1), (0, 1)])
        run = run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(10))
        assert applied == ["X", "H"]
        assert fidelity_up_to_phase(run.state, want) > 1 - 1e-12

    def test_key_length_mismatch(self):
        psi = random_state(1, SplitMix64(3))
        with pytest.raises(ValueError, match="key register length"):
            run_circuit(psi, [], KeyRegister.of([(0, 0), (1, 1)]), SplitMix64(0))

    def test_sink_keeps_its_events(self):
        # a sink that already holds events gets the run's events after them
        psi = random_state(2, SplitMix64(12))
        keys = KeyRegister.of([(1, 1), (0, 1)])
        circuit = parse_circuit("H1 T1 Td2 S2")
        earlier = [{"kind": "note", "text": "before the run"}]
        sink = Transcript(list(earlier))
        run = run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(13), transcript=sink)
        alone = run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(13), transcript=Transcript())
        assert run.transcript is sink
        assert sink.events == earlier + alone.transcript.events
        assert len(alone.transcript.events) > 0

    def test_t_runners_pass_no_sink(self, monkeypatch):
        sinks, inner_run = [], protocol.run_circuit

        def spy(enc_state, circuit, keys, rng, forced_outcomes=None, transcript=None):
            sinks.append(transcript)
            return inner_run(enc_state, circuit, keys, rng, forced_outcomes, transcript)

        monkeypatch.setattr(protocol, "run_circuit", spy)
        run_transversal_t_protocol((0.6, 0.8j), (1, 1), SplitMix64(3))
        run_logical_t_protocol((0.6, 0.8j), (1, 0), SplitMix64(3))
        assert sinks == [None, None]
        run_demo_circuit(SplitMix64(5))
        assert len(sinks) == 3 and isinstance(sinks[2], Transcript) and sinks[2].events

    def test_transcript_bell_count_matches_t_count(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            circuit = _random_circuit(rng, n)
            n_t = sum(1 for g in circuit if g.kind in ("T", "Td"))
            psi = random_state(n, SplitMix64(int(rng.integers(0, 2**32))))
            keys = KeyRegister.random(n, SplitMix64(int(rng.integers(0, 2**32))))
            run = run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(1), transcript=Transcript())
            assert sum(ev["kind"] == "bell_consumed" for ev in run.transcript.events) == n_t
            assert len(run.outcomes) == n_t
            assert run.max_live_qubits == n + 2 * (n_t > 0)

    def test_round_trip_randomized_circuits(self):
        # >= 200 seeded trials: <= 12 gates, <= 3 T/Td, on <= 3 qubits
        rng = np.random.default_rng(1234)
        worst = 1.0
        for trial in range(200):
            n = int(rng.integers(1, 4))
            circuit = _random_circuit(rng, n)
            psi = random_state(n, SplitMix64(trial))
            keys = KeyRegister.random(n, SplitMix64(trial + 10_000))
            run = run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(trial + 20_000))
            want = dense_circuit(circuit, n) @ dense_of(psi)
            fid = abs(np.vdot(want, dense_of(run.state)))
            worst = min(worst, fid)
        assert worst >= 1 - 1e-10

    def test_wrong_key_update_reading_fails(self):
        # the documented negative test: folding the POST-measurement a into
        # b's update breaks the single-T round trip on outcome r_a = 1
        psi = random_state(1, SplitMix64(55))
        a, b = 1, 0
        keys = KeyRegister.of([(a, b)])
        enc = encrypt(psi, keys)
        forced = (1, 0)

        # correct reading recovers T|psi>
        run = run_circuit(enc, [CircuitGate("T", (1,))], keys, SplitMix64(0), forced_outcomes=[forced])
        want = apply_single(psi, gate("T"), 1)
        assert fidelity_up_to_phase(run.state, want) > 1 - 1e-12

        # wrong reading: b <- b ^ (a_post ^ r_b) with a_post = a ^ r_a, on
        # the dense gadget branch of the forced outcome, measured in S^a
        branch = dense_gadget_branches(dense_of(enc), 1, 1, DENSE_1Q["S"], 1)[BELL_OUTCOMES.index(forced)]
        r_a, r_b = forced
        a_post = a ^ r_a
        b_wrong = b ^ (a_post ^ r_b)
        dec_bad = dense_pauli(KeyRegister.of([(a_post, b_wrong)]).mask.adjoint()) @ branch
        assert abs(np.vdot(dense_of(want), dec_bad)) / np.linalg.norm(dec_bad) < 1 - 1e-3

    def test_hundred_t_gates_on_two_qubits(self):
        # 100 T/Td gates mixed with H and CNOT: each gadget stands for the
        # data plus one pair, so the peaks stay at 4 qubits and 16 terms
        rng = np.random.default_rng(100)
        circuit = []
        for _ in range(100):
            circuit.append(CircuitGate(str(rng.choice(["T", "Td"])), (int(rng.integers(1, 3)),)))
            roll = rng.random()
            if roll < 0.4:
                circuit.append(CircuitGate("H", (int(rng.integers(1, 3)),)))
            elif roll < 0.6:
                circuit.append(CircuitGate("CNOT", tuple(int(q) for q in rng.permutation([1, 2]))))
        psi = random_state(2, SplitMix64(1))
        keys = KeyRegister.random(2, SplitMix64(2))
        run = run_circuit(encrypt(psi, keys), circuit, keys, SplitMix64(3))
        assert len(run.outcomes) == 100
        assert run.max_live_qubits == 4
        assert run.max_terms <= 16
        assert fidelity_up_to_phase(run.state, apply_plain_circuit(psi, circuit)) >= 1 - 1e-10


@st.composite
def diagonal_run_circuits(draw):
    """(n, circuit): runs of up to ten Z, S and Sd gates on random qubits,
    each followed by one other Clifford+T gate, and a last run."""
    n = draw(st.integers(1, 3), label="n")
    qubit = st.integers(1, n)
    diagonal_run = st.lists(st.tuples(st.sampled_from(["Z", "S", "Sd"]), qubit), max_size=10)
    circuit = []
    for _ in range(draw(st.integers(0, 6), label="segments")):
        circuit += [CircuitGate(kind, (q,)) for kind, q in draw(diagonal_run)]
        kind = draw(st.sampled_from(["X", "H", "T", "Td"] + ["CNOT"] * (n >= 2)))
        if kind == "CNOT":
            c = draw(qubit)
            t = draw(qubit.filter(lambda t: t != c))
            circuit.append(CircuitGate(kind, (c, t)))
        else:
            circuit.append(CircuitGate(kind, (draw(qubit),)))
    circuit += [CircuitGate(kind, (q,)) for kind, q in draw(diagonal_run)]
    return n, circuit


def _sparse_state(n, keys, rng):
    """A normalized state on the given keys, amplitudes drawn as random_state
    draws them."""
    amps = [complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in keys]
    return SparseState(n, sorted(keys), amps).normalized()


class TestPerGateReference:
    """run_circuit, with each run of Z/S/Sd gates and T gadgets as one
    monomial pass, is bit for bit per_gate_exponent_run, the gate-by-gate
    exact-exponent walk of tests/oracles.py, with a transcript sink and
    without one: final keys and amplitudes, outcomes, peaks and (with the
    sink) the transcript, with sampled and with forced outcomes,
    on dense and on sparse support (where an X, H or CNOT moves the keys)
    and beyond 64 qubits."""

    @staticmethod
    def _assert_same(enc, circuit, keys, seed, forced):
        want = per_gate_exponent_run(enc, circuit, keys, SplitMix64(seed), forced)
        sink = Transcript()
        got = run_circuit(enc, circuit, keys, SplitMix64(seed), forced, sink)
        bare = run_circuit(enc, circuit, keys, SplitMix64(seed), forced)
        for run in (got, bare):
            assert state_bytes(run.state) == state_bytes(want.state)
            assert run.keys == want.keys
            assert run.outcomes == want.outcomes
            assert (run.max_live_qubits, run.max_terms) == (want.max_live_qubits, want.max_terms)
        assert got.transcript is sink
        assert got.transcript.events == want.transcript.events
        assert bare.transcript is None
        return got

    @given(diagonal_run_circuits(), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_gate_loop(self, n_circuit, seed, force, data):
        n, circuit = n_circuit
        n_t = sum(g.kind in ("T", "Td") for g in circuit)
        forced = None
        if force:
            forced = data.draw(st.lists(st.sampled_from(BELL_OUTCOMES), min_size=n_t, max_size=n_t))
        if data.draw(st.booleans(), label="sparse support"):
            support = st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=max(1, (1 << n) // 2))
            psi = _sparse_state(n, data.draw(support, label="keys"), SplitMix64(seed))
        else:
            psi = random_state(n, SplitMix64(seed))
        keys = KeyRegister.random(n, SplitMix64(seed + 1))
        self._assert_same(encrypt(psi, keys), circuit, keys, seed + 2, forced)

    @pytest.mark.parametrize("force", [False, True])
    def test_seventy_qubits(self, force):
        # gates on both sides of the 64-bit word edge, on a 4-term register
        n = 70
        circuit = parse_circuit("H1 CX1,64 T64 H65 Td65 CX65,70 Sd70 T70 X64 T1 CX70,1 Td1 H70 T70")
        for seed in range(5):
            draws = SplitMix64(seed)
            support = {sum((draws.next_u64() & 1) << q for q in range(n)) for _ in range(4)}
            psi = _sparse_state(n, support, draws)
            keys = KeyRegister.random(n, SplitMix64(seed + 1))
            forced = [BELL_OUTCOMES[(seed + i) % 4] for i in range(6)] if force else None
            run = self._assert_same(encrypt(psi, keys), circuit, keys, seed + 2, forced)
            assert fidelity_up_to_phase(run.state, apply_plain_circuit(psi, circuit)) >= 1 - 1e-10


def _random_circuit(rng, n, max_gates=12, max_t=3):
    kinds = ["X", "Z", "H", "S", "Sd"]
    circuit = []
    n_t = 0
    for _ in range(int(rng.integers(0, max_gates + 1))):
        roll = rng.random()
        if roll < 0.25 and n_t < max_t:
            circuit.append(CircuitGate(str(rng.choice(["T", "Td"])), (int(rng.integers(1, n + 1)),)))
            n_t += 1
        elif roll < 0.4 and n >= 2:
            c, t = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
            circuit.append(CircuitGate("CNOT", (int(c), int(t))))
        else:
            circuit.append(CircuitGate(str(rng.choice(kinds)), (int(rng.integers(1, n + 1)),)))
    return circuit


class TestDemoCircuit:
    def test_fidelity_random_runs(self):
        for seed in range(25):
            rep, dec, expected = run_demo_circuit(SplitMix64(seed))
            assert rep.fidelity > 1 - 1e-10

    def test_documented_trace(self):
        # keys (1,0) and (0,1), forced outcomes (1,0) then (0,1); key values
        # derived by hand from the update rules
        keys = KeyRegister.of([(1, 0), (0, 1)])
        rep, dec, expected = run_demo_circuit(
            SplitMix64(99), keys=keys, forced_outcomes=[(1, 0), (0, 1)]
        )
        assert rep.fidelity > 1 - 1e-10
        ev = rep.transcript.events
        kinds = [(e["kind"], e.get("gate")) for e in ev]
        assert kinds == [
            ("gate", "H"),
            ("gate", "T"), ("bell_consumed", None), ("swap", None),
            ("gate", "Td"), ("bell_consumed", None), ("swap", None),
            ("gate", "S"),
            ("key_update", None),            # H on qubit 1
            ("measurement", None), ("key_update", None),  # T pair
            ("measurement", None), ("key_update", None),  # Td pair
            ("key_update", None),            # S on qubit 2
            ("final_keys", None), ("final_correction", None),
        ]
        upd = [e for e in ev if e["kind"] == "key_update"]
        assert upd[0] == {"kind": "key_update", "qubit": 1, "old": [1, 0], "new": [0, 1]}
        assert upd[1] == {"kind": "key_update", "qubit": 1, "old": [0, 1], "new": [1, 1]}
        assert upd[2] == {"kind": "key_update", "qubit": 2, "old": [0, 1], "new": [0, 0]}
        assert upd[3] == {"kind": "key_update", "qubit": 2, "old": [0, 0], "new": [0, 0]}
        meas = [e for e in ev if e["kind"] == "measurement"]
        assert meas[0]["rotation"] == "S^0"
        assert meas[0]["outcome"] == [1, 0]
        assert meas[1]["rotation"] == "Sd^0"
        assert meas[1]["outcome"] == [0, 1]
        assert rep.keys_final == [[1, 1], [0, 0]]
        # pair positions recorded at append time
        bells = [e for e in ev if e["kind"] == "bell_consumed"]
        assert bells[0]["positions"] == [3, 4]
        assert bells[1]["positions"] == [5, 6]


class TestStorage:
    def test_bit_flip_example(self):
        rep = run_storage_protocol("bit_flip", (0.6, 0.8), (1, 0), parse_pauli("IXI"), SplitMix64(1))
        assert rep.syndrome == (1, 1)
        assert rep.correction == "IXI"
        assert rep.fidelity > 1 - 1e-10

    def test_shor_no_error(self):
        rep = run_storage_protocol("shor", (0.6, 0.8j), (1, 1), None, SplitMix64(1))
        assert rep.syndrome == (0,) * 8
        assert rep.fidelity > 1 - 1e-10

    def test_shor_degenerate_z(self):
        rep = run_storage_protocol("shor", (0.6, 0.8), (0, 1), parse_pauli("IIIIZIIII"), SplitMix64(1))
        assert rep.correction == "IIIZIIIII"  # block representative
        assert rep.fidelity > 1 - 1e-10

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the X < Y < Z tie-break answers Z1 on phase_flip "
                                           "with Y1, which leaves a logical error (fidelity 0.28)")
    def test_phase_flip_corrects_a_phase_flip(self):
        rep = run_storage_protocol("phase_flip", (0.6, 0.8), (0, 0), "ZII")
        assert rep.correction == "ZII"
        assert rep.fidelity > 1 - 1e-10

    def test_incompatible_code_refused(self):
        with pytest.raises(IncompatibleCodeError, match="ZZZ"):
            run_storage_protocol("synthetic_incompatible", (1, 0), (0, 0), None, SplitMix64(1))

    def test_full_grid(self):
        # every compatible key/error combination for both storage codes
        cases = []
        for a in (0, 1):
            for b in (0, 1):
                cases.append(("bit_flip", (a, b), None))
                for q in range(3):
                    cases.append(("bit_flip", (a, b), "".join("X" if i == q else "I" for i in range(3))))
                cases.append(("shor", (a, b), None))
                for q in range(9):
                    for kind in "XZ":
                        cases.append(("shor", (a, b), "".join(kind if i == q else "I" for i in range(9))))
        assert len(cases) <= 200
        for name, key, err in cases:
            rep = run_storage_protocol(name, (0.48 + 0.36j, 0.8), key, err, SplitMix64(11))
            assert rep.fidelity >= 1 - 1e-10, (name, key, err)

    # correctable single errors per code under the X<Y<Z decoder tie-break
    @pytest.mark.parametrize(
        "name,kinds",
        [
            ("bit_flip", "X"),
            ("phase_flip", "Y"),
            ("shor", "XYZ"),
            ("steane", "XYZ"),
            ("rm15", "XYZ"),
        ],
    )
    def test_all_compatible_codes_round_trip(self, name, kinds):
        # against oracles.keyed_storage (a per-qubit KeyRegister, one
        # image_apply_pauli pass per Pauli, pair_mask and the signed-weight
        # readout): the same final keys and amplitudes bit for bit, and the
        # same report
        n = builtin_code(name).n
        errors = [None] + [PauliOperator.single(n, q, k) for q in range(1, n + 1) for k in kinds]
        for amps in ((0.6, 0.8j), (1.5 - 2j, 0.25j)):
            for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
                for err in errors:
                    rep = run_storage_protocol(name, amps, key, err, SplitMix64(2))
                    assert rep.fidelity >= 1 - 1e-10, (name, key, err)
                    want = oracles.keyed_storage(name, amps, key, err)
                    assert state_bytes(rep.final_state) == state_bytes(want.final_state), (name, key, err)
                    assert rep.as_dict() == want.as_dict(), (name, key, err)


class TestStorageInputs:
    @pytest.mark.parametrize("name, run", [
        ("bit_flip", lambda key: run_storage_protocol("bit_flip", (0.6, 0.8), key, "IXI")),
        ("rm15", lambda key: run_transversal_t_protocol((0.6, 0.8j), key, SplitMix64(1))),
        ("shor", lambda key: run_logical_t_protocol((0.6, 0.8j), key, SplitMix64(1))),
    ], ids=["storage", "transversal-t", "logical-t"])
    def test_reports_the_key_bits_it_used(self, name, run):
        # every runner reports the key it was given and names its code; a key
        # entry other than 0 or 1 is refused, not cut to its low bit
        rep = run((1, 0))
        assert rep.keys == (1, 0) and rep.as_dict()["keys"] == [1, 0]
        assert rep.as_dict()["code"] == rep.code_name == name
        with pytest.raises(ValueError, match="^key bit must be 0 or 1, got 3$"):
            run((3, 2))

    @pytest.mark.parametrize("key, error", [
        ((2, 3), ValueError), ((0, 2), ValueError), ((3, -1), ValueError), ((-1, 0), ValueError),
        (("1", "0"), TypeError), ((1.0, 0), TypeError), ((0, 0.5), TypeError),
    ])
    @pytest.mark.parametrize("run", [
        lambda key: run_storage_protocol("steane", (0.6, 0.8), key),
        lambda key: run_transversal_t_protocol((0.6, 0.8), key, SplitMix64(1)),
        lambda key: run_logical_t_protocol((0.6, 0.8), key, SplitMix64(1)),
    ], ids=["storage", "transversal-t", "logical-t"])
    def test_refuses_a_key_it_cannot_report(self, run, key, error):
        # a key (2, 3) once ran and reported (0, 1): the keys the caller gave are not the ones used
        with pytest.raises(error):
            run(key)

    @pytest.mark.parametrize("key", [(1,), (1, 0, 1)], ids=["short", "long"])
    @pytest.mark.parametrize("run", [
        lambda key: run_storage_protocol("shor", (0.6, 0.8), key),
        lambda key: run_transversal_t_protocol((0.6, 0.8j), key, SplitMix64(1)),
        lambda key: run_logical_t_protocol((0.6, 0.8j), key, SplitMix64(1)),
    ], ids=["storage", "transversal-t", "logical-t"])
    def test_key_must_be_a_pair(self, run, key):
        # neither an IndexError nor a key silently cut to its first two bits
        with pytest.raises(ValueError, match="values to unpack"):
            run(key)

    @pytest.mark.parametrize("amps", [(1e308, 1e308), (1e-320, 0), (-1e-300j, 1e-300)])
    def test_extreme_amplitudes_recover(self, amps):
        rep = run_storage_protocol("bit_flip", amps, (1, 1), "IXI")
        assert rep.recovered and rep.syndrome == (1, 1)
        c0, c1 = states.unit_amplitudes(amps)
        zero, one = cached_code_space("bit_flip").basis
        assert fidelity_up_to_phase(rep.final_state, combine([zero, one], [c0, c1])) >= 1 - 1e-10

    @pytest.mark.parametrize("error", ["XX", parse_pauli("X" * 16)])
    def test_error_of_another_size_is_refused_by_syndrome(self, error):
        width = len(str(error))
        with pytest.raises(ValueError, match=rf"^error acts on {width} qubits, code has 15$"):
            run_storage_protocol("rm15", (0.6, 0.8), (1, 1), error)
        with pytest.raises(ValueError, match=rf"^error acts on {width} qubits, code has 15$"):
            syndrome(builtin_code("rm15"), parse_pauli(str(error)))

    @pytest.mark.parametrize("amps", [(float("nan"), 1), (float("inf"), 0), (0, 0)])
    def test_bad_amplitudes_raise(self, amps):
        with pytest.raises(ValueError, match="^amplitudes must be finite and not all zero$"):
            run_storage_protocol("bit_flip", amps, (0, 0), None)

    @pytest.mark.parametrize("amps", [(0.6, 0.8, 0.0), (1.0,)], ids=["three", "one"])
    @pytest.mark.parametrize("run", [
        lambda amps: run_storage_protocol("shor", amps, (0, 0)),
        lambda amps: run_transversal_t_protocol(amps, (0, 0), SplitMix64(1)),
        lambda amps: run_logical_t_protocol(amps, (0, 0), SplitMix64(1)),
    ], ids=["storage", "transversal-t", "logical-t"])
    def test_amplitudes_must_be_a_pair(self, run, amps):
        # neither a TypeError from the code space nor a missing c1
        with pytest.raises(ValueError, match=rf"^amplitudes must be a pair \(c0, c1\), got {len(amps)} values$"):
            run(amps)


class TestStoragePlan:
    """One cached plan per code: the mask check, code space and single-error
    table, read by one lookup per run; Pauli text formatted only when read."""

    COMPATIBLE = ("bit_flip", "phase_flip", "shor", "steane", "rm15")
    KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))
    # sha256 of the report lines below, generated before the report held
    # its error and correction as PauliOperators
    REPORT_DIGEST = "d81ba0edd69d40f2421686831368418f9beafb92d71e5bebac918574297df0b8"

    def test_no_pauli_text_until_read(self, monkeypatch):
        for name in self.COMPATIBLE:  # the mask check formats each generator once per code
            run_storage_protocol(name, (0.6, 0.8j), (0, 0))
        real, calls = PauliOperator.to_string, []

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(PauliOperator, "to_string", counted)
        reports = []
        for name in self.COMPATIBLE:
            n = builtin_code(name).n
            errors = [None] + [PauliOperator.single(n, q, k) for q in range(1, n + 1) for k in "XYZ"]
            reports += [run_storage_protocol(name, (0.6, 0.8j), key, err) for key in self.KEYS for err in errors]
        assert calls == []
        lines = [f"{rep.injected_error}|{rep.correction}|{json.dumps(rep.as_dict())}" for rep in reports]
        assert len(lines) == 464 and len(calls) == 4 * 464 - 2 * 5 * 4  # no text for a missing error
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.REPORT_DIGEST
        rep = reports[1]  # bit_flip, keys (0, 0), X on qubit 1
        assert (rep.injected_error, rep.correction) == ("XII", "XII")
        assert (rep.error_op, rep.correction_op) == (parse_pauli("XII"), parse_pauli("XII"))

    def test_second_run_adds_no_cache_entry(self):
        run_storage_protocol("steane", (0.6, 0.8), (0, 1), "XIIIIII")
        caches = (protocol._storage_plan, protocol.stabilizer_mask_check, protocol.logical_codewords)
        before = [c.cache_info() for c in caches]
        run_storage_protocol("steane", (0.6, 0.8j), (1, 1), "IIIIIIZ")
        after = [c.cache_info() for c in caches]
        assert after[0]._replace(hits=after[0].hits - 1) == before[0]
        assert after[1:] == before[1:]

    def test_plan_builds_the_single_error_table_once(self, monkeypatch):
        real, built = protocol._single_error_table, []

        def counted(code):
            built.append(code.name)
            return real(code)

        monkeypatch.setattr(protocol, "_single_error_table", counted)
        protocol._storage_plan.cache_clear()
        run_storage_protocol("steane", (0.6, 0.8), (0, 1), "XIIIIII")
        run_storage_protocol("steane", (0.6, 0.8j), (1, 1), "IIIIIIZ")
        assert built == ["steane"]

    def test_incompatible_code_caches_nothing(self):
        protocol._storage_plan.cache_clear()
        message = ("synthetic_incompatible is not mask-compatible: generator 1 (ZZZ) "
                   "anticommutes with a transversal mask component")
        hits = []
        for _ in range(2):
            with pytest.raises(IncompatibleCodeError) as info:
                run_storage_protocol("synthetic_incompatible", (1, 0), (0, 0))
            assert str(info.value) == message
            hits.append(protocol.stabilizer_mask_check.cache_info().hits)
        assert protocol._storage_plan.cache_info().currsize == 0
        # the second refusal reads the cached mask check: the traffic that keeps that cache
        assert hits[1] == hits[0] + 1

    @pytest.mark.parametrize("key", [(np.int64(1), np.int64(0)), (True, False), (np.bool_(True), np.int64(0))],
                             ids=["int64", "bool", "numpy-bool"])
    def test_keys_are_python_ints(self, key):
        rep = run_storage_protocol("shor", (0.6, 0.8), key, "IIIIZIIII")
        assert rep.keys == (1, 0) and all(type(k) is int for k in rep.keys)
        assert json.loads(json.dumps(rep.as_dict()))["keys"] == [1, 0]
        same = run_storage_protocol("shor", (0.6, 0.8), (1, 0), "IIIIZIIII")
        assert rep.as_dict() == same.as_dict()
        assert state_bytes(rep.final_state) == state_bytes(same.final_state)


class TestTransversalTPlan:
    def test_second_run_reuses_the_plan(self, monkeypatch):
        first = run_transversal_t_protocol((0.6, 0.8), (1, 1), SplitMix64(1))
        want = protocol.clifford_correction_for_t(logical_codewords(builtin_code("rm15"))).as_dict()
        before = protocol._transversal_t_plan.cache_info()

        def forbidden(*args):
            raise AssertionError("the runner searched for the T correction again")

        monkeypatch.setattr(protocol, "clifford_correction_for_t", forbidden)
        rep = run_transversal_t_protocol((0.6, 0.8j), (0, 1), SplitMix64(2))
        after = protocol._transversal_t_plan.cache_info()
        assert after._replace(hits=after.hits - 1) == before
        assert rep.correction == first.correction == want

    @pytest.mark.parametrize("name", ["shor", "steane"])
    def test_missing_correction_caches_nothing(self, name):
        before = protocol._transversal_t_plan.cache_info()
        for _ in range(2):
            with pytest.raises(ProtocolError, match=f"^no diagonal logical correction available for {name}$"):
                protocol._transversal_t_plan(builtin_code(name))
        after = protocol._transversal_t_plan.cache_info()
        assert after.currsize == before.currsize and after.misses == before.misses + 2


class TestOnePauliSweep:
    """Each runner applies its run of Paulis as one apply_paulis call."""

    @staticmethod
    def _count(monkeypatch):
        calls, real = [], states.apply_paulis

        def counted(state, paulis):
            calls.append(list(paulis))
            return real(state, paulis)

        def forbidden(*args):
            raise AssertionError("a runner called encrypt")

        # apply_pauli reaches apply_paulis through states, the runners through protocol
        monkeypatch.setattr(states, "apply_paulis", counted)
        monkeypatch.setattr(protocol, "apply_paulis", counted)
        monkeypatch.setattr(protocol, "encrypt", forbidden)
        return calls

    @pytest.mark.parametrize("name, err", [("bit_flip", None), ("steane", "IIYIIII"), ("rm15", "IIIIIIIIIIXIIII")])
    def test_storage(self, monkeypatch, name, err):
        run_storage_protocol(name, (0.6, 0.8j), (1, 1), err)  # fills the per-code caches
        calls = self._count(monkeypatch)
        for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
            calls.clear()
            rep = run_storage_protocol(name, (0.6, 0.8j), key, err)
            mask = KeyRegister.uniform(rep.final_state.n, *key).mask
            corr = mask.adjoint().multiply(parse_pauli(rep.correction))
            assert calls == [[mask] + ([] if err is None else [parse_pauli(err)]) + [corr]], (name, key)

    def test_logical_t(self, monkeypatch):
        run_logical_t_protocol((0.6, 0.8j), (1, 1), SplitMix64(1))
        calls = self._count(monkeypatch)
        code = builtin_code("shor")
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            calls.clear()
            run_logical_t_protocol((0.6, 0.8j), (a, b), SplitMix64(1))
            assert calls == [list(code.logical_z[:b] + code.logical_x[:a])], (a, b)


CHAIN8_TEXT = "8 1\n-ZZIIIIII\nIZZIIIII\nIIZZIIII\nIIIZZIII\nIIIIZZII\nIIIIIZZI\nIIIIIIZZ\nXXXXXXXX\nZIIIIIII\n"


class TestMeasuredSyndrome:
    @pytest.mark.parametrize("name", ["bit_flip", "phase_flip", "steane", "shor", "rm15", "chain8"])
    def test_every_weight_one_error(self, name):
        # Theorem 1 on states: every generator reads off the masked,
        # corrupted codeword exactly the bit that codes.syndrome gives the
        # error, which is what run_storage_protocol decodes
        code = parse_code_text(CHAIN8_TEXT, name) if name == "chain8" else builtin_code(name)
        n = code.n
        errors = [PauliOperator.identity(n)] + [
            PauliOperator.single(n, q, k) for q in range(1, n + 1) for k in "XYZ"
        ] + [parse_pauli("XX" + "I" * (n - 2)), parse_pauli("Z" + "I" * (n - 2) + "Y")]
        for a in (0, 1):
            for b in (0, 1):
                keys = KeyRegister.uniform(n, a, b)
                for basis_state in logical_codewords(code).basis:
                    masked = encrypt(basis_state, keys)
                    for err in errors:
                        terms = dict(apply_pauli(masked, err).items())
                        got = tuple(oracles.eigen_bit_terms(g, terms) for g in code.generators)
                        assert got == syndrome(code, err), (name, (a, b), err)


class TestTransversalT:
    def test_fidelity_and_accounting(self):
        rep = run_transversal_t_protocol((1 / np.sqrt(2), 1 / np.sqrt(2)), (1, 1), SplitMix64(21))
        assert rep.fidelity >= 1 - 1e-10
        assert rep.data_qubits == 15
        assert rep.bell_pairs_used == 15
        assert rep.max_live_qubits == 17
        assert len(rep.outcomes) == 15

    def test_eigenstate_input(self):
        rep = run_transversal_t_protocol((1, 0), (0, 1), SplitMix64(22))
        assert rep.fidelity >= 1 - 1e-10

    def test_keys_and_seeds(self):
        for seed in range(6):
            for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
                rep = run_transversal_t_protocol((0.6, 0.8j), key, SplitMix64(seed))
                assert rep.fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("pairs", [0, 1, 14, 16])
    def test_wrong_forced_outcome_count(self, pairs):
        with pytest.raises(ValueError, match="15 forced outcome pairs"):
            run_transversal_t_protocol((0.6, 0.8), (1, 1), SplitMix64(0), [(0, 0)] * pairs)

    @pytest.mark.parametrize("runner, what", [(run_transversal_t_protocol, "transversal-T"),
                                              (run_logical_t_protocol, "logical-T")],
                             ids=["transversal-t", "logical-t"])
    def test_output_below_tolerance_raises(self, monkeypatch, runner, what):
        # checked against 0.6|0_L> + 0.8|1_L>, the logical T output has fidelity 0.93
        monkeypatch.setattr(protocol, "OMEGA", 1)
        with pytest.raises(ProtocolError, match=f"^{what} output fidelity 0.93.* below tolerance$"):
            runner((0.6, 0.8), (1, 0), SplitMix64(1))

    def test_final_state_matches_logical_t(self):
        cs = cached_code_space("rm15")
        c0, c1 = 0.28, 0.96j
        rep = run_transversal_t_protocol((c0, c1), (1, 0), SplitMix64(5))
        want = combine(list(cs.basis), [c0, OMEGA * c1])
        assert fidelity_up_to_phase(rep.final_state, want) >= 1 - 1e-10


class _RecordingRng(SplitMix64):
    """The generator, keeping every word it returns."""

    def __init__(self, seed):
        super().__init__(seed)
        self.words = []

    def next_u64(self):
        self.words.append(word := super().next_u64())
        return word


class TestGadgetWeightsUniform:
    """The exact half of the uniform-outcome check, in each runner, under
    every key, with sampled and forced outcomes.  Every sampled gadget
    draws one generator word and takes the outcome its top two bits name,
    and a forced one draws none.  And every T gadget's four outcome
    weights, taken from the dense branches of its qubit's reduced 2x2 state
    in the state the gadget meets (apply_monomial of the layer so far, on
    every run_circuit call of the runners, the logical runner's one-qubit
    register included), are within 1e-12 of a quarter of their total."""

    @pytest.fixture
    def gadgets(self, monkeypatch):
        seen, gadget = [], states.MonomialLayer.gadget

        def probe(layer, state, qubit, u, t, rng, forced=None):
            # the qubit's reduced state, as rho = psi psi^dag with one column
            # of psi per key of the other qubits, branched eigenvector by
            # eigenvector
            cols, bit = {}, 1 << (qubit - 1)
            for k, amp in apply_monomial(state, layer).items():
                cols.setdefault(k & ~bit, [0j, 0j])[(k & bit) >> (qubit - 1)] = amp
            psi = np.array(list(cols.values())).T
            lam, vecs = np.linalg.eigh(psi @ psi.conj().T)
            rotation = np.diag([1, OMEGA ** u])
            branches = [dense_gadget_branches(v, 1, 1, rotation, t) for v in vecs.T]
            weights = [sum(l * np.vdot(b[j], b[j]).real for l, b in zip(lam, branches)) for j in range(4)]
            before = len(rng.words)
            outcome = gadget(layer, state, qubit, u, t, rng, forced)
            seen.append((weights, rng.words[before:], forced, outcome))
            return outcome

        monkeypatch.setattr(states.MonomialLayer, "gadget", probe)
        return seen

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("key", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_every_runner(self, gadgets, key, forced):
        seed = 2 * key[0] + key[1]
        pairs = [BELL_OUTCOMES[(seed + i) % 4] for i in range(15)] if forced else None
        rngs = [_RecordingRng(seed) for _ in range(3)]
        run_transversal_t_protocol((0.6, 0.8j), key, rngs[0], pairs)
        run_logical_t_protocol((0.28, 0.96j), key, rngs[1], pairs[0] if forced else None)
        run_demo_circuit(rngs[2], keys=KeyRegister.uniform(2, *key),
                         forced_outcomes=pairs[:2] if forced else None)
        assert len(gadgets) == 15 + 1 + 2
        for w, words, pick, outcome in gadgets:
            if forced:
                assert not words and outcome == tuple(pick)
            else:
                assert len(words) == 1 and outcome == BELL_OUTCOMES[words[0] >> 62]
            assert len(w) == 4
            assert all(abs(x - sum(w) / 4) <= 1e-12 for x in w)


class TestLogicalT:
    def test_forced_branches(self):
        # all four logical Bell outcomes x all keys reach the logical T output
        cs = cached_code_space("shor")
        c0, c1 = 0.6, 0.8j
        want = combine(list(cs.basis), [c0, OMEGA * c1])
        for a in (0, 1):
            for b in (0, 1):
                for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    rep = run_logical_t_protocol((c0, c1), (a, b), SplitMix64(1), forced_outcome=outcome)
                    assert rep.fidelity >= 1 - 1e-10
                    assert rep.outcome == outcome
                    assert fidelity_up_to_phase(rep.final_state, want) >= 1 - 1e-10

    def test_contraction_matches_dict_oracle(self):
        # each forced outcome's output against the dict-loop logical Bell
        # measurement on the 27-qubit register, normalized and unmasked
        code = builtin_code("shor")
        zero, one = cached_code_space("shor").basis
        x_bar, z_bar = code.logical_x[0], code.logical_z[0]
        products = [tensor(zero, zero), tensor(zero, one), tensor(one, zero), tensor(one, one)]
        bell = combine([products[0], products[3]], [1 / np.sqrt(2)] * 2)
        psi = combine([zero, one], [0.6, 0.8j])
        for a in (0, 1):
            for b in (0, 1):
                enc = apply_pauli(psi, z_bar) if b else psi
                enc = apply_pauli(enc, x_bar) if a else enc
                chi = combine([enc, one], [1.0, (OMEGA - 1) * states.inner(one, enc)])
                branches, probs = dict_logical_bell_branches(chi, products, bell, a)
                for (r_a, r_b), branch, prob in zip(BELL_OUTCOMES, branches, probs):
                    rep = run_logical_t_protocol((0.6, 0.8j), (a, b), SplitMix64(1),
                                                 forced_outcome=(r_a, r_b))
                    want = branch.scaled(1 / np.sqrt(prob))
                    if a ^ r_a:
                        want = apply_pauli(want, x_bar)
                    if a ^ b ^ r_b:
                        want = apply_pauli(want, z_bar)
                    got = rep.final_state
                    assert np.array_equal(got.keys, want.keys), ((a, b), (r_a, r_b))
                    assert np.abs(np.subtract(got.amps, want.amps)).max() < 1e-12, ((a, b), (r_a, r_b))

    def test_malformed_forced_outcome(self):
        with pytest.raises(ValueError, match=r"^forced outcome must be a pair of bits, got \(2, 0\)$"):
            run_logical_t_protocol((0.6, 0.8), (1, 0), SplitMix64(1), forced_outcome=(2, 0))

    def test_sampled_runs(self):
        for seed in range(10):
            rep = run_logical_t_protocol((0.48 + 0.36j, 0.8), (seed & 1, (seed >> 1) & 1), SplitMix64(seed))
            assert rep.fidelity >= 1 - 1e-10
            assert rep.register_qubits == 27
            assert rep.max_terms <= 128

    def test_final_state_is_logical_t_output(self):
        cs = cached_code_space("shor")
        c0, c1 = 0.96, -0.28j
        rep = run_logical_t_protocol((c0, c1), (1, 1), SplitMix64(9))
        want = combine(list(cs.basis), [c0, OMEGA * c1])
        assert fidelity_up_to_phase(rep.final_state, want) >= 1 - 1e-10


class TestRepeatedRuns:
    """Per-code data is cached between runner calls; identical calls must
    still give identical reports and final states."""

    @staticmethod
    def _same(rep1, rep2):
        assert rep1.as_dict() == rep2.as_dict()
        assert np.array_equal(rep1.final_state.keys, rep2.final_state.keys)
        assert np.array_equal(rep1.final_state.amps, rep2.final_state.amps)

    def test_storage(self):
        for name in ("bit_flip", "shor", "steane", "rm15"):
            args = (name, (0.6, 0.8j), (1, 1), None)
            self._same(run_storage_protocol(*args, SplitMix64(3)),
                       run_storage_protocol(*args, SplitMix64(3)))

    def test_transversal_t(self):
        args = ((0.6, 0.8j), (1, 0))
        self._same(run_transversal_t_protocol(*args, SplitMix64(4)),
                   run_transversal_t_protocol(*args, SplitMix64(4)))

    def test_logical_t(self):
        args = ((0.6, 0.8j), (0, 1))
        self._same(run_logical_t_protocol(*args, SplitMix64(5)),
                   run_logical_t_protocol(*args, SplitMix64(5)))

    def test_demo(self):
        rep1, dec1, _ = run_demo_circuit(SplitMix64(6))
        rep2, dec2, _ = run_demo_circuit(SplitMix64(6))
        assert rep1.as_dict() == rep2.as_dict()
        assert np.array_equal(dec1.amps, dec2.amps)


class TestResources:
    def test_shor_block(self):
        rep = resource_report(9)
        assert (rep.q_data, rep.q_aux_phys, rep.q_tot_phys) == (9, 18, 27)
        assert (rep.q_aux_log, rep.q_tot_log) == (18, 27)

    def test_single_qubit(self):
        assert resource_report(1).q_tot_phys == 3

    def test_rm15_block(self):
        rep = resource_report(15)
        assert rep.q_tot_phys == rep.q_tot_log == 45

    def test_invalid(self):
        with pytest.raises(ValueError):
            resource_report(0)
