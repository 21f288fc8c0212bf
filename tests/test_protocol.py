import numpy as np
import pytest

from hqec.protocol import (
    CircuitGate,
    IncompatibleCodeError,
    KeyRegister,
    ProtocolError,
    TByproduct,
    clifford_key_update,
    decrypt,
    encrypt,
    evaluate_circuit,
    format_circuit,
    mask_pauli,
    parse_circuit,
    random_state,
    resource_report,
    run_demo_circuit,
    run_logical_t_protocol,
    run_storage_protocol,
    run_transversal_t_protocol,
    t_byproduct,
)
from hqec.pauli import parse_pauli
from hqec.rng import SplitMix64
from hqec.states import (
    SparseState,
    apply_pauli,
    apply_single,
    bell_pair,
    combine,
    fidelity_up_to_phase,
    gate,
    rotated_bell_measure,
)
from oracles import cached_code_space, dense_cnot, dense_of, op_on

OMEGA = np.exp(1j * np.pi / 4)

DENSE_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
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
        psi = SparseState.from_terms(3, {"000": c0, "111": c1})
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
        psi = SparseState.from_terms(2, {"01": 0.6, "10": 0.8})
        enc = encrypt(psi, KeyRegister.uniform(2, 0, 0))
        assert fidelity_up_to_phase(enc, psi) == pytest.approx(1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encrypt(SparseState.from_basis(2, 0), KeyRegister.uniform(3, 1, 1))

    def test_masking_marginal(self):
        # averaging the masked density over uniform keys mixes the code space;
        # the two magnitude patterns each occur for exactly half the keys
        c0, c1 = 0.6, 0.8
        psi = SparseState.from_terms(3, {"000": c0, "111": c1})
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


class TestKeyUpdates:
    def test_h_swaps(self):
        keys = KeyRegister.of([(1, 0), (0, 1)])
        out = clifford_key_update(CircuitGate("H", (1,)), keys)
        assert out.pairs == ((0, 1), (0, 1))

    def test_s_folds(self):
        keys = KeyRegister.of([(1, 1)])
        out = clifford_key_update(CircuitGate("S", (1,)), keys)
        assert out.pairs == ((1, 0),)
        assert clifford_key_update(CircuitGate("S", (1,)), KeyRegister.of([(0, 0)])).pairs == ((0, 0),)

    def test_x_z_identity(self):
        keys = KeyRegister.of([(1, 1)])
        for kind in ("X", "Z"):
            assert clifford_key_update(CircuitGate(kind, (1,)), keys).pairs == keys.pairs

    def test_cnot_rule(self):
        keys = KeyRegister.of([(1, 1), (0, 1)])
        out = clifford_key_update(CircuitGate("CNOT", (1, 2)), keys)
        assert out.pairs == ((1, 0), (1, 1))

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            clifford_key_update(CircuitGate("T", (1,)), KeyRegister.of([(0, 0)]))

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
                        (ai2, bi2), (aj2, bj2) = upd.pairs
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

    def test_t_byproduct_cases(self):
        assert t_byproduct("T", (1, 0)) == TByproduct("Sd", 1, (1, 1))
        assert t_byproduct("T", (0, 1)) == TByproduct("Sd", 0, (0, 1))
        assert t_byproduct("Td", (1, 1)) == TByproduct("S", 1, (1, 0))

    def test_t_byproduct_matrix_relation(self):
        # T X^a Z^b == lambda * (Sd)^a X^a Z^(a^b) T
        sd = DENSE_1Q["S"].conj().T
        for kind, byp in (("T", sd), ("Td", DENSE_1Q["S"])):
            gm = DENSE_1Q[kind]
            for a in (0, 1):
                for b in (0, 1):
                    res = t_byproduct(kind, (a, b))
                    a2, b2 = res.new_key
                    assert res.exponent == a
                    lhs = gm @ np.linalg.matrix_power(DENSE_1Q["X"], a) @ np.linalg.matrix_power(DENSE_1Q["Z"], b)
                    rhs = (
                        np.linalg.matrix_power(byp, res.exponent)
                        @ np.linalg.matrix_power(DENSE_1Q["X"], a2)
                        @ np.linalg.matrix_power(DENSE_1Q["Z"], b2)
                        @ gm
                    )
                    idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                    lam = lhs[idx] / rhs[idx]
                    assert abs(abs(lam) - 1) < 1e-12
                    assert np.abs(lhs - lam * rhs).max() < 1e-12


class TestCircuitText:
    def test_parse_tokens(self):
        circ = parse_circuit("H1 T1 Td2 S2 CX1,2")
        assert [g.kind for g in circ] == ["H", "T", "Td", "S", "CNOT"]
        assert circ[-1].qubits == (1, 2)

    def test_format_round_trip(self):
        text = "H1 T1 Td2 S2 CX1,2 X3"
        assert format_circuit(parse_circuit(text)) == text

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_circuit("Q1")
        with pytest.raises(ValueError):
            parse_circuit("CX1")
        with pytest.raises(ValueError):
            parse_circuit("H1,2")


class TestEvaluateDecrypt:
    def test_empty_circuit(self):
        psi = random_state(2, SplitMix64(5))
        keys = KeyRegister.of([(1, 0), (0, 1)])
        enc = encrypt(psi, keys)
        out, tr = evaluate_circuit(enc, [], keys, [], SplitMix64(6))
        assert tr.events == []
        dec = decrypt(out, tr, keys, SplitMix64(7))
        assert fidelity_up_to_phase(dec, psi) > 1 - 1e-12

    def test_single_t_plus_state(self):
        plus = apply_single(SparseState.from_basis(1, 0), gate("H"), 1)
        keys = KeyRegister.of([(0, 0)])
        enc = encrypt(plus, keys)
        circuit = [CircuitGate("T", (1,))]
        out, tr = evaluate_circuit(enc, circuit, keys, [bell_pair()], SplitMix64(8))
        dec = decrypt(out, tr, keys, SplitMix64(9))
        want = apply_single(plus, gate("T"), 1)
        assert fidelity_up_to_phase(dec, want) > 1 - 1e-12

    @pytest.mark.parametrize("kind", ["T", "Td"])
    def test_single_t_all_keys_and_outcomes(self, kind):
        # 4 keys x 4 forced outcomes against the dense expectation
        psi = random_state(1, SplitMix64(77))
        want = op_on(DENSE_1Q[kind], 1, 1) @ dense_of(psi)
        for a in (0, 1):
            for b in (0, 1):
                for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    keys = KeyRegister.of([(a, b)])
                    enc = encrypt(psi, keys)
                    out, tr = evaluate_circuit(enc, [CircuitGate(kind, (1,))], keys, [bell_pair()], None)
                    dec = decrypt(out, tr, keys, SplitMix64(0), forced_outcomes=[outcome])
                    got = dense_of(dec)
                    overlap = abs(np.vdot(want, got))
                    assert overlap > 1 - 1e-12

    def test_bell_pool_exhausted(self):
        psi = random_state(1, SplitMix64(3))
        keys = KeyRegister.of([(0, 0)])
        with pytest.raises(ProtocolError, match="bell pool"):
            evaluate_circuit(encrypt(psi, keys), [CircuitGate("T", (1,))], keys, [], None)

    def test_transcript_bell_count_matches_t_count(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            circuit = _random_circuit(rng, n)
            n_t = sum(1 for g in circuit if g.kind in ("T", "Td"))
            psi = random_state(n, SplitMix64(int(rng.integers(0, 2**32))))
            keys = KeyRegister.random(n, SplitMix64(int(rng.integers(0, 2**32))))
            enc = encrypt(psi, keys)
            out, tr = evaluate_circuit(enc, circuit, keys, [bell_pair()] * n_t, None)
            assert tr.bell_pairs_consumed == n_t

    def test_register_mismatch_rejected(self):
        psi = random_state(1, SplitMix64(3))
        keys = KeyRegister.of([(0, 0)])
        enc = encrypt(psi, keys)
        out, tr = evaluate_circuit(enc, [CircuitGate("T", (1,))], keys, [bell_pair()], None)
        with pytest.raises(ProtocolError):
            decrypt(psi, tr, keys, SplitMix64(0))  # pair qubits missing

    def test_round_trip_randomized_circuits(self):
        # >= 200 seeded trials: <= 12 gates, <= 3 T/Td, on <= 3 qubits
        rng = np.random.default_rng(1234)
        worst = 1.0
        for trial in range(200):
            n = int(rng.integers(1, 4))
            circuit = _random_circuit(rng, n)
            psi = random_state(n, SplitMix64(trial))
            keys = KeyRegister.random(n, SplitMix64(trial + 10_000))
            n_t = sum(1 for g in circuit if g.kind in ("T", "Td"))
            enc = encrypt(psi, keys)
            out, tr = evaluate_circuit(enc, circuit, keys, [bell_pair()] * n_t, None)
            dec = decrypt(out, tr, keys, SplitMix64(trial + 20_000))
            want = dense_circuit(circuit, n) @ dense_of(psi)
            fid = abs(np.vdot(want, dense_of(dec)))
            worst = min(worst, fid)
        assert worst >= 1 - 1e-10

    def test_wrong_key_update_reading_fails(self):
        # the documented negative test: folding the POST-measurement a into
        # b's update breaks the single-T round trip on outcome r_a = 1
        psi = random_state(1, SplitMix64(55))
        a, b = 1, 0
        keys = KeyRegister.of([(a, b)])
        enc = encrypt(psi, keys)
        circuit = [CircuitGate("T", (1,))]
        out, tr = evaluate_circuit(enc, circuit, keys, [bell_pair()], None)
        forced = (1, 0)

        # correct reading recovers T|psi>
        dec_good = decrypt(out, tr, keys, SplitMix64(0), forced_outcomes=[forced])
        want = apply_single(psi, gate("T"), 1)
        assert fidelity_up_to_phase(dec_good, want) > 1 - 1e-12

        # wrong reading: b <- b ^ (a_post ^ r_b) with a_post = a ^ r_a
        rot = gate("S") if a else None
        (r_a, r_b), collapsed = rotated_bell_measure(out, (2, 3), rot, SplitMix64(0), forced)
        a_post = a ^ r_a
        b_wrong = b ^ (a_post ^ r_b)
        wrong_mask = mask_pauli(KeyRegister.of([(a_post, b_wrong)])).adjoint()
        dec_bad = apply_pauli(collapsed, wrong_mask)
        assert fidelity_up_to_phase(dec_bad, want) < 1 - 1e-3


def _random_circuit(rng, n, max_gates=12, max_t=3):
    kinds = ["X", "Z", "H", "S"]
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
        from hqec.codes import builtin_code
        from hqec.pauli import PauliOperator

        n = builtin_code(name).n
        for a in (0, 1):
            for b in (0, 1):
                errors = [None] + [
                    PauliOperator.single(n, q, k) for q in range(1, n + 1) for k in kinds
                ]
                for err in errors:
                    rep = run_storage_protocol(name, (0.6, 0.8j), (a, b), err, SplitMix64(2))
                    assert rep.fidelity >= 1 - 1e-10, (name, (a, b), err)


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

    def test_final_state_matches_logical_t(self):
        cs = cached_code_space("rm15")
        c0, c1 = 0.28, 0.96j
        rep = run_transversal_t_protocol((c0, c1), (1, 0), SplitMix64(5))
        want = combine(list(cs.basis), [c0, OMEGA * c1])
        assert fidelity_up_to_phase(rep.final_state, want) >= 1 - 1e-10


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
