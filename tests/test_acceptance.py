"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from hqec import gf2, resource_report
from hqec.compat import (
    clifford_correction_for_t,
    css_mask_check,
    diagonal_gate_action,
    stabilizer_mask_check,
)
from hqec.protocol import (
    CircuitGate,
    KeyRegister,
    encrypt,
    run_demo_circuit,
    run_logical_t_protocol,
    run_storage_protocol,
)
from hqec.rng import SplitMix64
from hqec.states import (
    SparseState,
    apply_cnot,
    apply_pauli,
    apply_single,
    gate,
    inner,
)
from oracles import (
    apply_diagonal,
    cached_code,
    cached_code_space,
    combine,
    dense_cnot,
    dense_of,
    dense_pauli,
    dense_swap,
    enumerate_codewords,
    from_terms,
    op_on,
    project_onto,
    random_pauli,
    swap_qubits,
    weight_mod,
)

OMEGA = np.exp(1j * np.pi / 4)

# golden number for the nine-qubit transversal-T leakage, fixed by the dense
# projection oracle (cross-checked in test_compat); analytically sqrt(3/8)
SHOR_T_LEAKAGE = 0.6123724356957945

STEANE_C1_WORDS = {
    "0000000", "0001111", "0010110", "0011001", "0100101", "0101010", "0110011",
    "0111100", "1000011", "1001100", "1010101", "1011010", "1100110", "1101001",
    "1110000", "1111111",
}
STEANE_C2_WORDS = {
    "0000000", "1010101", "0110011", "1100110", "0001111", "1011010", "0111100", "1101001",
}


def _verdict(num: int, name: str, ok: bool):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_c01_mask_compatibility_verdicts():
    expected = {
        "bit_flip": True,
        "phase_flip": True,
        "shor": True,
        "steane": True,
        "rm15": True,
        "synthetic_incompatible": False,
    }
    ok = True
    for name, want in expected.items():
        code = cached_code(name)
        stabilizer_mask_check(code)  # warmup (JIT, caches)
        elapsed = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            rep = stabilizer_mask_check(code)
            elapsed = min(elapsed, time.perf_counter() - t0)
        ok &= rep.verdict == want
        ok &= elapsed < 1e-3
    bad = stabilizer_mask_check(cached_code("synthetic_incompatible")).failing_generators()
    ok &= bad[0].generator == "ZZZ" and not bad[0].x_commutes
    _verdict(1, "mask compatibility verdicts", ok)


def test_c02_steane_css_conditions_and_word_lists():
    c1, c2 = cached_code("steane").css_origin
    rep = css_mask_check(c1, c2)
    words1 = {gf2.format_row(w, 7) for w in enumerate_codewords(c1)}
    words2 = {gf2.format_row(w, 7) for w in enumerate_codewords(c2)}
    ok = rep.e_in_c1 is True and rep.c2_all_even is True and rep.verdict is True
    ok &= words1 == STEANE_C1_WORDS
    ok &= words2 == STEANE_C2_WORDS
    _verdict(2, "steane css conditions and word lists", ok)


def test_c03_triorthogonality_exact_overlaps():
    rows = [
        "111111111111111", "000000011111111", "000111100001111",
        "011001100110011", "101010101010101",
    ]
    rep = gf2.triorthogonality_check(gf2.BitMatrix.from_strings(rows))
    ok = rep.pairwise_ok and rep.triple_ok
    ok &= all(rep.pair_overlaps[(0, i)] == 8 for i in range(1, 5))
    ok &= all(
        rep.pair_overlaps[(i, j)] == 4 for i in range(1, 5) for j in range(i + 1, 5)
    )
    ok &= all(
        rep.triple_overlaps[(0, i, j)] == 4 for i in range(1, 5) for j in range(i + 1, 5)
    )
    ok &= all(
        rep.triple_overlaps[t] == 2
        for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    )
    ok &= rep.odd_rows == (0,) and rep.even_rows == (1, 2, 3, 4)
    _verdict(3, "triorthogonal overlap table", ok)


def test_c04_shor_mask_amplitude_cases():
    cs = cached_code_space("shor")
    c0 = 0.6 * np.exp(0.3j)
    c1 = 0.8 * np.exp(-1.1j)
    psi = combine(list(cs.basis), [c0, c1])
    expected = {
        (0, 0): (c0, c1),
        (1, 0): (c0, -c1),
        (0, 1): (c1, c0),
        (1, 1): (c1, -c0),
    }
    ok = True
    for (a, b), (e0, e1) in expected.items():
        enc = encrypt(psi, KeyRegister.uniform(9, a, b))
        _, weight = project_onto(list(cs.basis), enc)
        ok &= abs(weight - 1) < 1e-12
        ok &= abs(inner(cs.zero, enc) - e0) < 1e-12
        ok &= abs(inner(cs.one, enc) - e1) < 1e-12
    _verdict(4, "nine-qubit mask stays in code space with exact amplitudes", ok)


def test_c05_bit_flip_mask_table():
    c0 = 0.48 + 0.36j
    c1 = 0.64 - 0.48j
    psi = from_terms(3, {"000": c0, "111": c1})
    expected = {
        (0, 0): (c0, c1),
        (0, 1): (c0, -c1),
        (1, 0): (c1, c0),
        (1, 1): (-c1, c0),
    }
    ok = True
    for (a, b), (e0, e1) in expected.items():
        enc = encrypt(psi, KeyRegister.uniform(3, a, b))
        ok &= abs(enc.amplitude("000") - e0) < 1e-15
        ok &= abs(enc.amplitude("111") - e1) < 1e-15
    _verdict(5, "bit-flip mask amplitude table", ok)


def test_c06_storage_round_trips():
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
    t0 = time.perf_counter()
    ok = True
    for name, key, err in cases:
        rep = run_storage_protocol(name, (0.6, 0.8j), key, err, SplitMix64(1))
        ok &= rep.fidelity >= 1 - 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(6, f"storage round trips ({len(cases)} runs, {elapsed:.2f}s)", ok)


def test_c07_shor_transversal_t_leakage():
    da = diagonal_gate_action(cached_code_space("shor"), OMEGA, label="T")
    ok = da.leakage > 0.1
    ok &= abs(da.leakage - SHOR_T_LEAKAGE) < 1e-9
    _verdict(7, "nine-qubit transversal T leaks out of the code space", ok)


def test_c08_rm15_weight_classes():
    c2 = gf2.code_from_strings([
        "000000011111111", "000111100001111", "011001100110011", "101010101010101",
    ])
    span = enumerate_codewords(c2)
    coset = [gf2.parse_row("1" * 15) ^ w for w in span]
    ok = len(span) == 16 and len(coset) == 16
    ok &= weight_mod(span, 8) == {0}
    ok &= weight_mod(coset, 8) == {7}
    _verdict(8, "rm15 weight classes mod 8", ok)


def test_c09_rm15_transversal_t_with_correction():
    cs = cached_code_space("rm15")
    da = diagonal_gate_action(cs, OMEGA, label="T")
    ok = da.leakage < 1e-10
    ok &= abs(da.logical_phases[0] - 1) < 1e-12
    ok &= abs(da.logical_phases[1] - np.exp(-1j * np.pi / 4)) < 1e-12
    corr = clifford_correction_for_t(cs)
    ok &= corr is not None and corr.logical_s_power == 1 and corr.logical_z_power == 0
    # correction times transversal T equals logical T on both codewords
    for st, phase in ((cs.zero, 1.0), (cs.one, OMEGA)):
        out = apply_diagonal(apply_diagonal(st, OMEGA), -1j)
        out = out.scaled(corr.global_phase)
        diff = combine([out, st.scaled(phase)], [1.0, -1.0]).norm()
        ok &= diff < 1e-12
    _verdict(9, "rm15 transversal T with diagonal correction", ok)


def test_c10_demo_circuit_end_to_end():
    h, t = np.array(gate("H").matrix), np.array(gate("T").matrix)
    s, td = np.array(gate("S").matrix), np.array(gate("Td").matrix)
    want_op = op_on(t @ h, 1, 2) @ op_on(s @ td, 2, 2)
    from hqec.protocol import random_state

    ok = True
    for seed in range(100):
        rep, dec, _ = run_demo_circuit(SplitMix64(seed))
        # rebuild the input from the same rng stream for the dense oracle
        psi = random_state(2, SplitMix64(seed))
        want = want_op @ dense_of(psi)
        got = dense_of(dec)
        ok &= abs(abs(np.vdot(want, got)) - 1) < 1e-10
        ok &= rep.fidelity >= 1 - 1e-10
    # documented run: keys ((1,0),(0,1)), outcomes (1,0) then (0,1)
    rep, _, _ = run_demo_circuit(
        SplitMix64(99), keys=KeyRegister.of([(1, 0), (0, 1)]), forced_outcomes=[(1, 0), (0, 1)]
    )
    ev = rep.transcript.events
    kinds = [e["kind"] for e in ev]
    ok &= kinds == [
        "gate", "gate", "bell_consumed", "swap", "gate", "bell_consumed", "swap", "gate",
        "key_update", "measurement", "key_update", "measurement", "key_update", "key_update",
        "final_keys", "final_correction",
    ]
    upd = [e for e in ev if e["kind"] == "key_update"]
    ok &= upd[0]["old"] == [1, 0] and upd[0]["new"] == [0, 1]  # H swap
    ok &= upd[1]["old"] == [0, 1] and upd[1]["new"] == [1, 1]  # T measurement
    ok &= upd[2]["old"] == [0, 1] and upd[2]["new"] == [0, 0]  # Td measurement
    ok &= upd[3]["old"] == [0, 0] and upd[3]["new"] == [0, 0]  # S fold
    meas = [e for e in ev if e["kind"] == "measurement"]
    ok &= meas[0]["rotation"] == "S^0" and meas[1]["rotation"] == "Sd^0"
    ok &= rep.keys_final == [[1, 1], [0, 0]]
    _verdict(10, "two-qubit demo end-to-end (100 runs + documented trace)", ok)


def test_c11_logical_t_end_to_end():
    cs = cached_code_space("shor")
    ok = True
    for seed in range(50):
        rng = SplitMix64(seed)
        c0 = complex(2 * rng.random() - 1, 2 * rng.random() - 1)
        c1 = complex(2 * rng.random() - 1, 2 * rng.random() - 1)
        a, b = rng.next_u64() & 1, rng.next_u64() & 1
        rep = run_logical_t_protocol((c0, c1), (a, b), rng)
        ok &= rep.fidelity >= 1 - 1e-10
        ok &= rep.register_qubits == 27
        ok &= rep.max_terms <= 128
        norm = np.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        want = combine(list(cs.basis), [c0 / norm, OMEGA * c1 / norm])
        got = rep.final_state
        ok &= abs(abs(inner(want, got)) - 1) < 1e-10
    res = resource_report(9)
    ok &= res.q_tot_phys == 27 and res.q_tot_log == 27
    _verdict(11, "logical-mask T end-to-end (50 runs)", ok)


def test_c12_key_update_matrix_identities():
    xm = np.array(gate("X").matrix)
    zm = np.array(gate("Z").matrix)
    mats = {"X": xm, "Z": zm, "H": np.array(gate("H").matrix), "S": np.array(gate("S").matrix)}
    from hqec.protocol import clifford_key_update

    ok = True
    for kind, g in mats.items():
        for a in (0, 1):
            for b in (0, 1):
                a2, b2 = clifford_key_update(
                    CircuitGate(kind, (1,)), KeyRegister.of([(a, b)])
                ).pair(1)
                lhs = g @ np.linalg.matrix_power(xm, a) @ np.linalg.matrix_power(zm, b)
                rhs = np.linalg.matrix_power(xm, a2) @ np.linalg.matrix_power(zm, b2) @ g
                idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                lam = lhs[idx] / rhs[idx]
                ok &= abs(abs(lam) - 1) < 1e-12
                ok &= np.abs(lhs - lam * rhs).max() < 1e-12
    cnot = dense_cnot(1, 2, 2)
    for ai in (0, 1):
        for bi in (0, 1):
            for aj in (0, 1):
                for bj in (0, 1):
                    upd = clifford_key_update(
                        CircuitGate("CNOT", (1, 2)), KeyRegister.of([(ai, bi), (aj, bj)])
                    )
                    (ai2, bi2), (aj2, bj2) = upd.as_lists()
                    m_in = (
                        op_on(np.linalg.matrix_power(xm, ai) @ np.linalg.matrix_power(zm, bi), 1, 2)
                        @ op_on(np.linalg.matrix_power(xm, aj) @ np.linalg.matrix_power(zm, bj), 2, 2)
                    )
                    m_out = (
                        op_on(np.linalg.matrix_power(xm, ai2) @ np.linalg.matrix_power(zm, bi2), 1, 2)
                        @ op_on(np.linalg.matrix_power(xm, aj2) @ np.linalg.matrix_power(zm, bj2), 2, 2)
                    )
                    lhs = cnot @ m_in
                    rhs = m_out @ cnot
                    idx = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
                    lam = lhs[idx] / rhs[idx]
                    ok &= abs(abs(lam) - 1) < 1e-12
                    ok &= np.abs(lhs - lam * rhs).max() < 1e-12
    _verdict(12, "key-update rules pinned by matrix identities", ok)


def test_c13_sparse_dense_oracle_equivalence():
    rng = np.random.default_rng(2718)
    labels = ("X", "Z", "H", "S", "Sd", "T", "Td")
    max_dev = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        dim = 1 << n
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        keys = np.arange(dim, dtype=np.uint64)
        st = SparseState(n, keys, vec.copy())
        roll = rng.random()
        if roll < 0.5:
            label = labels[rng.integers(0, len(labels))]
            q = int(rng.integers(1, n + 1))
            st2 = apply_single(st, gate(label), q)
            want = op_on(gate(label).matrix, q, n) @ vec
        elif roll < 0.7 and n >= 2:
            c, t = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
            st2 = apply_cnot(st, c, t)
            want = dense_cnot(c, t, n) @ vec
        elif roll < 0.85 and n >= 2:
            i, j = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
            st2 = swap_qubits(st, i, j)
            want = dense_swap(i, j, n) @ vec
        else:
            p = random_pauli(rng, n)
            st2 = apply_pauli(st, p)
            want = dense_pauli(p) @ vec
        dev = float(np.abs(dense_of(st2) - want).max())
        max_dev = max(max_dev, dev)
    ok = max_dev < 1e-12
    _verdict(13, f"sparse/dense oracle equivalence (max dev {max_dev:.2e})", ok)
