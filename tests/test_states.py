import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hqec import states
from hqec.pauli import PauliOperator, parse_pauli
from hqec.rng import SplitMix64
from hqec.states import (
    PRUNE_TOL,
    TOL,
    MonomialLayer,
    SingleQubitGate,
    SparseState,
    _state,
    _unit_factors,
    apply_cnot,
    apply_monomial,
    apply_pauli,
    apply_single,
    combine,
    fidelity_up_to_phase,
    gate,
    inner,
    pauli_eigenvalues,
    unit_amplitudes,
)
from oracles import (
    _BELL_GATHERS,
    BELL_OUTCOMES,
    IDENTITY,
    PickRng,
    basis_state,
    bell_pair,
    dense_cnot,
    dense_of,
    dense_pauli,
    dense_rotated_bell_branches,
    dense_swap,
    from_terms,
    intersect_inner,
    op_on,
    pauli_expectation_terms,
    pauli_image_terms,
    project_onto,
    random_dense_state,
    random_pauli,
    rotated_bell_measure,
    gadget_exponents,
    signed_weight_eigenvalues,
    sparse_of,
    state_bytes,
    swap_qubits,
    teleport,
    tensor,
    vacuum,
)

IDENT = SingleQubitGate("I", np.eye(2, dtype=complex))


def random_sparse(rng, n, density=0.5):
    dim = 1 << n
    keys = [k for k in range(dim) if rng.random() < density]
    if not keys:
        keys = [int(rng.integers(0, dim))]
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    return SparseState(n, np.array(keys, np.uint64), amps).normalized()


class TestBasics:
    def test_gate_unitarity_enforced(self):
        with pytest.raises(ValueError):
            SingleQubitGate("bad", np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("entry", [math.nan, complex(0, math.nan), math.inf, -math.inf])
    def test_non_finite_gate_is_not_unitary(self, entry):
        # nan compares false with every bound, so it once passed the check
        with pytest.raises(ValueError, match="^gate 'g' is not unitary$"):
            SingleQubitGate("g", [[entry, 0], [0, 1]])

    @pytest.mark.parametrize("matrix", [[[1e200, 0], [0, 1]], [[0, 1e200j], [1, 0]],
                                        [[1.3e154, 1.3e154], [0, 1]]])
    def test_huge_gate_is_not_unitary(self, matrix):
        # |1e200|^2 once raised OverflowError instead of the verdict
        with pytest.raises(ValueError, match="^gate 'g' is not unitary$"):
            SingleQubitGate("g", matrix)

    def test_unitary_gates_accepted(self):
        h = 2**-0.5
        for m in ([[0, 1j], [-1j, 0]], [[h, h], [1j * h, -1j * h]]):
            assert SingleQubitGate("u", m).matrix == tuple(tuple(complex(x) for x in r) for r in m)

    def test_prune(self):
        st_ = from_terms(2, {0: 1.0, 3: 1e-13})
        assert st_.num_terms == 1

    def test_key_guard(self):
        with pytest.raises(ValueError):
            from_terms(2, {7: 1.0})
        for n, key in ((2, -1), (64, 1 << 64)):
            with pytest.raises(ValueError, match="bits beyond the register size"):
                SparseState(n, [key], [1.0])

    def test_numpy_arrays_in_and_out(self):
        # the benchmark's interface: numpy key and amplitude arrays in, and
        # .keys/.amps read back through np.asarray and fancy assignment
        keys = np.array([5, 0, 3, 6], np.uint64)
        amps = np.array([0.6, 0.8j, 0.0, 1e-13], np.complex128)
        st_ = SparseState(3, keys, amps)
        assert (st_.n, st_.num_terms) == (3, 2)
        assert state_bytes(st_) == state_bytes(SparseState(3, [0, 5], [0.8j, 0.6]))
        assert {type(k) for k in st_.keys} == {int} and {type(a) for a in st_.amps} == {complex}
        vec = np.zeros(1 << st_.n, dtype=complex)
        vec[np.asarray(st_.keys, dtype=np.int64)] = st_.amps
        assert vec.tolist() == [0.8j, 0, 0, 0, 0, 0.6, 0, 0]

    def test_dump_sorted_by_bitstring(self):
        # key 0b10 renders as "01": qubit 1 is the leftmost character
        st_ = from_terms(2, {0b10: 0.6, 0b01: 0.8})
        lines = st_.dump_lines()
        assert [ln.split()[0] for ln in lines] == ["01", "10"]
        assert float(lines[0].split()[1]) == pytest.approx(0.6)
        assert float(lines[1].split()[1]) == pytest.approx(0.8)

    def test_bad_bitstring_character(self):
        with pytest.raises(ValueError, match="position 2"):
            from_terms(3, {"0x1": 1.0})
        st_ = from_terms(2, {"01": 1.0})
        with pytest.raises(ValueError, match="position 1"):
            st_.amplitude("20")


R2 = 2**-0.5


class TestUnitAmplitudes:
    def test_unit_sized_pair_divided_by_its_norm(self):
        # the golden --amps 0.6,0,0,0.8: bit for bit the plain c / sqrt(|c0|^2 + |c1|^2)
        c0, c1 = 0.6 + 0j, 0.8j
        norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        assert repr(unit_amplitudes([c0, c1])) == repr((c0 / norm, c1 / norm))

    @pytest.mark.parametrize("pair, want", [
        ((1e308, 1e308), (R2, R2)), ((1.7e308, -1.7e308j), (R2, -1j * R2)),
        ((5e-324, 5e-324j), (R2, 1j * R2)), ((1e-320, 0), (1, 0)),
        ((0, 1.7976931348623157e308), (0, 1))])
    def test_extreme_pairs(self, pair, want):
        # |c0|^2 + |c1|^2 overflows or underflows here, and hypot alone rounds
        # the norm of (5e-324, 5e-324) to 2 ulp
        got = unit_amplitudes(pair)
        assert max(abs(g - w) for g, w in zip(got, want)) <= TOL

    @pytest.mark.parametrize("pair", [(0, 0), (0j, -0.0), (math.inf, 1), (math.nan, 1)])
    def test_zero_or_non_finite_raises(self, pair):
        with pytest.raises(ValueError, match="finite and not all zero"):
            unit_amplitudes(pair)


class TestApplySingle:
    def test_h_on_zero(self):
        out = apply_single(basis_state(1, 0), gate("H"), 1)
        assert abs(out.amplitude(0) - 2**-0.5) < 1e-15
        assert abs(out.amplitude(1) - 2**-0.5) < 1e-15

    def test_t_on_block_superposition(self):
        st_ = from_terms(3, {"000": 2**-0.5, "111": 2**-0.5})
        for q in (1, 2, 3):
            st_ = apply_single(st_, gate("T"), q)
        w3 = np.exp(1j * 3 * np.pi / 4)
        assert abs(st_.amplitude("000") - 2**-0.5) < 1e-15
        assert abs(st_.amplitude("111") - w3 * 2**-0.5) < 1e-15

    def test_z_phase(self):
        st_ = apply_single(basis_state(3, "110"), gate("Z"), 2)
        assert abs(st_.amplitude("110") + 1) < 1e-15

    def test_index_range(self):
        with pytest.raises(ValueError):
            apply_single(basis_state(1, 0), gate("X"), 2)

    def test_against_dense_all_gates(self):
        rng = np.random.default_rng(21)
        for label in ("X", "Z", "H", "S", "Sd", "T", "Td"):
            for _ in range(20):
                n = int(rng.integers(1, 5))
                q = int(rng.integers(1, n + 1))
                st_ = random_sparse(rng, n)
                got = dense_of(apply_single(st_, gate(label), q))
                want = op_on(gate(label).matrix, q, n) @ dense_of(st_)
                assert np.abs(got - want).max() < 1e-12


class TestCnotSwapTensor:
    def test_cnot_basis(self):
        assert apply_cnot(basis_state(2, "10"), 1, 2).amplitude("11") == 1
        assert apply_cnot(basis_state(2, "01"), 1, 2).amplitude("01") == 1

    def test_cnot_builds_bell(self):
        st_ = from_terms(2, {"00": 2**-0.5, "10": 2**-0.5})
        out = apply_cnot(st_, 1, 2)
        assert fidelity_up_to_phase(out, bell_pair()) > 1 - 1e-12

    def test_cnot_against_dense(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            c, t = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
            st_ = random_sparse(rng, n)
            got = dense_of(apply_cnot(st_, c, t))
            want = dense_cnot(c, t, n) @ dense_of(st_)
            assert np.abs(got - want).max() < 1e-12

    def test_swap_involution_and_dense(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            i, j = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
            st_ = random_sparse(rng, n)
            once = swap_qubits(st_, i, j)
            assert np.abs(dense_of(once) - dense_swap(i, j, n) @ dense_of(st_)).max() < 1e-12
            twice = swap_qubits(once, i, j)
            assert fidelity_up_to_phase(twice, st_) > 1 - 1e-12

    def test_swap_simple(self):
        assert swap_qubits(basis_state(2, "01"), 1, 2).amplitude("10") == 1

    def test_tensor_product(self):
        left = basis_state(1, 0)
        out = tensor(left, bell_pair())
        assert out.n == 3 and out.num_terms == 2
        assert abs(out.amplitude("000") - 2**-0.5) < 1e-15
        assert abs(out.amplitude("011") - 2**-0.5) < 1e-15

    def test_tensor_vacuum(self):
        st_ = from_terms(2, {"01": 0.6, "10": 0.8})
        assert fidelity_up_to_phase(tensor(st_, vacuum()), st_) > 1 - 1e-12
        assert fidelity_up_to_phase(tensor(vacuum(), st_), st_) > 1 - 1e-12

    def test_block_swap_exchanges_registers(self):
        # nine pairwise swaps exchange two nine-qubit blocks
        rng = np.random.default_rng(99)
        a = random_sparse(rng, 9, density=0.05)
        b = random_sparse(rng, 9, density=0.05)
        st_ = tensor(a, b)
        for q in range(1, 10):
            st_ = swap_qubits(st_, q, q + 9)
        assert fidelity_up_to_phase(st_, tensor(b, a)) > 1 - 1e-12


class TestApplyPauli:
    def test_example_phases(self):
        st_ = basis_state(2, "11")
        out = apply_pauli(st_, parse_pauli("ZI"))
        assert out.amplitude("11") == -1

    def test_identity(self):
        st_ = from_terms(2, {"01": 0.6, "10": 0.8})
        out = apply_pauli(st_, PauliOperator.identity(2))
        assert fidelity_up_to_phase(out, st_) == pytest.approx(1)

    def test_against_dense(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = random_pauli(rng, n)
            st_ = random_sparse(rng, n)
            got = dense_of(apply_pauli(st_, p))
            want = dense_pauli(p) @ dense_of(st_)
            assert np.abs(got - want).max() < 1e-12

    def test_double_application_sign(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            p = random_pauli(rng, n)
            st_ = random_sparse(rng, n)
            twice = apply_pauli(apply_pauli(st_, p), p)
            sq = p.multiply(p)
            sign = 1.0 if sq.phase == 0 else -1.0
            assert np.abs(dense_of(twice) - sign * dense_of(st_)).max() < 1e-12


class TestInnerProjection:
    def test_fidelity_global_phase(self):
        rng = np.random.default_rng(26)
        st_ = random_sparse(rng, 3)
        assert fidelity_up_to_phase(st_, st_.scaled(np.exp(0.7j))) == pytest.approx(1)

    def test_project_onto_member(self):
        st_ = basis_state(3, "000")
        span = [basis_state(3, "000"), basis_state(3, "111")]
        proj, w = project_onto(span, st_)
        assert w == pytest.approx(1)
        assert fidelity_up_to_phase(proj, st_) == pytest.approx(1)

    def test_project_orthogonal(self):
        span = [basis_state(3, "000"), basis_state(3, "111")]
        proj, w = project_onto(span, basis_state(3, "010"))
        assert proj is None and w < 1e-20

    def test_non_orthonormal_span_rejected(self):
        a = basis_state(2, "00")
        b = from_terms(2, {"00": 0.6, "11": 0.8})
        with pytest.raises(ValueError):
            project_onto([a, b], a)


class TestNormPreservation:
    @given(st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_circuits_preserve_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        st_ = random_sparse(rng, n)
        labels = ("X", "Z", "H", "S", "Sd", "T", "Td")
        for _ in range(12):
            if n >= 2 and rng.random() < 0.3:
                c, t = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
                st_ = apply_cnot(st_, c, t)
            else:
                st_ = apply_single(st_, gate(labels[rng.integers(0, 7)]), int(rng.integers(1, n + 1)))
        assert abs(st_.norm() - 1) < 1e-10


class TestRotatedBellMeasure:
    # the joint-register measurement of tests/oracles.py, the reference for
    # teleport; the uniform-outcome test runs teleport itself
    def test_teleportation_identity_rotation(self):
        psi = from_terms(1, {0: 0.6, 1: 0.8j})
        rng = SplitMix64(0)
        for forced in ((0, 0), (0, 1), (1, 0), (1, 1)):
            st_ = tensor(psi, bell_pair())
            outcome, col = rotated_bell_measure(st_, (1, 2), IDENT, rng, forced)
            assert outcome == forced
            expect = psi
            if forced[1]:
                expect = apply_pauli(expect, parse_pauli("Z"))
            if forced[0]:
                expect = apply_pauli(expect, parse_pauli("X"))
            assert fidelity_up_to_phase(col, expect) > 1 - 1e-12

    def test_teleportation_rotated(self):
        # measuring in the U-rotated basis applies U before the outcome Paulis
        psi = from_terms(1, {0: 0.28, 1: 0.96})
        rng = SplitMix64(0)
        for label in ("S", "T", "H"):
            for forced in ((0, 0), (0, 1), (1, 0), (1, 1)):
                st_ = tensor(psi, bell_pair())
                outcome, col = rotated_bell_measure(st_, (1, 2), gate(label), rng, forced)
                expect = apply_single(psi, gate(label), 1)
                if forced[1]:
                    expect = apply_pauli(expect, parse_pauli("Z"))
                if forced[0]:
                    expect = apply_pauli(expect, parse_pauli("X"))
                assert fidelity_up_to_phase(col, expect) > 1 - 1e-12

    def test_uniform_outcome_probabilities(self):
        psi = from_terms(1, {0: 0.6, 1: 0.8})
        counts = {o: 0 for o in ((0, 0), (0, 1), (1, 0), (1, 1))}
        rng = SplitMix64(2024)
        trials = 10_000
        for _ in range(trials):
            outcome, _ = teleport(psi, 1, IDENT, rng)
            counts[outcome] += 1
        for o, c in counts.items():
            assert abs(c / trials - 0.25) < 0.02

    def test_remaining_index_repacking(self):
        # measure middle pair; outer qubits keep relative order
        psi = from_terms(2, {"01": 1.0})
        st_ = tensor(tensor(basis_state(1, 1), bell_pair()), basis_state(1, 0))
        outcome, col = rotated_bell_measure(st_, (2, 3), IDENT, SplitMix64(1))
        assert col.n == 2
        assert abs(abs(col.amplitude("10")) - 1) < 1e-12

    def test_impossible_forced_outcome_rejected(self):
        # measuring a Bell pair against itself: only the (0,0) branch survives
        st_ = bell_pair()
        out, col = rotated_bell_measure(st_, (1, 2), IDENT, SplitMix64(1))
        assert out == (0, 0)
        assert col.n == 0
        for forced in ((0, 1), (1, 0), (1, 1)):
            with pytest.raises(ValueError):
                rotated_bell_measure(bell_pair(), (1, 2), IDENT, SplitMix64(1), forced)


class TestRotatedBellMeasureOracle:
    # I, S and Sd are the rotations the T gadgets use; IDENT is an equal
    # caller-made gate; H and T are rotations outside the precomputed table
    ROTATIONS = {
        "I": IDENT,
        "S": gate("S"),
        "Sd": gate("Sd"),
        "H": gate("H"),
        "T": gate("T"),
    }
    # both orders, adjacent and non-adjacent, lowest and highest qubits
    PAIRS = {3: ((1, 2), (2, 1), (1, 3), (3, 1)),
             4: ((1, 4), (4, 1), (2, 3), (4, 2)),
             5: ((1, 5), (5, 3), (2, 4), (4, 1))}

    @pytest.mark.parametrize("label", sorted(ROTATIONS))
    def test_against_dense_oracle(self, label):
        rotation = self.ROTATIONS[label]
        rng = np.random.default_rng(31)
        for n, pairs in self.PAIRS.items():
            for pair in pairs:
                vec = random_dense_state(rng, n)
                state = sparse_of(vec, n)
                branches = dense_rotated_bell_branches(vec, n, pair, rotation.matrix)
                probs = [float(np.vdot(br, br).real) for br in branches]
                for idx, outcome in enumerate(BELL_OUTCOMES):
                    picker = PickRng(idx)
                    got_outcome, col = rotated_bell_measure(state, pair, rotation, picker)
                    assert got_outcome == outcome
                    assert np.allclose(picker.weights, probs, atol=1e-12, rtol=0)
                    want = branches[idx] / np.sqrt(probs[idx])
                    assert col.n == n - 2
                    assert np.abs(dense_of(col) - want).max() < 1e-12
                    forced_outcome, forced = rotated_bell_measure(state, pair, rotation, None, outcome)
                    assert forced_outcome == outcome
                    assert np.array_equal(forced.keys, col.keys)
                    assert np.array_equal(forced.amps, col.amps)


_TELEPORT_AMP = st.one_of(
    st.sampled_from([1, -1, 1j, -1j, 0.5, 1 + 1j]),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


def _measure_or_error(measure, rng, forced):
    try:
        outcome, state = measure(rng, forced)
    except ValueError as exc:
        return ("error", str(exc))
    return outcome, state_bytes(state)


class TestTeleport:
    """The oracle teleport is bit for bit the joint-register chain tensor(state,
    bell_pair()) -> swap_qubits(qubit, n+1) -> rotated_bell_measure on
    (n+1, n+2) from tests/oracles.py: outcome, keys, amplitudes and the
    weights it samples from, for the diagonal rotations (I, S and Sd from
    the precomputed table, T computed on the call)."""

    ROTATIONS = {label: TestRotatedBellMeasureOracle.ROTATIONS[label] for label in ("I", "S", "Sd", "T")}

    def _assert_same(self, state, qubit, rotation):
        n = state.n
        joint = swap_qubits(tensor(state, bell_pair()), qubit, n + 1)

        def fast(rng, forced):
            return teleport(state, qubit, rotation, rng, forced)

        def ref(rng, forced):
            return rotated_bell_measure(joint, (n + 1, n + 2), rotation, rng, forced)

        for idx, outcome in enumerate(BELL_OUTCOMES):
            got_pick, want_pick = PickRng(idx), PickRng(idx)
            got = _measure_or_error(fast, got_pick, None)
            assert got == _measure_or_error(ref, want_pick, None)
            assert got_pick.weights == want_pick.weights
            assert _measure_or_error(fast, None, outcome) == _measure_or_error(ref, None, outcome)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_joint_register(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        keys = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True),
                         label="keys")
        amps = data.draw(st.lists(_TELEPORT_AMP, min_size=len(keys), max_size=len(keys)), label="amps")
        state = SparseState(n, np.array(keys, np.uint64), np.array(amps, complex))
        assume(state.num_terms > 0)
        if data.draw(st.booleans(), label="normalized"):
            state = state.normalized()
        rotation = self.ROTATIONS[data.draw(st.sampled_from(sorted(self.ROTATIONS)), label="rotation")]
        for qubit in range(1, n + 1):
            self._assert_same(state, qubit, rotation)

    def test_gadget_states(self):
        # T-gadget inputs: codeword-like superpositions whose branches cancel
        st_ = from_terms(3, {"000": 2**-0.5, "111": 2**-0.5})
        for q in (1, 2, 3):
            for label in ("I", "S", "Sd"):
                self._assert_same(apply_single(st_, gate("T"), q), q, self.ROTATIONS[label])

    def test_widest_register(self):
        # 62 data qubits make the 64-qubit joint register; bit 61 is set
        state = SparseState(62, np.array([1, (1 << 61) | 1], np.uint64), np.array([0.6, 0.8j]))
        for qubit in (1, 62):
            self._assert_same(state, qubit, gate("S"))

    def test_antidiagonal_rotation(self):
        # X's basis rows have one nonzero per data bit too; outcome a = 0 flips the key
        state = from_terms(2, {"00": 0.6, "10": -0.8j, "11": 0.8})
        for qubit in (1, 2):
            self._assert_same(state, qubit, gate("X"))

    def test_non_monomial_rotation_rejected(self):
        # H mixes both pair halves into every row entry, so no one-key gather exists
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        with pytest.raises(ValueError, match="^teleport takes a diagonal or antidiagonal rotation, got 'H'$"):
            teleport(state, 1, gate("H"), SplitMix64(0))

    def test_qubit_cap(self):
        state = SparseState(63, np.array([1 << 62], np.uint64), np.array([1.0 + 0j]))
        with pytest.raises(ValueError) as want:
            tensor(state, bell_pair())
        with pytest.raises(ValueError, match="65 qubits exceeds the 64-qubit cap") as got:
            teleport(state, 1, IDENT, SplitMix64(0))
        assert str(got.value) == str(want.value)

    def test_term_guard(self, monkeypatch):
        monkeypatch.setattr(states, "TERM_GUARD", 1 << 12)
        half = 1 << 11
        at = SparseState(13, np.arange(half, dtype=np.uint64), np.full(half, half**-0.5))
        _, out = teleport(at, 1, IDENT, SplitMix64(0))
        assert out.n == 13
        over = SparseState(13, np.arange(half + 1, dtype=np.uint64), np.ones(half + 1))
        with pytest.raises(ValueError) as want:
            tensor(over, bell_pair())
        with pytest.raises(ValueError, match="term-count guard") as got:
            teleport(over, 1, IDENT, SplitMix64(0))
        assert str(got.value) == str(want.value)

    def test_zero_state(self):
        zero = SparseState(2, np.array([], np.uint64), np.array([], complex))
        with pytest.raises(ValueError, match="zero-weight state"):
            teleport(zero, 1, IDENT, SplitMix64(0))

    def test_qubit_range(self):
        for qubit in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                teleport(basis_state(2, 0), qubit, IDENT, SplitMix64(0))

    @pytest.mark.parametrize("forced", [(2, 0), (0, -1), (0,), (0, 1, 1), (0.5, 1), (None, 1), "01", 3])
    def test_malformed_forced_outcome(self, forced):
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        with pytest.raises(ValueError, match=r"^forced outcome must be a pair of bits, got ") as err:
            teleport(state, 1, IDENT, SplitMix64(0), forced)
        assert str(err.value).endswith(repr(forced))

    @pytest.mark.parametrize("forced", [[1, 0], (np.int64(1), np.uint8(0)), np.array([1, 0]), (True, False)])
    def test_forced_outcome_forms(self, forced):
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        outcome, out = teleport(state, 1, IDENT, SplitMix64(0), forced)
        want_outcome, want = teleport(state, 1, IDENT, SplitMix64(0), (1, 0))
        assert outcome == want_outcome == (1, 0)
        assert all(type(b) is int for b in outcome)
        assert state_bytes(out) == state_bytes(want)


class TestTeleportDiagonal:
    """teleport(state, q, U, ..., diagonal=g) is bit for bit
    teleport(apply_single(state, g, q), q, U, ...) for g in {T, Td}, every
    rotation of the precomputed table and every outcome, sampled or forced."""

    ROTATIONS = [SingleQubitGate("U", m) for m in _BELL_GATHERS]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_gate_then_teleport(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        keys = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24, unique=True),
                         label="keys")
        amps = data.draw(st.lists(_TELEPORT_AMP, min_size=len(keys), max_size=len(keys)), label="amps")
        state = SparseState(n, np.array(keys, np.uint64), np.array(amps, complex))
        assume(state.num_terms > 0)
        qubit = data.draw(st.integers(1, n), label="qubit")
        for g in (gate("T"), gate("Td")):
            gated = apply_single(state, g, qubit)
            for rotation in self.ROTATIONS:
                def fast(rng, forced):
                    return teleport(state, qubit, rotation, rng, forced, g)

                def ref(rng, forced):
                    return teleport(gated, qubit, rotation, rng, forced)

                for idx, outcome in enumerate(BELL_OUTCOMES):
                    got_pick, want_pick = PickRng(idx), PickRng(idx)
                    assert _measure_or_error(fast, got_pick, None) == _measure_or_error(ref, want_pick, None)
                    assert got_pick.weights == want_pick.weights
                    assert _measure_or_error(fast, None, outcome) == _measure_or_error(ref, None, outcome)

    @pytest.mark.parametrize("label", ["H", "X"])
    def test_non_diagonal_gate_rejected(self, label):
        with pytest.raises(ValueError, match="diagonal gate"):
            teleport(basis_state(1, 0), 1, IDENT, SplitMix64(0), None, gate(label))


def _nonzero_parts(rng, size):
    """Amplitudes whose real and imaginary parts are all nonzero."""
    parts = rng.uniform(0.1, 1.0, (2, size)) * rng.choice([-1.0, 1.0], (2, size))
    return parts[0] + 1j * parts[1]


class TestApplyPhases:
    """apply_monomial of a layer of Z (exponent 4), S (2) and Sd (6) gates is
    those gates applied one by one: bit for bit on amplitudes with nonzero
    parts, and equal in value when a part is zero (only the sign of a zero
    part may differ)."""

    EXPONENTS = {"Z": 4, "S": 2, "Sd": 6}

    def _layer(self, n, run):
        layer = MonomialLayer(n)
        for kind, q in run:
            layer.phase(q, self.EXPONENTS[kind])
        return layer

    @given(st.integers(1, 8), st.lists(st.tuples(st.sampled_from(["Z", "S", "Sd"]), st.integers(1, 8)),
                                       max_size=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_sequential_apply_single(self, n, run, seed):
        rng = np.random.default_rng(seed)
        keys = np.flatnonzero(rng.random(1 << n) < 0.6).astype(np.uint64)
        state = SparseState(n, keys, _nonzero_parts(rng, keys.size))
        run = [(kind, (q - 1) % n + 1) for kind, q in run]
        want = state
        for kind, q in run:
            want = apply_single(want, gate(kind), q)
        got = apply_monomial(state, self._layer(n, run))
        assert state_bytes(got) == state_bytes(want)

    def test_zero_parts_equal_in_value(self):
        parts = [0.0, -0.0, 0.5, -0.5]
        amps = np.array([complex(x, y) for x in parts for y in parts])
        state = _state(4, tuple(range(16)), tuple(amps.tolist()))  # zero terms kept
        for run in (["S"], ["Sd", "Z"], ["S", "S", "Sd"]):
            want = state
            for q, kind in enumerate(run, start=1):
                want = apply_single(want, gate(kind), q)
            got = apply_monomial(state, self._layer(4, [(kind, q) for q, kind in enumerate(run, start=1)]))
            assert np.array_equal(got.amps, want.amps)

    def test_phases_by_key(self):
        state = SparseState(2, np.arange(4, dtype=np.uint64), np.ones(4, complex))
        # S on qubit 1 (bit 0), Z on qubit 2 (bit 1)
        assert apply_monomial(state, self._layer(2, [("S", 1), ("Z", 2)])).amps == (1, 1j, -1, -1j)
        assert apply_monomial(state, self._layer(2, [("Sd", 1), ("Sd", 2)])).amps == (1, -1j, -1j, -1)

    def test_power_count_mismatch(self):
        with pytest.raises(ValueError, match="^layer on 3 qubits, state on 2$"):
            apply_monomial(basis_state(2, 0), MonomialLayer(3))


class TestMonomialGadget:
    """A T gadget of MonomialLayer followed by apply_monomial is the oracle
    teleport of the gated qubit within 1e-15, with the same keys and
    outcome and weights of exactly norm2/4 (1/4 after the layer's first
    gadget); its checks keep teleport's messages and order."""

    ROTATIONS = {"I": IDENTITY, "S": gate("S"), "Sd": gate("Sd")}

    def test_gadget_table_matches_bell_rows(self):
        for label, rotation in self.ROTATIONS.items():
            assert states._GADGET_EXPONENTS[label] == gadget_exponents(rotation), label

    def test_unit_factors(self):
        assert _unit_factors(None)[::2] == (1, 1j, -1, -1j)
        for norm2 in (None, 1.0, 0.36, 2.5):
            scale = 1 if norm2 is None else norm2 ** -0.5
            for j, u in enumerate(_unit_factors(norm2)):
                assert abs(u - scale * np.exp(1j * np.pi / 4 * j)) <= 5e-16 * scale

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_teleport(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        keys = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24, unique=True),
                         label="keys")
        amps = data.draw(st.lists(_TELEPORT_AMP, min_size=len(keys), max_size=len(keys)), label="amps")
        state = SparseState(n, np.array(keys, np.uint64), np.array(amps, complex))
        assume(state.num_terms > 0)
        qubit = data.draw(st.integers(1, n), label="qubit")
        label = data.draw(st.sampled_from(sorted(self.ROTATIONS)), label="rotation")
        kind = data.draw(st.sampled_from(["T", "Td", None]), label="kind")
        gated = state if kind is None else apply_single(state, gate(kind), qubit)
        t = {"T": 1, "Td": 7, None: 0}[kind]
        for idx, outcome in enumerate(BELL_OUTCOMES):
            layer, pick = MonomialLayer(n), PickRng(idx)
            assert layer.gadget(state, qubit, label, t, pick) == outcome
            assert pick.weights == [states._weight(state.amps) / 4] * 4
            got = apply_monomial(state, layer)
            _, want = teleport(gated, qubit, self.ROTATIONS[label], None, outcome)
            assert got.keys == want.keys
            assert np.abs(np.subtract(got.amps, want.amps)).max() <= 1e-15 * max(1.0, state.norm() ** -1)

    def test_later_gadgets_sample_a_quarter(self):
        # squared norm 4: the first gadget's weights are 1, a quarter of it
        state = from_terms(2, {"00": 1.2, "11": 1.6j})
        layer, picks = MonomialLayer(2), [PickRng(1), PickRng(2)]
        layer.gadget(state, 1, "S", 1, picks[0])
        layer.gadget(state, 2, "I", 7, picks[1])
        assert picks[0].weights == [states._weight(state.amps) / 4] * 4
        assert picks[1].weights == [0.25] * 4
        assert abs(apply_monomial(state, layer).norm() - 1) <= 1e-15

    def test_qubit_cap(self):
        state = SparseState(63, np.array([1 << 62], np.uint64), np.array([1.0 + 0j]))
        with pytest.raises(ValueError) as want:
            tensor(state, bell_pair())
        with pytest.raises(ValueError, match="65 qubits exceeds the 64-qubit cap") as got:
            MonomialLayer(63).gadget(state, 1, "I", 1, SplitMix64(0))
        assert str(got.value) == str(want.value)

    def test_term_guard(self, monkeypatch):
        monkeypatch.setattr(states, "TERM_GUARD", 1 << 12)
        half = 1 << 11
        at = SparseState(13, np.arange(half, dtype=np.uint64), np.full(half, half**-0.5))
        layer = MonomialLayer(13)
        layer.gadget(at, 1, "I", 1, SplitMix64(0))
        assert apply_monomial(at, layer).n == 13
        over = SparseState(13, np.arange(half + 1, dtype=np.uint64), np.ones(half + 1))
        with pytest.raises(ValueError) as want:
            tensor(over, bell_pair())
        with pytest.raises(ValueError, match="term-count guard") as got:
            MonomialLayer(13).gadget(over, 1, "I", 1, SplitMix64(0))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("amps", [[], [1e-7, 0]])
    def test_zero_state(self, amps):
        zero = SparseState(2, list(range(len(amps))), amps)
        with pytest.raises(ValueError, match="^measurement on a zero-weight state$"):
            MonomialLayer(2).gadget(zero, 1, "I", 1, SplitMix64(0))

    def test_zero_probability(self):
        # a squared norm in [PRUNE_TOL, 4 PRUNE_TOL) passes the zero-weight check
        state = SparseState(1, [0], [(2 * PRUNE_TOL) ** 0.5])
        with pytest.raises(ValueError, match=r"^outcome \(0, 1\) has zero probability$"):
            MonomialLayer(1).gadget(state, 1, "I", 1, None, (0, 1))

    def test_qubit_range(self):
        for qubit in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                MonomialLayer(2).gadget(basis_state(2, 0), qubit, "I", 1, SplitMix64(0))

    @pytest.mark.parametrize("forced", [(2, 0), (0, -1), (0,), (0, 1, 1), (0.5, 1), (None, 1), "01", 3])
    def test_malformed_forced_outcome(self, forced):
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        with pytest.raises(ValueError, match=r"^forced outcome must be a pair of bits, got ") as err:
            MonomialLayer(1).gadget(state, 1, "I", 1, SplitMix64(0), forced)
        assert str(err.value).endswith(repr(forced))

    @pytest.mark.parametrize("forced", [[1, 0], (np.int64(1), np.uint8(0)), np.array([1, 0]), (True, False)])
    def test_forced_outcome_forms(self, forced):
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        got, want = MonomialLayer(1), MonomialLayer(1)
        outcome = got.gadget(state, 1, "S", 1, SplitMix64(0), forced)
        assert outcome == want.gadget(state, 1, "S", 1, SplitMix64(0), (1, 0)) == (1, 0)
        assert all(type(b) is int for b in outcome)
        assert state_bytes(apply_monomial(state, got)) == state_bytes(apply_monomial(state, want))

    def test_prunes_only_after_a_gadget(self):
        tiny = _state(1, (0, 1), (1 + 0j, complex(PRUNE_TOL / 2)))
        assert apply_monomial(tiny, MonomialLayer(1)).keys == (0, 1)
        layer = MonomialLayer(1)
        layer.gadget(tiny, 1, "I", 0, None, (0, 0))
        assert apply_monomial(tiny, layer).keys == (0,)


class TestTermGuard:
    """Gates that branch terms and combine raise before building a state
    above TERM_GUARD, as tensor does (lowered to 2^12 to stay small)."""

    def test_branching_gate(self, monkeypatch):
        monkeypatch.setattr(states, "TERM_GUARD", 1 << 12)
        half = 1 << 11
        at = SparseState(13, np.arange(half, dtype=np.uint64) << np.uint64(1), np.ones(half))
        assert apply_single(at, gate("H"), 1).num_terms == 1 << 12
        over = SparseState(13, np.arange(half + 1, dtype=np.uint64) << np.uint64(1), np.ones(half + 1))
        with pytest.raises(ValueError, match="gate H result exceeds the term-count guard"):
            apply_single(over, gate("H"), 1)
        # diagonal and permuting gates keep the term count
        assert apply_single(over, gate("T"), 1).num_terms == half + 1
        assert apply_single(over, gate("X"), 1).num_terms == half + 1

    def test_combine(self, monkeypatch):
        monkeypatch.setattr(states, "TERM_GUARD", 1 << 12)
        half = 1 << 11
        low = SparseState(13, np.arange(half, dtype=np.uint64), np.ones(half))
        high = SparseState(13, np.arange(half, dtype=np.uint64) + np.uint64(half), np.ones(half))
        assert combine([low, high], [1.0, 1.0]).num_terms == 1 << 12
        with pytest.raises(ValueError, match="combine result exceeds the term-count guard"):
            combine([low, high, basis_state(13, 0)], [1.0, 1.0, 1.0])


def _sorted_state(n, keys, amps):
    return SparseState(n, np.array(sorted(keys), np.uint64), np.array(amps, complex))


_AMP = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False).filter(
    lambda a: abs(a) > 1e-6
)


class TestInnerSearchsorted:
    """inner looks a's keys up in b's terms and sums the shared ones in a's
    key order, so it equals the intersect1d formula bit for bit."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_intersect1d_bit_for_bit(self, data):
        n = data.draw(st.sampled_from([1, 3, 6, 64]), label="n")
        keys = st.integers(0, (1 << n) - 1)
        ka = data.draw(st.sets(keys, max_size=12), label="a keys")
        relation = data.draw(st.sampled_from(["overlap", "disjoint", "identical"]), label="rel")
        if relation == "identical":
            kb = set(ka)
        else:
            kb = data.draw(st.sets(keys, max_size=12), label="b keys")
            if relation == "disjoint":
                kb -= ka
            else:
                kb |= set(list(ka)[: len(ka) // 2])
        a = _sorted_state(n, ka, data.draw(st.lists(_AMP, min_size=len(ka), max_size=len(ka))))
        b = _sorted_state(n, kb, data.draw(st.lists(_AMP, min_size=len(kb), max_size=len(kb))))
        for x, y in ((a, b), (b, a), (a, a)):
            got, want = np.array([inner(x, y), intersect_inner(x, y)]).view(np.uint64).reshape(2, 2)
            assert np.array_equal(got, want)  # same bits, signed zeros included

    def test_empty_states(self):
        empty = SparseState(3, np.array([], np.uint64), np.array([], complex))
        full = from_terms(3, {0: 0.6, 7: 0.8})
        for x, y in ((empty, full), (full, empty), (empty, empty)):
            assert inner(x, y) == 0j == intersect_inner(x, y)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner(basis_state(2, 0), basis_state(3, 0))


def _terms(state):
    return dict(state.items())


def _random_pauli_n(data, n, label):
    x = data.draw(st.integers(0, (1 << n) - 1), label=f"{label} x")
    z = data.draw(st.integers(0, (1 << n) - 1), label=f"{label} z")
    return PauliOperator(n, x, z, data.draw(st.integers(0, 3), label=f"{label} phase"))


class TestPauliEigenvalues:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_letterwise_and_dense_oracles(self, data):
        n = data.draw(st.sampled_from([1, 2, 3, 4, 5, 64]), label="n")
        keys = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8), label="keys")
        if n == 64 and data.draw(st.booleans(), label="bit 63 set"):
            keys = {k | 1 << 63 for k in keys}
        amps = data.draw(st.lists(_AMP, min_size=len(keys), max_size=len(keys)), label="amps")
        terms = dict(zip(sorted(keys), amps))
        base = _random_pauli_n(data, n, "P0")
        if data.draw(st.booleans(), label="eigenstate of P0"):
            # (psi + P psi / mu) is an eigenstate of P with eigenvalue mu, mu^2 = P^2
            sq = base.multiply(base).phase_value()
            mu = np.sqrt(complex(sq)) * data.draw(st.sampled_from([1, -1]), label="sign")
            image = pauli_image_terms(base, terms)
            terms = {k: terms.get(k, 0) + image.get(k, 0) / mu for k in set(terms) | set(image)}
            terms = {k: a for k, a in terms.items() if abs(a) > 1e-6}
            assume(terms)
        state = from_terms(n, terms)
        # P0 times i^j (odd phases included), its negative, and unrelated Paulis
        j = data.draw(st.integers(0, 3), label="j")
        paulis = [base, PauliOperator(n, base.x, base.z, base.phase + j),
                  PauliOperator(n, base.x, base.z, base.phase + 2), PauliOperator.identity(n)]
        paulis += [_random_pauli_n(data, n, f"P{i}") for i in range(data.draw(st.integers(0, 4)))]
        values, eigen = pauli_eigenvalues(state, paulis)
        assert len(values) == len(eigen) == len(paulis)
        for p, val, ok in zip(paulis, values, eigen):
            want, want_ok = pauli_expectation_terms(p, _terms(state))
            assert abs(val - want) < 1e-9
            assert ok == want_ok, p
            if n <= 5:
                vec = dense_of(state)
                assert abs(val - np.vdot(vec, dense_pauli(p) @ vec)) < 1e-9
        assert eigen[3] and abs(values[3] - state.norm() ** 2) < 1e-9

    def test_plus_minus_one_and_y_parts(self):
        bell = from_terms(2, {0b00: 0.6, 0b11: 0.8})
        values, eigen = pauli_eigenvalues(bell, [parse_pauli(t) for t in ("ZZ", "-ZZ", "IZ")])
        assert np.allclose(values, [1, -1, 0.36 - 0.64]) and eigen == (True, True, False)
        phi = from_terms(2, {0b00: 1, 0b11: 1}).normalized()
        # XX, YY = -XX ZZ and iXZ phases: eigenvalues +1, -1, and +-i for non-Hermitian
        ops = [parse_pauli(t) for t in ("XX", "YY", "XY", "iXX")]
        values, eigen = pauli_eigenvalues(phi, ops)
        assert np.allclose(values, [1, -1, 0, 1j])
        assert eigen == (True, True, False, True)

    def test_bit_63_keys(self):
        n = 64
        top = 1 << 63
        cat = SparseState(n, np.array([1, top | 2], np.uint64), np.array([1, 1j]) / np.sqrt(2))
        # X on qubits 1, 2 and 64 swaps the two keys; Z on qubit 64 tells them apart
        x = PauliOperator(n, top | 3, 0, 0)
        z64 = PauliOperator(n, 0, top, 0)
        xz = PauliOperator(n, top | 3, top, 0)  # X1 X2 (XZ)64: eigenvalue -i on this state
        values, eigen = pauli_eigenvalues(cat, [x, z64, xz])
        for p, val, ok in zip((x, z64, xz), values, eigen):
            want, want_ok = pauli_expectation_terms(p, _terms(cat))
            assert abs(val - want) < 1e-12 and ok == want_ok
        assert eigen == (False, False, True)
        assert np.allclose(values, [0, 0, -1j])

    def test_missing_flipped_key_is_no_eigenstate(self):
        state = from_terms(3, {0b000: 0.6, 0b011: 0.8})
        values, eigen = pauli_eigenvalues(state, [parse_pauli("XII"), parse_pauli("XXI")])
        # X1 maps 000 to 001, which is not stored; X1X2 maps the keys onto each other
        assert values[0] == 0 and not eigen[0]
        assert abs(values[1] - 0.96) < 1e-12 and not eigen[1]

    def test_amplitude_ratios_differ(self):
        state = from_terms(1, {0: 1, 1: 2}).normalized()
        values, eigen = pauli_eigenvalues(state, [parse_pauli("X"), parse_pauli("Z")])
        assert np.allclose(values, [0.8, -0.6]) and not any(eigen)

    def test_more_rows_than_one_block(self):
        # |+>^15: 2^15 terms, read by five Paulis with and without X parts
        n = 15
        plus = SparseState(n, np.arange(1 << n, dtype=np.uint64),
                           np.full(1 << n, 2 ** (-n / 2), complex))
        ops = [PauliOperator(n, (1 << n) - 1, 0, 0), PauliOperator(n, 5, 0, 2),
               PauliOperator(n, 0, 1, 0), PauliOperator(n, 1 << 14, 0, 0),
               PauliOperator(n, 1, 1, 1)]
        values, eigen = pauli_eigenvalues(plus, ops)
        assert np.allclose(values, [1, -1, 0, 1, 0])
        assert eigen == (True, True, False, True, False)

    def test_zero_state_and_no_paulis(self):
        empty = SparseState(2, np.array([], np.uint64), np.array([], complex))
        values, eigen = pauli_eigenvalues(empty, [parse_pauli("ZZ")])
        assert values == (0,) and eigen == (False,)
        values, eigen = pauli_eigenvalues(basis_state(2, 0), [])
        assert values == eigen == ()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: operator on 3, state on 2"):
            pauli_eigenvalues(basis_state(2, 0), [parse_pauli("ZZ"), parse_pauli("ZZZ")])


def _readout_bits(values, eigen):
    """Each value as the reprs of its real and imaginary parts, so that
    signed zeros count, next to its eigen flag."""
    return [(repr(v.real), repr(v.imag), ok) for v, ok in zip(values, eigen)]


class TestPauliEigenvaluesAgainstSignedWeights:
    """pauli_eigenvalues equals the signed-weight readout it replaced
    (oracles.signed_weight_eigenvalues) bit for bit, on eigenstates of Z-only
    Paulis (one parity class), on mixed parities, and on eigenstates of
    Paulis with X parts (eigenvalues +-1 and +-i)."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit(self, data):
        n = data.draw(st.sampled_from([1, 2, 3, 5, 64]), label="n")
        keys = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8), label="keys")
        if n == 64 and data.draw(st.booleans(), label="bit 63 set"):
            keys = {k | 1 << 63 for k in keys}
        z = data.draw(st.integers(0, (1 << n) - 1), label="z")
        kind = data.draw(st.sampled_from(["one parity", "any", "X-part eigenstate"]), label="kind")
        if kind == "one parity":
            # the keys of min(keys)'s parity under z: one term or more
            parity = (min(keys) & z).bit_count() & 1
            keys = {k for k in keys if (k & z).bit_count() & 1 == parity}
        amps = data.draw(st.lists(_AMP, min_size=len(keys), max_size=len(keys)), label="amps")
        terms = dict(zip(sorted(keys), amps))
        base = _random_pauli_n(data, n, "P0")
        if kind == "X-part eigenstate":
            base = PauliOperator(n, base.x | 1, base.z, base.phase)
            # psi + P psi / mu is an eigenstate of P with eigenvalue mu, mu^2 = P^2
            mu = np.sqrt(complex(base.multiply(base).phase_value())) * data.draw(
                st.sampled_from([1, -1]), label="sign")
            image = pauli_image_terms(base, terms)
            terms = {k: terms.get(k, 0) + image.get(k, 0) / mu for k in set(terms) | set(image)}
            terms = {k: a for k, a in terms.items() if abs(a) > 1e-6}
            assume(terms)
        state = from_terms(n, terms)
        paulis = [PauliOperator(n, 0, z, j) for j in range(4)] + [PauliOperator.identity(n)]
        paulis += [PauliOperator(n, base.x, base.z, base.phase + j) for j in range(4)]
        paulis += [_random_pauli_n(data, n, f"P{i}") for i in range(data.draw(st.integers(0, 4)))]
        for ps in (paulis, paulis[:5]):  # the second with no X part: no key dict
            got = _readout_bits(*pauli_eigenvalues(state, ps))
            assert got == _readout_bits(*signed_weight_eigenvalues(state, ps))
        if kind == "one parity":
            assert all(_readout_bits(*pauli_eigenvalues(state, paulis[:5]))[j][2] for j in range(5))

    def test_one_term_and_each_parity(self):
        # one term; then every key even, and every key odd, under ZZZ
        one = from_terms(3, {0b101: -0.0 + 0.5j})
        even = from_terms(3, {0b000: 0.1, 0b011: -0.2j, 0b101: 0.3 - 0.4j})
        odd = from_terms(3, {0b001: 0.3 - 0.4j, 0b010: -0.2j, 0b111: 0.1})
        ops = [parse_pauli(t) for t in ("ZZZ", "-ZZZ", "iZZZ", "-iZZZ", "ZII", "XXI", "IYY")]
        for state in (one, even, odd, even.normalized(), odd.normalized()):
            got = pauli_eigenvalues(state, ops)
            assert _readout_bits(*got) == _readout_bits(*signed_weight_eigenvalues(state, ops))
            assert got[1][:4] == (True,) * 4 and got[1][4] == (state is one)
        assert pauli_eigenvalues(odd.normalized(), ops[:4])[0] == (-1, 1, -1j, 1j)
