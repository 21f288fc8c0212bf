import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec.pauli import PauliOperator, parse_pauli
from hqec.rng import SplitMix64
from hqec.states import (
    SingleQubitGate,
    SparseState,
    apply_cnot,
    apply_pauli,
    apply_single,
    bell_pair,
    fidelity_up_to_phase,
    gate,
    project_onto,
    rotated_bell_measure,
    swap_qubits,
    tensor,
)
from oracles import (
    BELL_OUTCOMES,
    dense_cnot,
    dense_of,
    dense_pauli,
    dense_rotated_bell_branches,
    dense_swap,
    op_on,
    random_dense_state,
    random_pauli,
    sparse_of,
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

    def test_prune(self):
        st_ = SparseState.from_terms(2, {0: 1.0, 3: 1e-13})
        assert st_.num_terms == 1

    def test_key_guard(self):
        with pytest.raises(ValueError):
            SparseState.from_terms(2, {7: 1.0})

    def test_dump_sorted_by_bitstring(self):
        # key 0b10 renders as "01": qubit 1 is the leftmost character
        st_ = SparseState.from_terms(2, {0b10: 0.6, 0b01: 0.8})
        lines = st_.dump_lines()
        assert [ln.split()[0] for ln in lines] == ["01", "10"]
        assert float(lines[0].split()[1]) == pytest.approx(0.6)
        assert float(lines[1].split()[1]) == pytest.approx(0.8)


class TestApplySingle:
    def test_h_on_zero(self):
        out = apply_single(SparseState.from_basis(1, 0), gate("H"), 1)
        assert abs(out.amplitude(0) - 2**-0.5) < 1e-15
        assert abs(out.amplitude(1) - 2**-0.5) < 1e-15

    def test_t_on_block_superposition(self):
        st_ = SparseState.from_terms(3, {"000": 2**-0.5, "111": 2**-0.5})
        for q in (1, 2, 3):
            st_ = apply_single(st_, gate("T"), q)
        w3 = np.exp(1j * 3 * np.pi / 4)
        assert abs(st_.amplitude("000") - 2**-0.5) < 1e-15
        assert abs(st_.amplitude("111") - w3 * 2**-0.5) < 1e-15

    def test_z_phase(self):
        st_ = apply_single(SparseState.from_basis(3, "110"), gate("Z"), 2)
        assert abs(st_.amplitude("110") + 1) < 1e-15

    def test_index_range(self):
        with pytest.raises(ValueError):
            apply_single(SparseState.from_basis(1, 0), gate("X"), 2)

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
        assert apply_cnot(SparseState.from_basis(2, "10"), 1, 2).amplitude("11") == 1
        assert apply_cnot(SparseState.from_basis(2, "01"), 1, 2).amplitude("01") == 1

    def test_cnot_builds_bell(self):
        st_ = SparseState.from_terms(2, {"00": 2**-0.5, "10": 2**-0.5})
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
        assert swap_qubits(SparseState.from_basis(2, "01"), 1, 2).amplitude("10") == 1

    def test_tensor_product(self):
        left = SparseState.from_basis(1, 0)
        out = tensor(left, bell_pair())
        assert out.n == 3 and out.num_terms == 2
        assert abs(out.amplitude("000") - 2**-0.5) < 1e-15
        assert abs(out.amplitude("011") - 2**-0.5) < 1e-15

    def test_tensor_vacuum(self):
        st_ = SparseState.from_terms(2, {"01": 0.6, "10": 0.8})
        assert fidelity_up_to_phase(tensor(st_, SparseState.vacuum()), st_) > 1 - 1e-12
        assert fidelity_up_to_phase(tensor(SparseState.vacuum(), st_), st_) > 1 - 1e-12

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
        st_ = SparseState.from_basis(2, "11")
        out = apply_pauli(st_, parse_pauli("ZI"))
        assert out.amplitude("11") == -1

    def test_identity(self):
        st_ = SparseState.from_terms(2, {"01": 0.6, "10": 0.8})
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
        st_ = SparseState.from_basis(3, "000")
        span = [SparseState.from_basis(3, "000"), SparseState.from_basis(3, "111")]
        proj, w = project_onto(span, st_)
        assert w == pytest.approx(1)
        assert fidelity_up_to_phase(proj, st_) == pytest.approx(1)

    def test_project_orthogonal(self):
        span = [SparseState.from_basis(3, "000"), SparseState.from_basis(3, "111")]
        proj, w = project_onto(span, SparseState.from_basis(3, "010"))
        assert proj is None and w < 1e-20

    def test_non_orthonormal_span_rejected(self):
        a = SparseState.from_basis(2, "00")
        b = SparseState.from_terms(2, {"00": 0.6, "11": 0.8})
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
    def test_teleportation_identity_rotation(self):
        psi = SparseState.from_terms(1, {0: 0.6, 1: 0.8j})
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
        psi = SparseState.from_terms(1, {0: 0.28, 1: 0.96})
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
        psi = SparseState.from_terms(1, {0: 0.6, 1: 0.8})
        counts = {o: 0 for o in ((0, 0), (0, 1), (1, 0), (1, 1))}
        rng = SplitMix64(2024)
        trials = 10_000
        for _ in range(trials):
            st_ = tensor(psi, bell_pair())
            outcome, _ = rotated_bell_measure(st_, (1, 2), IDENT, rng)
            counts[outcome] += 1
        for o, c in counts.items():
            assert abs(c / trials - 0.25) < 0.02

    def test_remaining_index_repacking(self):
        # measure middle pair; outer qubits keep relative order
        psi = SparseState.from_terms(2, {"01": 1.0})
        st_ = tensor(tensor(SparseState.from_basis(1, 1), bell_pair()), SparseState.from_basis(1, 0))
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


class _PickRng:
    """Stands in for the generator: returns a fixed outcome index and keeps
    the weights it was asked to sample from."""

    def __init__(self, pick):
        self.pick = pick
        self.weights = None

    def choice_weighted(self, weights):
        self.weights = list(weights)
        return self.pick


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
                    picker = _PickRng(idx)
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
