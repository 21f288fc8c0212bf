import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import states
from hqec.pauli import MAX_QUBITS, PauliOperator, parse_pauli
from hqec.rng import SplitMix64
from hqec.states import (
    PRUNE_TOL,
    TOL,
    MonomialLayer,
    SingleQubitGate,
    SparseState,
    _coalesce,
    _state,
    _unit_factors,
    apply_cnot,
    apply_monomial,
    apply_pauli,
    apply_single,
    fidelity_up_to_phase,
    gate,
    inner,
    unit_amplitudes,
)
from oracles import (
    BELL_OUTCOMES,
    IDENTITY,
    PickRng,
    basis_state,
    bell_pair,
    dense_cnot,
    dense_gadget_branches,
    dense_of,
    dense_pauli,
    dense_swap,
    from_terms,
    intersect_inner,
    op_on,
    project_onto,
    random_pauli,
    gadget_exponents,
    state_bytes,
    swap_qubits,
    tensor,
    vacuum,
)

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

    def test_qubit_cap(self):
        # one cap with operators and codes: pauli.MAX_QUBITS
        assert SparseState(MAX_QUBITS, [1 << (MAX_QUBITS - 1)], [1.0]).n == 1024
        for n in (-1, MAX_QUBITS + 1):
            with pytest.raises(ValueError, match=rf"^qubit count must be in 0\.\.1024, got {n}$"):
                SparseState(n, [], [])

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

    def test_weight_past_the_float_range_is_inf(self):
        # parts near 1e154 square to finite floats whose fsum overflows
        # (fsum raises OverflowError there); one square past the range is inf
        assert states._weight([1e154, 1e154]) == math.inf
        assert states._weight([complex(1e154, 1e154)]) == math.inf
        assert states._weight([1e200]) == math.inf
        assert states._weight([0.6, 0.8j]) == 1.0

    @pytest.mark.parametrize("keys, amps", [([0], [1e200]), ([0, 3], [1e154, 1e154]),
                                            ([1], [complex(0, math.inf)])])
    def test_normalize_refuses_a_norm_that_is_not_finite(self, keys, amps):
        # 1e200 once normalized to amplitude 0j, and 1e154 raised OverflowError;
        # the constructor refuses an infinite amplitude, so the state is built
        # unchecked, as scaled builds one that overflows
        with pytest.raises(ValueError, match="^cannot normalize a state whose norm is not finite$"):
            _state(2, tuple(keys), tuple([complex(a) for a in amps])).normalized()

    @pytest.mark.parametrize("bad", [math.nan, complex(0.6, math.nan), math.inf, complex(0, -math.inf)])
    def test_constructor_refuses_an_amplitude_that_is_not_finite(self, bad):
        # _coalesce's prune keeps a term only where abs(a) > PRUNE_TOL, false for nan
        for amps in ([bad], [bad, 1.0], [1.0, bad]):
            with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                SparseState(1, range(len(amps)), amps)
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            SparseState(2, [1, 1], [bad, -bad])  # refused before duplicate keys are summed

    def test_normalized_divides_out_a_unit_norm(self):
        # the norm is exactly 1.0, and each amplitude is still multiplied by
        # 1+0j, which turns these negative-zero parts positive; returning the
        # state unchanged at norm 1.0 would keep them
        unit = SparseState(1, [0, 1], [complex(-0.0, -0.6), complex(0.8, -0.0)])
        assert unit.norm() == 1.0
        assert [(a.real.hex(), a.imag.hex()) for a in unit.normalized().amps] == [
            ("0x0.0p+0", "-0x1.3333333333333p-1"), ("0x1.999999999999ap-1", "0x0.0p+0")]

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


def _nonzero_parts(rng, size):
    """Amplitudes whose real and imaginary parts are all nonzero."""
    parts = rng.uniform(0.1, 1.0, (2, size)) * rng.choice([-1.0, 1.0], (2, size))
    return parts[0] + 1j * parts[1]


class TestApplyPhases:
    """apply_monomial of a layer of Z (exponent 4), S (2) and Sd (6) gates is
    those gates applied one by one: bit for bit on amplitudes with nonzero
    parts, and equal in value when a part is zero (only the sign of a zero
    part may differ, except under a layer of one gate)."""

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

    @pytest.mark.parametrize("qubit", [1, 2])
    @pytest.mark.parametrize("kind", ["Z", "S", "Sd"])
    def test_one_gate_bit_for_bit_on_signed_zeros(self, kind, qubit):
        # each of the 16 signed-zero/+-0.5 part pairs under all four values of
        # qubits 1 and 2: the agreement that keeps _OMEGA_POWERS[6] at -1j
        parts = [0.0, -0.0, 0.5, -0.5]
        pairs = [complex(x, y) for x in parts for y in parts]
        state = _state(6, tuple(range(64)), tuple(pairs[k >> 2] for k in range(64)))  # zero terms kept
        got = apply_monomial(state, self._layer(6, [(kind, qubit)]))
        assert state_bytes(got) == state_bytes(apply_single(state, gate(kind), qubit))

    def test_phases_by_key(self):
        state = SparseState(2, np.arange(4, dtype=np.uint64), np.ones(4, complex))
        # S on qubit 1 (bit 0), Z on qubit 2 (bit 1)
        assert apply_monomial(state, self._layer(2, [("S", 1), ("Z", 2)])).amps == (1, 1j, -1, -1j)
        assert apply_monomial(state, self._layer(2, [("Sd", 1), ("Sd", 2)])).amps == (1, -1j, -1j, -1)

    def test_power_count_mismatch(self):
        with pytest.raises(ValueError, match="^layer on 3 qubits, state on 2$"):
            apply_monomial(basis_state(2, 0), MonomialLayer(3))


class TestMonomialGadget:
    """A T gadget of MonomialLayer followed by apply_monomial is the dense
    joint register of dense_gadget_branches: the same outcome and keys, the
    amplitudes within 1e-15 * max(1, 1/|psi|) with the global phase, and
    weights of exactly norm2/4 (1/4 after the layer's first gadget) that
    equal the dense branch weights."""

    # the rotation's omega-exponent u, and its gate
    ROTATIONS = {0: IDENTITY, 2: gate("S"), 6: gate("Sd")}

    def test_gadget_table_matches_bell_rows(self):
        # the closed form: outcome (r_a, r_b) sends |d> to omega^(m_d)
        # |d ^ flip> with (flip, m0, m1) the Bell rows' entry of the outcome
        state = from_terms(1, {0: 0.6, 1: 0.8})
        for u, rotation in self.ROTATIONS.items():
            table = []
            for outcome in BELL_OUTCOMES:
                layer = MonomialLayer(1)
                layer.gadget(state, 1, u, 0, None, outcome)
                table.append((layer.flip, layer.c0 % 8, (layer.c0 + layer.coeffs[0]) % 8))
            assert tuple(table) == gadget_exponents(rotation), u

    def test_unit_factors(self):
        assert _unit_factors(None)[::2] == (1, 1j, -1, -1j)
        for norm2 in (None, 1.0, 0.36, 2.5):
            scale = 1 if norm2 is None else norm2 ** -0.5
            for j, u in enumerate(_unit_factors(norm2)):
                assert abs(u - scale * np.exp(1j * np.pi / 4 * j)) <= 5e-16 * scale

    def test_matches_dense_branches(self):
        # every n <= 6, qubit, rotation, T (t = 1), Td (7) or no gate (0) and
        # outcome, on four states: normalized, with zero real or imaginary
        # parts and norm2 > 1, of norm 1e-3, and (|0..0> + |1..1>)/sqrt2
        rng = np.random.default_rng(22)
        for n in range(1, 7):
            keys = sorted(set(rng.integers(0, 1 << n, 1 << n).tolist()))
            exact = SparseState(n, keys, rng.choice([1, -1, 1j, -1j, 0.5, 1 + 1j], len(keys)))
            cat = from_terms(n, {0: 2**-0.5, (1 << n) - 1: 2**-0.5})
            for state in (random_sparse(rng, n), exact, random_sparse(rng, n).scaled(1e-3), cat):
                vec, bound = dense_of(state), 1e-15 * max(1.0, state.norm() ** -1)
                for qubit, u, t in itertools.product(range(1, n + 1), self.ROTATIONS, (1, 7, 0)):
                    branches = dense_gadget_branches(vec, n, qubit, self.ROTATIONS[u].matrix, t)
                    probs = [np.vdot(b, b).real for b in branches]
                    # the four outcomes weigh a quarter of the squared norm each
                    weights = [states._weight(state.amps) / 4] * 4
                    assert np.abs(np.subtract(weights, probs)).max() <= 1e-12
                    for idx, outcome in enumerate(BELL_OUTCOMES):
                        layer = MonomialLayer(n)
                        assert layer.gadget(state, qubit, u, t, PickRng(idx)) == outcome
                        got = apply_monomial(state, layer)
                        want = branches[idx] / np.sqrt(probs[idx])
                        assert got.keys == tuple(np.flatnonzero(np.abs(want) > PRUNE_TOL).tolist())
                        assert np.abs(dense_of(got) - want).max() <= bound
                        forced = MonomialLayer(n)
                        forced.gadget(state, qubit, u, t, None, outcome)
                        assert state_bytes(apply_monomial(state, forced)) == state_bytes(got)

    def test_later_gadgets_sample_a_quarter(self):
        # squared norm 4: the first gadget records it, the second keeps it,
        # and each draws one word
        state = from_terms(2, {"00": 1.2, "11": 1.6j})
        layer, picks = MonomialLayer(2), [PickRng(1), PickRng(2)]
        assert layer.gadget(state, 1, 2, 1, picks[0]) == BELL_OUTCOMES[1]
        assert picks[0].draws == 1
        assert layer.norm2 == states._weight(state.amps)
        assert layer.gadget(state, 2, 0, 7, picks[1]) == BELL_OUTCOMES[2]
        assert picks[1].draws == 1
        assert layer.norm2 == states._weight(state.amps)
        assert abs(apply_monomial(state, layer).norm() - 1) <= 1e-15

    def test_draw_is_four_times_random(self):
        # a sampled first gadget (squared norms 1 and 2.5) and a sampled
        # later one take outcome int(4 * random()) of the same seed
        first = (from_terms(1, {"0": 0.6, "1": 0.8}), from_terms(1, {"0": 1.5, "1": 0.5}))
        for seed in range(2000):
            want = BELL_OUTCOMES[int(4 * SplitMix64(seed).random())]
            for state in first:
                assert MonomialLayer(1).gadget(state, 1, 0, 1, SplitMix64(seed)) == want
            later = MonomialLayer(1)
            later.gadget(first[0], 1, 0, 1, None, (0, 0))
            assert later.gadget(first[0], 1, 2, 7, SplitMix64(seed)) == want

    def test_outcome_frequencies(self):
        # each outcome's count within 6 sigma of a quarter of the draws
        draws, rng, layer = 40_000, SplitMix64(2024), MonomialLayer(1)
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        counts = dict.fromkeys(BELL_OUTCOMES, 0)
        for _ in range(draws):
            counts[layer.gadget(state, 1, 0, 1, rng)] += 1
        sigma = math.sqrt(draws * 0.25 * 0.75)
        assert all(abs(c - draws / 4) <= 6 * sigma for c in counts.values()), counts

    def test_qubit_cap(self):
        # no register of n + 2 qubits is built, so no cap below MAX_QUBITS
        # applies: (T then S) on the top qubit, outcome (1, 1) flips it and
        # puts omega^(1 + 2 + 4) on its 1
        for n in (63, MAX_QUBITS):
            top = 1 << (n - 1)
            state = from_terms(n, {1: 0.6, top | 1: 0.8})
            layer = MonomialLayer(n)
            assert layer.gadget(state, n, 2, 1, None, (1, 1)) == (1, 1)
            got = apply_monomial(state, layer)
            assert got.keys == (1, top | 1)
            assert np.allclose(got.amps, [0.8 * np.exp(7j * np.pi / 4), 0.6], rtol=0, atol=1e-15)

    def test_term_guard(self, monkeypatch):
        # a gadget keeps the term count, so it runs on states above half
        # of TERM_GUARD (lowered to 2^12 to stay small)
        monkeypatch.setattr(states, "TERM_GUARD", 1 << 12)
        terms = (1 << 11) + 1
        over = SparseState(13, np.arange(terms, dtype=np.uint64), np.ones(terms))
        layer = MonomialLayer(13)
        layer.gadget(over, 1, 0, 1, SplitMix64(0))
        assert apply_monomial(over, layer).num_terms == terms

    @pytest.mark.parametrize("amps", [[], [1e-7, 0]])
    def test_zero_state(self, amps):
        zero = SparseState(2, list(range(len(amps))), amps)
        with pytest.raises(ValueError, match="^measurement on a zero-weight state$"):
            MonomialLayer(2).gadget(zero, 1, 0, 1, SplitMix64(0))

    @pytest.mark.parametrize("amps", [[1e200, 0], [1e154, 1e154]])
    def test_weight_that_is_not_finite(self, amps):
        # refused as a zero weight is, before a forced outcome is read
        state = SparseState(2, [0, 3], amps)
        with pytest.raises(ValueError, match="^measurement on a state whose weight is not finite$"):
            MonomialLayer(2).gadget(state, 1, 0, 1, SplitMix64(0))
        with pytest.raises(ValueError, match="^measurement on a state whose weight is not finite$"):
            MonomialLayer(2).gadget(state, 1, 0, 1, None, "bad")

    def test_zero_probability(self):
        # a squared norm in [PRUNE_TOL, 4 PRUNE_TOL) passes the zero-weight check
        state = SparseState(1, [0], [(2 * PRUNE_TOL) ** 0.5])
        with pytest.raises(ValueError, match=r"^outcome \(0, 1\) has zero probability$"):
            MonomialLayer(1).gadget(state, 1, 0, 1, None, (0, 1))

    def test_qubit_range(self):
        for qubit in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                MonomialLayer(2).gadget(basis_state(2, 0), qubit, 0, 1, SplitMix64(0))

    @pytest.mark.parametrize("forced", [(2, 0), (0, -1), (0,), (0, 1, 1), (0.5, 1), (None, 1), "01", 3])
    def test_malformed_forced_outcome(self, forced):
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        with pytest.raises(ValueError, match=r"^forced outcome must be a pair of bits, got ") as err:
            MonomialLayer(1).gadget(state, 1, 0, 1, SplitMix64(0), forced)
        assert str(err.value).endswith(repr(forced))

    @pytest.mark.parametrize("forced", [[1, 0], (np.int64(1), np.uint8(0)), np.array([1, 0]), (True, False)])
    def test_forced_outcome_forms(self, forced):
        state = from_terms(1, {"0": 0.6, "1": 0.8})
        got, want = MonomialLayer(1), MonomialLayer(1)
        outcome = got.gadget(state, 1, 2, 1, SplitMix64(0), forced)
        assert outcome == want.gadget(state, 1, 2, 1, SplitMix64(0), (1, 0)) == (1, 0)
        assert all(type(b) is int for b in outcome)
        assert state_bytes(apply_monomial(state, got)) == state_bytes(apply_monomial(state, want))

    def test_prunes_only_after_a_gadget(self):
        tiny = _state(1, (0, 1), (1 + 0j, complex(PRUNE_TOL / 2)))
        assert apply_monomial(tiny, MonomialLayer(1)).keys == (0, 1)
        layer = MonomialLayer(1)
        layer.gadget(tiny, 1, 0, 0, None, (0, 0))
        assert apply_monomial(tiny, layer).keys == (0,)


class TestTermGuard:
    """Gates that branch terms raise before building a state above
    TERM_GUARD, as tensor does (lowered to 2^12 to stay small)."""

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


def _sorted_state(n, keys, amps):
    return SparseState(n, sorted(keys), amps)


_AMP = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False).filter(
    lambda a: abs(a) > 1e-6
)


class TestInnerSearchsorted:
    """inner looks a's keys up in b's terms and sums the shared ones in a's
    key order, so it equals the intersect1d formula bit for bit."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_intersect1d_bit_for_bit(self, data):
        n = data.draw(st.sampled_from([1, 3, 6, 64, 65, MAX_QUBITS]), label="n")
        keys = st.integers(0, (1 << n) - 1)
        if n >= 64 and data.draw(st.booleans(), label="top bit set"):
            keys = keys.map(lambda k: k | 1 << (n - 1))
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


# real and imaginary parts, signed zeros among them
_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_nan=False))


class TestBracketSymmetry:
    """<b|a> sums the keys a and b share in the same (sorted) order as
    <a|b>, each term the conjugate of <a|b>'s, so the two have the same
    magnitude bit for bit."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_swapped_brackets_have_equal_magnitude(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        keys = st.integers(0, (1 << n) - 1)
        ka = data.draw(st.sets(keys, max_size=12), label="a keys")
        kb = data.draw(st.sets(keys, max_size=12), label="b keys") | set(list(ka)[: len(ka) // 2])
        a, b = (_state(n, tuple(sorted(k)), tuple(complex(*data.draw(st.tuples(_PART, _PART))) for _ in k))
                for k in (ka, kb))
        ab, ba = inner(a, b), inner(b, a)
        assert abs(ab).hex() == abs(ba).hex()
        assert ab == ba.conjugate()


def _parts(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _bracket(u, lookup: dict) -> complex:
    """<u|psi> for psi as a key -> amplitude dict, summed in u's key order."""
    total = 0j
    for k, x in zip(u.keys, u.amps):
        if k in lookup:
            total += x.conjugate() * lookup[k]
    return total


class TestInnerFastPath:
    """inner sums two states on one key tuple pair by pair, and states on
    differing keys over a dict of the second one's terms: the same sum,
    bit for bit, as a bracket over that dict in the first one's key order."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_key_tuple_equals_the_bracket_sum(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        keys = tuple(sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12), label="keys")))
        a, b = (_state(n, k, tuple(complex(*data.draw(st.tuples(_PART, _PART))) for _ in keys))
                for k in (keys, tuple(list(keys))))  # equal key tuples, not one object
        for x, y in ((a, b), (b, a), (a, a)):
            assert _parts(inner(x, y)) == _parts(_bracket(x, dict(zip(y.keys, y.amps))))

    def test_differing_keys_go_through_the_bracket(self):
        a = _state(2, (0, 1, 3), (complex(-0.0, 0.5), complex(0.6, -0.0), complex(-0.0, -0.8)))
        b = _state(2, (1, 2, 3), (complex(0.6, -0.0), 1j, complex(-0.0, -0.8)))
        want = _bracket(a, dict(zip(b.keys, b.amps)))
        assert want == pytest.approx(1.0)  # 0.6 * 0.6 + 0.8 * 0.8 over keys 1 and 3
        assert _parts(inner(a, b)) == _parts(want)
        assert _parts(inner(b, a)) == _parts(_bracket(b, dict(zip(a.keys, a.amps))))


def test_coalesce_sums_duplicates_and_prunes():
    keys = [5, 3, 5, 3, 9, 9]
    amps = [1.0 + 0j, 2.0 + 0j, -1.0 + 0j, 1.0j, 0.5 + 0j, -0.5 + 0j]
    k, a = _coalesce(keys, amps)
    # key 5 cancels, key 9 cancels, key 3 keeps 2+1j
    assert k == (3,)
    assert a == (2.0 + 1.0j,)


def test_coalesce_empty():
    k, a = _coalesce((), ())
    assert k == () and a == ()


def test_coalesce_reference_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 200))
        keys = rng.integers(0, 40, m).tolist()
        amps = (rng.normal(size=m) + 1j * rng.normal(size=m)).tolist()
        k, a = _coalesce(keys, amps)
        ref = {}
        for key, amp in zip(keys, amps):
            ref[key] = ref.get(key, 0) + amp
        ref = {key: amp for key, amp in ref.items() if abs(amp) > PRUNE_TOL}
        assert sorted(k) == sorted(ref)
        assert list(k) == sorted(k)
        for key, amp in zip(k, a):
            assert abs(amp - ref[key]) < PRUNE_TOL
