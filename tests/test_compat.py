import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import compat, gf2
from hqec.codes import (
    BUILTIN_NAMES,
    CodeSpace,
    SubcodeError,
    css_from_classical,
    logical_codewords,
    parse_code_text,
)
from hqec.compat import (
    clifford_correction_for_t,
    css_mask_check,
    diagonal_gate_action,
    stabilizer_mask_check,
)
from hqec.protocol import KeyRegister, encrypt
from hqec.states import TOL, SparseState, combine
from oracles import (
    apply_diagonal,
    basis_state,
    cached_code,
    cached_code_space,
    dense_of,
    even_support_check,
    project_onto,
    projection_diagonal_action,
)
from test_codewords import clifford_codes

OMEGA = np.exp(1j * np.pi / 4)

COMPATIBLE = ("bit_flip", "phase_flip", "shor", "steane", "rm15")


class TestStabilizerMaskCheck:
    @pytest.mark.parametrize("name", COMPATIBLE)
    def test_compatible(self, name):
        rep = stabilizer_mask_check(cached_code(name))
        assert rep.verdict
        assert all(g.ok for g in rep.generator_checks)

    def test_synthetic_fails_on_zzz(self):
        rep = stabilizer_mask_check(cached_code("synthetic_incompatible"))
        assert not rep.verdict
        bad = rep.failing_generators()
        assert bad[0].generator == "ZZZ"
        assert not bad[0].x_commutes
        assert bad[0].z_commutes

    def test_css_cross_check_populated(self):
        for name in ("steane", "rm15"):
            rep = stabilizer_mask_check(cached_code(name))
            assert rep.css_verdict is True
            assert rep.cross_check_ok is True


class TestCssMaskCheck:
    def test_steane_pair(self):
        c1, c2 = cached_code("steane").css_origin
        rep = css_mask_check(c1, c2)
        assert rep.e_in_c1 and rep.c2_all_even and rep.verdict

    def test_odd_weight_subcode(self):
        c1 = gf2.code_from_strings(["100", "010", "001"])
        c2 = gf2.code_from_strings(["111"])
        rep = css_mask_check(c1, c2)
        assert rep.e_in_c1 and not rep.c2_all_even and not rep.verdict

    def test_missing_all_ones(self):
        c1 = gf2.code_from_strings(["1000", "0100", "0010"])
        c2 = gf2.code_from_strings(["0000"])
        rep = css_mask_check(c1, c2)
        assert not rep.e_in_c1 and rep.c2_all_even and not rep.verdict

    def test_subcode_enforced(self):
        c1 = gf2.code_from_strings(["1100"])
        c2 = gf2.code_from_strings(["0011"])
        with pytest.raises(SubcodeError):
            css_mask_check(c1, c2)

    @pytest.mark.parametrize(
        "c1_rows,c2_rows",
        [
            (["111"], ["000"]),
            (["110", "011"], ["110"]),
            (["100", "010", "001"], ["110", "011"]),
            (["11110", "00111"], ["11110"]),
        ],
    )
    def test_matches_stabilizer_check_on_css_codes(self, c1_rows, c2_rows):
        # the classical two-condition check and the generator commutation
        # check must agree on every CSS instance
        c1 = gf2.code_from_strings(c1_rows)
        c2 = gf2.code_from_strings(c2_rows)
        if not gf2.is_subcode(c2, c1) or c1.dimension <= c2.dimension:
            pytest.skip("not a valid nested pair")
        code = css_from_classical(c1, c2)
        rep = stabilizer_mask_check(code)
        assert rep.css_verdict == rep.verdict
        assert rep.cross_check_ok


class TestEvenSupport:
    def test_shor_supports(self):
        code = cached_code("shor")
        z_supports = [g.z for g in code.generators[:6]]
        x_supports = [g.x for g in code.generators[6:]]
        assert even_support_check(z_supports, x_supports)

    def test_empty_vacuous(self):
        assert even_support_check([], [])

    def test_odd_support(self):
        assert not even_support_check([0b111], [])
        assert not even_support_check([0b11], [0b1011])


class TestDiagonalAction:
    def test_shor_t_leaks(self):
        da = diagonal_gate_action(cached_code_space("shor"), OMEGA, label="T")
        assert da.leakage > 0.1
        assert abs(da.leakage - np.sqrt(3 / 8)) < 1e-12
        assert da.logical_phases is None

    def test_shor_t_leakage_dense_oracle(self):
        # independent dense 512-dim check of the leakage number
        cs = cached_code_space("shor")
        ref = combine(list(cs.basis), [2**-0.5, 2**-0.5])
        vec = dense_of(ref)
        tphase = np.array([OMEGA ** int(k).bit_count() for k in range(512)])
        out = vec * tphase
        b0, b1 = dense_of(cs.zero), dense_of(cs.one)
        w = abs(np.vdot(b0, out)) ** 2 + abs(np.vdot(b1, out)) ** 2
        assert abs(np.sqrt(1 - w) - np.sqrt(3 / 8)) < 1e-12

    def test_shor_t_output_vs_projection_fidelity(self):
        # overlap between the transformed state and its renormalized
        # code-space projection is sqrt(weight) = sqrt(5/8) < 1
        cs = cached_code_space("shor")
        ref = combine(list(cs.basis), [2**-0.5, 2**-0.5])
        out = apply_diagonal(ref, OMEGA)
        proj, weight = project_onto(list(cs.basis), out)
        from hqec.states import fidelity_up_to_phase

        fid = fidelity_up_to_phase(out, proj.normalized())
        assert fid < 1
        assert abs(fid - np.sqrt(5 / 8)) < 1e-12

    def test_rm15_t_preserves(self):
        da = diagonal_gate_action(cached_code_space("rm15"), OMEGA, label="T")
        assert da.leakage < 1e-10
        assert abs(da.logical_phases[0] - 1) < 1e-12
        assert abs(da.logical_phases[1] - np.exp(-1j * np.pi / 4)) < 1e-12

    def test_identity_trivial(self):
        for name in ("bit_flip", "shor", "rm15"):
            da = diagonal_gate_action(cached_code_space(name), 1.0, label="I")
            assert da.leakage == 0
            assert all(abs(p - 1) < 1e-12 for p in da.logical_phases)

    def test_rm15_sdg_acts_as_logical_s(self):
        da = diagonal_gate_action(cached_code_space("rm15"), -1j, label="Sd")
        assert da.leakage < 1e-10
        assert abs(da.logical_phases[0] - 1) < 1e-12
        assert abs(da.logical_phases[1] - 1j) < 1e-12


PHASES = (OMEGA, OMEGA.conjugate(), -1j, 1.0, -1.0, np.exp(1j * np.pi / 8))


def _exact(action, cs, phase):
    """action(cs, phase) -> (leakage, phases) as exact hex strings, or the
    message it raises."""
    try:
        leakage, phases = action(cs, phase)
    except ValueError as exc:
        return str(exc)
    return leakage.hex(), None if phases is None else [(p.real.hex(), p.imag.hex()) for p in phases]


def _library_action(cs, phase):
    da = diagonal_gate_action(cs, phase)
    return da.leakage, da.logical_phases


def _fresh(cs):
    """An equal code space with new state objects, so no memo entry matches it."""
    return CodeSpace(cs.code, tuple(SparseState(b.n, b.keys, b.amps) for b in cs.basis))


class TestDiagonalActionOracle:
    """diagonal_gate_action against the projection route of tests/oracles.py
    (project_onto and a per-key phase), bit for bit."""

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, phase):
        cs = cached_code_space(name)
        assert _exact(_library_action, cs, phase) == _exact(projection_diagonal_action, cs, phase)

    @settings(max_examples=150, deadline=None)
    @given(clifford_codes(), st.sampled_from(PHASES))
    def test_random_codes(self, code, phase):
        cs = logical_codewords(code)
        assert _exact(_library_action, cs, phase) == _exact(projection_diagonal_action, cs, phase)

    @pytest.mark.parametrize("which", ["repeated", "unnormalized"])
    def test_non_orthonormal_basis(self, which):
        cs = cached_code_space("steane")
        second = cs.zero if which == "repeated" else cs.one.scaled(1.5)
        bad = CodeSpace(cs.code, (cs.zero, second))
        for action in (diagonal_gate_action, projection_diagonal_action):
            with pytest.raises(ValueError, match="^projection span is not orthonormal$"):
                action(bad, OMEGA)


    def test_basis_on_different_qubit_counts(self):
        cs = cached_code_space("bit_flip")
        bad = CodeSpace(cs.code, (cs.zero, basis_state(4, "1110")))
        for action in (diagonal_gate_action, projection_diagonal_action):
            with pytest.raises(ValueError, match="^dimension mismatch"):
                action(bad, OMEGA)


class TestDiagonalActionMemo:
    def test_t_action_shared_with_correction(self):
        cs = _fresh(cached_code_space("rm15"))
        before = compat._diagonal_action.cache_info()
        da = diagonal_gate_action(cs, OMEGA, "T")  # a numpy complex phase
        corr = clifford_correction_for_t(cs)  # compat.OMEGA, a Python complex
        after = compat._diagonal_action.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
        assert da.gate_label == "T" and corr.logical_s_power == 1

    def test_raise_caches_nothing(self):
        cs = cached_code_space("steane")
        bad = CodeSpace(cs.code, (cs.zero, cs.zero))
        before = compat._diagonal_action.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match="not orthonormal"):
                diagonal_gate_action(bad, OMEGA)
            with pytest.raises(ValueError, match="not orthonormal"):
                clifford_correction_for_t(bad)
        after = compat._diagonal_action.cache_info()
        assert after.misses == before.misses + 4
        assert after.hits == before.hits


class TestNotDiagonalOnCodeSpace:
    """A gate that keeps the code space but mixes its basis states is a
    verdict (no logical phases), not an input error."""

    def test_phase_flip_z_layer_is_logical_x(self):
        # Z on every qubit of the phase-flip code is its logical X
        cs = _fresh(cached_code_space("phase_flip"))
        before = compat._diagonal_action.cache_info()
        for _ in range(2):
            da = diagonal_gate_action(cs, -1.0)
            assert da.leakage < TOL and da.logical_phases is None
        after = compat._diagonal_action.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)

    def test_plus_state_code_t(self):
        # n = k = 1 with logical Z = X: |0_L> = |+>, and T maps |+> into span{|+>, |->}
        cs = logical_codewords(parse_code_text("1 1\nZ\nX\n", "plus"))
        da = diagonal_gate_action(cs, OMEGA, "T")
        assert da.leakage < TOL and da.logical_phases is None
        assert clifford_correction_for_t(cs) is None


class TestCliffordCorrection:
    def test_rm15_s_correction(self):
        corr = clifford_correction_for_t(cached_code_space("rm15"))
        assert corr is not None
        assert corr.logical_s_power == 1
        assert corr.logical_z_power == 0
        assert abs(corr.global_phase - 1) < 1e-12

    def test_shor_not_correctable(self):
        assert clifford_correction_for_t(cached_code_space("shor")) is None

    def test_correction_reproduces_logical_t_on_codewords(self):
        cs = cached_code_space("rm15")
        for basis_index, expect_phase in ((0, 1.0), (1, OMEGA)):
            st = cs.basis[basis_index]
            out = apply_diagonal(apply_diagonal(st, OMEGA), -1j)  # T then Sd per qubit
            want = st.scaled(expect_phase)
            diff = combine([out, want], [1.0, -1.0]).norm()
            assert diff < 1e-12


class TestMaskInvariants:
    @pytest.mark.parametrize("name", COMPATIBLE)
    def test_masks_keep_codewords_in_code_space(self, name):
        code = cached_code(name)
        cs = cached_code_space(name)
        for a in (0, 1):
            for b in (0, 1):
                keys = KeyRegister.uniform(code.n, a, b)
                for st in cs.basis:
                    enc = encrypt(st, keys)
                    _, weight = project_onto(list(cs.basis), enc)
                    assert abs(weight - 1) < 1e-12

    def test_synthetic_mask_escapes_code_space(self):
        code = cached_code("synthetic_incompatible")
        cs = cached_code_space("synthetic_incompatible")
        keys = KeyRegister.uniform(3, 1, 0)
        enc = encrypt(cs.zero, keys)
        proj, weight = project_onto(list(cs.basis), enc)
        assert proj is None and weight < 1e-20


@st.composite
def nested_pairs(draw):
    """Classical codes C2 < C1 of length 2..10 with dim C1 > dim C2.  C1
    holds the all-ones word and C2 has only even-weight generators about
    half the time each, so all four verdict cases come up."""
    n = draw(st.integers(2, 10))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    if draw(st.booleans()):
        rows.append((1 << n) - 1)
    c1 = gf2.code_from_rows(gf2.BitMatrix(tuple(rows), n))
    k1 = c1.dimension
    masks = draw(st.lists(st.integers(1, (1 << k1) - 1), max_size=k1 - 1))
    sub = [0]  # the zero word keeps C2's generator matrix non-empty
    for m in masks:
        word = 0
        for i, b in enumerate(c1.basis):
            if m >> i & 1:
                word ^= b
        sub.append(word)
    if draw(st.booleans()):
        sub = [w for w in sub if w.bit_count() % 2 == 0]
    return c1, gf2.code_from_rows(gf2.BitMatrix(tuple(sub), n))


class TestTheorem1AgreesWithCss:
    @given(nested_pairs())
    @settings(max_examples=150, deadline=None)
    def test_symplectic_verdict_equals_classical_verdict(self, pair):
        c1, c2 = pair
        code = css_from_classical(c1, c2)
        rep = stabilizer_mask_check(code)
        assert rep.verdict == css_mask_check(c1, c2).verdict
        assert rep.cross_check_ok
        # the geometric parity argument: every Z-type and X-type support is even
        z_supports = [g.z for g in code.generators if not g.x]
        x_supports = [g.x for g in code.generators if not g.z]
        assert even_support_check(z_supports, x_supports) == rep.verdict


def test_omega_is_numpy_value_bit_for_bit():
    want = np.exp(1j * np.pi / 4)
    assert (compat.OMEGA.real.hex(), compat.OMEGA.imag.hex()) == (want.real.hex(), want.imag.hex())
