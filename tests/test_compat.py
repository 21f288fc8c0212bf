import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import BUILTIN_NAMES, compat, gf2
from hqec.codes import (
    CodeSpace,
    SubcodeError,
    css_from_classical,
    logical_codewords,
    parse_code_text,
)
from hqec.compat import (
    IncompatibleCodeError,
    clifford_correction_for_t,
    css_mask_check,
    diagonal_gate_action,
    stabilizer_mask_check,
)
from hqec.pauli import PauliOperator, transversal_pauli
from hqec.protocol import KeyRegister, encrypt, run_storage_protocol
from hqec.states import _OMEGA_POWERS, TOL, SparseState
from oracles import (
    apply_diagonal,
    basis_state,
    cached_code,
    cached_code_space,
    combine,
    dense_of,
    even_support_check,
    format_code_text,
    project_onto,
    projection_diagonal_action,
)
from test_codewords import clifford_codes, perturbed_codes

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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(clifford_codes(), perturbed_codes()))
    def test_flags_are_transversal_commutations(self, code):
        # the parity flags against the transversal operators' commutes calls
        tx, tz = transversal_pauli("X", code.n), transversal_pauli("Z", code.n)
        rep = stabilizer_mask_check.__wrapped__(code)
        assert [(c.index, c.generator, c.x_commutes, c.z_commutes) for c in rep.generator_checks] == [
            (i + 1, g.to_string(), tx.commutes(g), tz.commutes(g)) for i, g in enumerate(code.generators)]
        assert rep.verdict == all(tx.commutes(g) and tz.commutes(g) for g in code.generators)

    def test_no_pauli_text_until_read(self, monkeypatch):
        # the six builtins and rm15 with its qubits in reverse order
        head, *ops = format_code_text(cached_code("rm15")).splitlines()
        reversed_rm15 = parse_code_text("\n".join([head] + [op[::-1] for op in ops]), "reversed_rm15")
        codes = [cached_code(name) for name in BUILTIN_NAMES] + [reversed_rm15]
        real, calls = PauliOperator.to_string, []

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(PauliOperator, "to_string", counted)
        reports = [stabilizer_mask_check.__wrapped__(code) for code in codes]
        assert calls == []
        assert [len(r.generator_checks) for r in reports] == [2, 2, 8, 6, 14, 2, 14]
        bad = reports[BUILTIN_NAMES.index("synthetic_incompatible")]
        assert bad.generator_checks[0].generator == "ZZZ" and len(calls) == 1
        assert reports[-1].generator_checks[0].generator == "XIXIXIXIXIXIXIX"[::-1]
        assert bad.as_dict() == {"code": "synthetic_incompatible", "verdict": False, "generators": [
            {"index": 1, "generator": "ZZZ", "x_commutes": False, "z_commutes": True},
            {"index": 2, "generator": "XXI", "x_commutes": True, "z_commutes": True}]}
        with pytest.raises(IncompatibleCodeError) as info:
            run_storage_protocol("synthetic_incompatible", (1, 0), (0, 0))
        assert str(info.value) == ("synthetic_incompatible is not mask-compatible: generator 1 (ZZZ) "
                                   "anticommutes with a transversal mask component")

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

    def test_length_mismatch(self):
        c1 = gf2.code_from_strings(["1111"])
        c2 = gf2.code_from_strings(["000"])
        with pytest.raises(ValueError, match="^classical codes differ in length$"):
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


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestExactOutput:
    """Leakage, phases and correction are exact: one float for each value,
    with no rounding noise from a float projection."""

    def test_rm15_t_phases_and_correction(self):
        cs = cached_code_space("rm15")
        da = diagonal_gate_action(cs, OMEGA, label="T")
        assert [_hex(p) for p in da.logical_phases] == [_hex(1 + 0j), _hex(_OMEGA_POWERS[7])]
        assert _hex(clifford_correction_for_t(cs).global_phase) == _hex(1 + 0j)

    @pytest.mark.parametrize("name,squared", [("phase_flip", 3 / 8), ("shor", 3 / 8), ("steane", 7 / 16),
                                              ("synthetic_incompatible", 1 / 4)])
    def test_t_leakage(self, name, squared):
        da = diagonal_gate_action(cached_code_space(name), OMEGA, label="T")
        assert da.leakage.hex() == math.sqrt(squared).hex() and da.logical_phases is None

    def test_phase_not_a_power_of_omega_is_refused(self):
        cs = cached_code_space("rm15")
        before = compat._diagonal_action.cache_info()
        with pytest.raises(ValueError, match=r"^phase .* is not a power of omega = exp\(i pi/4\)$"):
            diagonal_gate_action(cs, np.exp(1j * np.pi / 8))
        assert compat._diagonal_action.cache_info() == before


# every power of omega, and e^(i pi/8), which is none
PHASES = (OMEGA, OMEGA.conjugate(), -1j, 1.0, -1.0, np.exp(1j * np.pi / 8), 1j, OMEGA**3, OMEGA**5)


def _same_verdict(cs, phase):
    """diagonal_gate_action against projection_diagonal_action: the same
    message where both raise, phases reported by both or neither, and the
    numbers within 1e-12; a phase that is no power of omega is refused."""
    if min(abs(phase - OMEGA**p) for p in range(8)) > 1e-9:
        with pytest.raises(ValueError, match=r"is not a power of omega = exp\(i pi/4\)$"):
            diagonal_gate_action(cs, phase)
        return
    try:
        want = projection_diagonal_action(cs, phase)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            diagonal_gate_action(cs, phase)
        return
    da = diagonal_gate_action(cs, phase)
    assert abs(da.leakage - want[0]) < 1e-12
    assert (da.logical_phases is None) == (want[1] is None)
    if want[1] is not None:
        assert max(abs(a - b) for a, b in zip(da.logical_phases, want[1])) < 1e-12


def _fresh(cs):
    """An equal code space with new state objects, so no memo entry matches it."""
    return CodeSpace(cs.code, tuple(SparseState(b.n, b.keys, b.amps) for b in cs.basis))


class TestDiagonalActionOracle:
    """diagonal_gate_action against the projection route of tests/oracles.py
    (project_onto and a per-key phase): the same verdict, within 1e-12."""

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, phase):
        _same_verdict(cached_code_space(name), phase)

    @settings(max_examples=150, deadline=None)
    @given(clifford_codes(), st.sampled_from(PHASES))
    def test_random_codes(self, code, phase):
        _same_verdict(logical_codewords(code), phase)

    @pytest.mark.parametrize("phase", PHASES)
    def test_partly_shared_keys(self, phase):
        # an orthonormal hand-built basis whose states share two keys of four
        zero = SparseState(3, [0, 1, 2, 3], [0.5, 0.5, 0.5j, -0.5])
        one = SparseState(3, [0, 1, 4, 5], [0.5, -0.5, -0.5j, 0.5j])
        _same_verdict(CodeSpace(cached_code("bit_flip"), (zero, one)), phase)

    @pytest.mark.parametrize("phase", PHASES)
    def test_disjoint_keys(self, phase):
        # an orthonormal hand-built basis on disjoint keys that is no code
        # space: i^e/2 amplitudes on keys of mixed weight, so T leaks
        zero = SparseState(3, [0, 1, 3, 7], [0.5, 0.5j, -0.5, 0.5])
        one = SparseState(3, [2, 4, 5, 6], [-0.5j, 0.5, 0.5, 0.5j])
        cs = CodeSpace(cached_code("bit_flip"), (zero, one))
        assert set(zero.keys).isdisjoint(one.keys) and diagonal_gate_action(cs, OMEGA).leakage > 0.1
        _same_verdict(cs, phase)

    def test_basis_of_other_amplitudes_is_refused(self):
        # orthonormal, but its amplitudes are not i^e / sqrt(N)
        zero, one = SparseState(1, [0, 1], [0.6, 0.8]), SparseState(1, [0, 1], [0.8, -0.6])
        with pytest.raises(ValueError, match=r"^code-space amplitudes are not all i\^e/sqrt\(N\)$"):
            diagonal_gate_action(CodeSpace(cached_code("bit_flip"), (zero, one)), OMEGA)

    @pytest.mark.parametrize("which", ["repeated", "unnormalized"])
    def test_non_orthonormal_basis(self, which):
        cs = cached_code_space("steane")
        second = cs.zero if which == "repeated" else cs.one.scaled(1.5)
        bad = CodeSpace(cs.code, (cs.zero, second))
        for action in (diagonal_gate_action, projection_diagonal_action):
            with pytest.raises(ValueError, match="^projection span is not orthonormal$"):
                action(bad, OMEGA)
        with pytest.raises(ValueError, match="^projection span is not orthonormal$"):
            clifford_correction_for_t(bad)


    def test_overflowing_zero_is_not_orthonormal(self):
        # N m^2 past the float range reads inf, and no OverflowError is raised
        cs = cached_code_space("bit_flip")
        bad = CodeSpace(cs.code, (SparseState(3, [0, 7], [1e154, 1e154]), cs.one))
        with pytest.raises(ValueError, match="^projection span is not orthonormal$"):
            diagonal_gate_action(bad, OMEGA)
        with pytest.raises(ValueError, match="^projection span is not orthonormal$"):
            clifford_correction_for_t(bad)

    def test_basis_on_different_qubit_counts(self):
        cs = cached_code_space("bit_flip")
        bad = CodeSpace(cs.code, (cs.zero, basis_state(4, "1110")))
        for action in (diagonal_gate_action, projection_diagonal_action):
            with pytest.raises(ValueError, match="^dimension mismatch"):
                action(bad, OMEGA)

    def test_unnormalized_zero_raises_before_the_size_check(self):
        # |0>'s amplitudes are checked first, then the qubit counts, then
        # |1> and <0|1> (the oracle route fails in its combination instead)
        cs = cached_code_space("bit_flip")
        bad = CodeSpace(cs.code, (cs.zero.scaled(1.5), basis_state(4, "1110")))
        with pytest.raises(ValueError, match="^projection span is not orthonormal$"):
            diagonal_gate_action(bad, OMEGA)
        with pytest.raises(ValueError, match="^projection span is not orthonormal$"):
            clifford_correction_for_t(bad)

    def test_normalized_zero_size_mismatch_message(self):
        cs = cached_code_space("bit_flip")
        bad = CodeSpace(cs.code, (cs.zero, basis_state(4, "1110").scaled(3.0)))
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
            diagonal_gate_action(bad, OMEGA)
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
            clifford_correction_for_t(bad)


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

    @pytest.mark.parametrize("which", ["unnormalized", "sizes"])
    def test_raise_on_sizes_caches_nothing(self, which):
        cs = cached_code_space("bit_flip")
        zero = cs.zero.scaled(1.5) if which == "unnormalized" else cs.zero
        bad = CodeSpace(cs.code, (zero, basis_state(4, "1110")))
        for calls in range(1, 4):
            for action in (lambda: diagonal_gate_action(bad, OMEGA), lambda: clifford_correction_for_t(bad)):
                before = compat._diagonal_action.cache_info()
                with pytest.raises(ValueError):
                    action()
                after = compat._diagonal_action.cache_info()
                assert (after.misses, after.hits) == (before.misses + 1, before.hits), calls


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
