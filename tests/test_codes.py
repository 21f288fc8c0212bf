import numpy as np
import pytest

from hqec import gf2
from hqec.codes import (
    BUILTIN_NAMES,
    CODE_CACHE_SIZE,
    CodeFileError,
    StabilizerCode,
    SubcodeError,
    _single_error_table,
    _sympl_vec,
    builtin_code,
    css_from_classical,
    decode_single_error,
    format_code_text,
    logical_codewords,
    parse_code_text,
    syndrome,
    validate_code,
)
from hqec.compat import clifford_correction_for_t
from hqec.pauli import PauliOperator, parse_pauli
from hqec.states import apply_pauli, fidelity_up_to_phase, inner
from oracles import cached_code, cached_code_space

STEANE_ZERO_WORDS = [
    "0000000", "1010101", "0110011", "1100110", "0001111", "1011010", "0111100", "1101001",
]
STEANE_ONE_WORDS = [
    "1111111", "0101010", "1001100", "0011001", "1110000", "0100101", "1000011", "0010110",
]


def stabilizer_group_span(code):
    return gf2.rref([_sympl_vec(g, code.n) for g in code.generators], 2 * code.n)


def in_stabilizer_group(code, p):
    vec = _sympl_vec(p, code.n)
    for b in stabilizer_group_span(code):
        if vec & (b & -b):
            vec ^= b
    return vec == 0


class TestValidate:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_valid(self, name):
        rep = validate_code(cached_code(name))
        assert rep.ok, rep.violations

    def test_two_qubit_toy_valid(self):
        code = StabilizerCode(
            "toy", 2, 0 + 1 - 1,
            (parse_pauli("XX"), parse_pauli("ZZ")),
            (), (),
        )
        rep = validate_code(code)
        assert not [v for v in rep.violations if "anticommute" in v]

    def test_anticommuting_generators_flagged(self):
        code = StabilizerCode("bad", 1, 0, (parse_pauli("X"), parse_pauli("Z")), (), ())
        rep = validate_code(code)
        assert any("anticommute" in v for v in rep.violations)

    def test_dependent_generator_flagged(self):
        code = StabilizerCode(
            "dep", 3, 1,
            (parse_pauli("ZZI"), parse_pauli("IZZ"), parse_pauli("ZIZ")),
            (parse_pauli("XXX"),), (parse_pauli("ZZZ"),),
        )
        rep = validate_code(code)
        assert any("dependent" in v for v in rep.violations)

    def test_minus_identity_flagged(self):
        code = StabilizerCode("neg", 2, 1, (parse_pauli("XX"), parse_pauli("-XX")), (), ())
        rep = validate_code(code)
        assert any("-I" in v for v in rep.violations)

    def test_logical_in_stabilizer_flagged(self):
        code = StabilizerCode(
            "lbad", 3, 1,
            (parse_pauli("ZZI"), parse_pauli("IZZ")),
            (parse_pauli("XXX"),), (parse_pauli("ZZI"),),
        )
        rep = validate_code(code)
        assert any("stabilizer group" in v for v in rep.violations)

    def test_wrong_pairing_flagged(self):
        # logical X and Z chosen equal: they commute, so the pairing fails
        code = StabilizerCode(
            "pair", 3, 1,
            (parse_pauli("ZZI"), parse_pauli("IZZ")),
            (parse_pauli("XXX"),), (parse_pauli("XXX"),),
        )
        rep = validate_code(code)
        assert any("must anticommute" in v for v in rep.violations)


class TestBuiltins:
    def test_shor_generators(self):
        code = cached_code("shor")
        assert code.n == 9 and code.k == 1
        assert code.generators[6].to_string() == "XXXXXXIII"
        assert code.logical_x[0].to_string() == "ZZZZZZZZZ"
        assert code.logical_z[0].to_string() == "XXXXXXXXX"

    def test_bit_flip(self):
        code = cached_code("bit_flip")
        assert [g.to_string() for g in code.generators] == ["ZZI", "IZZ"]
        cs = cached_code_space("bit_flip")
        assert cs.zero.amplitude("000") == 1
        assert cs.one.amplitude("111") == 1

    def test_synthetic_incompatible_shape(self):
        code = cached_code("synthetic_incompatible")
        from hqec.pauli import transversal_pauli

        assert not code.generators[0].commutes(transversal_pauli("X", 3))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_code("nope")


class TestCodewords:
    def test_shor_zero(self):
        cs = cached_code_space("shor")
        assert cs.zero.num_terms == 8
        amp = 1 / (2 * np.sqrt(2))
        assert abs(cs.zero.amplitude("000000000") - amp) < 1e-15
        assert abs(cs.zero.amplitude("111111111") - amp) < 1e-15
        # |1> flips sign on odd numbers of 111 blocks
        assert abs(cs.one.amplitude("111000000") + amp) < 1e-15
        assert abs(cs.one.amplitude("111111000") - amp) < 1e-15

    def test_steane_words_match_coset_lists(self):
        cs = cached_code_space("steane")
        amp = 1 / np.sqrt(8)
        for w in STEANE_ZERO_WORDS:
            assert abs(cs.zero.amplitude(w) - amp) < 1e-15
        for w in STEANE_ONE_WORDS:
            assert abs(cs.one.amplitude(w) - amp) < 1e-15

    def test_rm15_span(self):
        cs = cached_code_space("rm15")
        assert cs.zero.num_terms == 16
        c2 = gf2.code_from_strings([
            "000000011111111", "000111100001111", "011001100110011", "101010101010101",
        ])
        for w in gf2.enumerate_codewords(c2):
            assert abs(cs.zero.amplitude(w) - 0.25) < 1e-15

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_generator_eigenvalues_and_logicals(self, name):
        code = cached_code(name)
        cs = cached_code_space(name)
        for st in cs.basis:
            for g in code.generators:
                assert fidelity_up_to_phase(apply_pauli(st, g), st) > 1 - 1e-12
                assert abs(inner(st, apply_pauli(st, g)) - 1) < 1e-12
        z, x = code.logical_z[0], code.logical_x[0]
        assert abs(inner(cs.zero, apply_pauli(cs.zero, z)) - 1) < 1e-12
        assert abs(inner(cs.one, apply_pauli(cs.one, z)) + 1) < 1e-12
        assert fidelity_up_to_phase(apply_pauli(cs.zero, x), cs.one) > 1 - 1e-12
        assert fidelity_up_to_phase(apply_pauli(cs.one, x), cs.zero) > 1 - 1e-12
        assert abs(inner(cs.zero, cs.one)) < 1e-12

    def test_k_not_one_rejected(self):
        c1 = gf2.code_from_strings(["10", "01"])
        c2 = gf2.code_from_strings(["00"])
        code = css_from_classical(c1, c2)
        assert code.k == 2
        with pytest.raises(ValueError):
            logical_codewords(code)


class TestPerCodeCaches:
    def test_builtin_code_is_memoized(self):
        for name in BUILTIN_NAMES:
            assert builtin_code(name) is builtin_code(name)
        with pytest.raises(ValueError):
            builtin_code("no_such_code")

    def test_cached_codewords_are_read_only(self):
        cs = logical_codewords(builtin_code("steane"))
        assert logical_codewords(builtin_code("steane")) is cs
        for st in cs.basis:
            with pytest.raises(ValueError):
                st.amps[0] = 0
            with pytest.raises(ValueError):
                st.keys[0] = 0

    def test_failures_are_not_cached(self):
        # ZZ chain with the first link negated: logical Z = Z^4 is -1 times a
        # product of generators, so no codeword seed survives the projectors
        text = "4 1\n-ZZII\nIZZI\nIIZZ\nXXXX\nZZZZ\n"
        code = parse_code_text(text, name="signed_chain")
        for _ in range(3):
            with pytest.raises(ValueError, match="no codeword seed"):
                logical_codewords(code)

    def test_caches_stay_at_their_bound(self):
        # distinct names make distinct codes
        text = format_code_text(builtin_code("bit_flip"))
        for i in range(CODE_CACHE_SIZE + 5):
            code = parse_code_text(text, name=f"bf{i}")
            clifford_correction_for_t(logical_codewords(code))
            decode_single_error(code, (1, 0))
        for cached in (logical_codewords, clifford_correction_for_t, _single_error_table):
            info = cached.cache_info()
            assert info.maxsize == CODE_CACHE_SIZE
            assert info.currsize == CODE_CACHE_SIZE


class TestSyndromeDecode:
    def test_bit_flip_x2(self):
        code = cached_code("bit_flip")
        assert syndrome(code, parse_pauli("IXI")) == (1, 1)

    def test_identity_syndrome(self):
        for name in BUILTIN_NAMES:
            code = cached_code(name)
            assert syndrome(code, PauliOperator.identity(code.n)) == (0,) * (code.n - code.k)

    def test_shor_x1_fires_first_generator_only(self):
        code = cached_code("shor")
        assert syndrome(code, parse_pauli("XIIIIIIII")) == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_decode_zero_syndrome(self):
        code = cached_code("shor")
        assert decode_single_error(code, (0,) * 8) == PauliOperator.identity(9)

    def test_decode_bit_flip(self):
        code = cached_code("bit_flip")
        assert decode_single_error(code, (1, 0)).to_string() == "XII"

    def test_shor_z_degeneracy_tie_break(self):
        code = cached_code("shor")
        s = syndrome(code, parse_pauli("ZIIIIIIII"))
        assert decode_single_error(code, s).to_string() == "ZIIIIIIII"
        s5 = syndrome(code, parse_pauli("IIIIZIIII"))
        # any Z in block 2 matches; lowest qubit index wins
        assert decode_single_error(code, s5).to_string() == "IIIZIIIII"

    def test_unmatched_syndrome(self):
        code = cached_code("bit_flip")
        # (Z-type stabilizers see no phase errors; craft an impossible vector)
        assert decode_single_error(code, (1, 1)) is not None
        code2 = cached_code("synthetic_incompatible")
        got = decode_single_error(code2, (1, 1))
        assert got is None or syndrome(code2, got) == (1, 1)

    # the repetition codes cannot correct every weight-1 error; under the
    # X<Y<Z tie-break their correctable singles are X (bit flip) and Y
    # (phase flip, where Y1 and Z1 share a syndrome and Y wins the tie).
    # The three distance-3 codes correct any weight-1 error.
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
    def test_decode_corrects_up_to_degeneracy(self, name, kinds):
        code = cached_code(name)
        for q in range(1, code.n + 1):
            for kind in kinds:
                err = PauliOperator.single(code.n, q, kind)
                corr = decode_single_error(code, syndrome(code, err))
                assert corr is not None
                assert in_stabilizer_group(code, corr.multiply(err))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_decode_result_matches_syndrome(self, name):
        code = cached_code(name)
        for q in range(1, code.n + 1):
            for kind in "XYZ":
                err = PauliOperator.single(code.n, q, kind)
                s = syndrome(code, err)
                corr = decode_single_error(code, s)
                assert corr is not None
                assert syndrome(code, corr) == s


class TestCssConstruction:
    def test_steane_matches_textbook_generators(self):
        code = cached_code("steane")
        textbook_gens = [
            parse_pauli("IIIXXXX"), parse_pauli("IXXIIXX"), parse_pauli("XIXIXIX"),
            parse_pauli("IIIZZZZ"), parse_pauli("IZZIIZZ"), parse_pauli("ZIZIZIZ"),
        ]
        ours = stabilizer_group_span(code)
        theirs = gf2.rref([_sympl_vec(g, 7) for g in textbook_gens], 14)
        assert ours == theirs
        assert code.logical_x[0].to_string() == "XXXXXXX"
        assert code.logical_z[0].to_string() == "ZZZZZZZ"

    def test_rm15_logicals(self):
        code = cached_code("rm15")
        assert code.logical_x[0].to_string() == "X" * 15
        assert code.logical_z[0].to_string() == "Z" * 15
        assert len(code.generators) == 14

    def test_toy_two_qubit(self):
        c1 = gf2.code_from_strings(["11"])
        c2 = gf2.code_from_strings(["00"])
        code = css_from_classical(c1, c2)
        assert code.n == 2 and code.k == 1
        rep = validate_code(code)
        assert rep.ok, rep.violations
        assert not code.logical_x[0].commutes(code.logical_z[0])

    def test_subcode_violation(self):
        c1 = gf2.code_from_strings(["1100"])
        c2 = gf2.code_from_strings(["0011"])
        with pytest.raises(SubcodeError):
            css_from_classical(c1, c2)

    def test_css_validates_for_k2(self):
        c1 = gf2.code_from_strings(["1100", "0011", "1010"])
        c2 = gf2.code_from_strings(["1111"])
        code = css_from_classical(c1, c2)
        assert code.k == 2
        rep = validate_code(code)
        assert rep.ok, rep.violations


class TestCodeFile:
    def test_round_trip(self):
        code = cached_code("shor")
        text = format_code_text(code)
        back = parse_code_text(text, name="shor")
        assert back.generators == code.generators
        assert back.logical_x == code.logical_x
        assert back.logical_z == code.logical_z

    def test_comments_allowed(self):
        text = "# bit flip\n3 1\nZZI\nIZZ\nXXX # logical X\nZZZ\n"
        code = parse_code_text(text)
        assert validate_code(code).ok

    def test_bad_header(self):
        with pytest.raises(CodeFileError):
            parse_code_text("three one\nZZI\n")

    def test_wrong_counts(self):
        with pytest.raises(CodeFileError):
            parse_code_text("3 1\nZZI\nIZZ\nXXX\n")

    def test_bad_operator_length(self):
        with pytest.raises(CodeFileError):
            parse_code_text("3 1\nZZ\nIZZ\nXXX\nZZZ\n")
