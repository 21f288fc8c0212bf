import numpy as np
import pytest

from hqec import BUILTIN_NAMES, compat, gf2
from hqec.codes import (
    CODE_CACHE_SIZE,
    CodeFileError,
    StabilizerCode,
    SubcodeError,
    _single_error_table,
    builtin_code,
    css_from_classical,
    decode_single_error,
    logical_codewords,
    parse_code_text,
    syndrome,
    validate_code,
)
from hqec.compat import clifford_correction_for_t, stabilizer_mask_check
from hqec.pauli import PauliOperator, parse_pauli, transversal_pauli
from hqec.states import apply_pauli, fidelity_up_to_phase, inner
from oracles import (
    cached_code,
    cached_code_space,
    enumerate_codewords,
    format_code_text,
    sympl_vec,
)

STEANE_ZERO_WORDS = [
    "0000000", "1010101", "0110011", "1100110", "0001111", "1011010", "0111100", "1101001",
]
STEANE_ONE_WORDS = [
    "1111111", "0101010", "1001100", "0011001", "1110000", "0100101", "1000011", "0010110",
]


def stabilizer_group_span(code):
    return gf2.rref([sympl_vec(g, code.n) for g in code.generators])


def in_stabilizer_group(code, p):
    vec = sympl_vec(p, code.n)
    for b in stabilizer_group_span(code):
        if vec & (b & -b):
            vec ^= b
    return vec == 0


class TestConstructor:
    def test_lists_are_analysed_like_tuples(self):
        zzi, izz, xxx, zzz = map(parse_pauli, ("ZZI", "IZZ", "XXX", "ZZZ"))
        listed = StabilizerCode("c", 3, 1, [zzi, izz], [xxx], [zzz])
        tupled = StabilizerCode("c", 3, 1, (zzi, izz), (xxx,), (zzz,))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.generators == (zzi, izz) and type(listed.logical_x) is tuple
        assert validate_code(listed) == validate_code.__wrapped__(tupled)
        assert stabilizer_mask_check(listed) == stabilizer_mask_check.__wrapped__(tupled)
        spaces = logical_codewords(listed), logical_codewords.__wrapped__(tupled)
        assert [b.keys for b in spaces[0].basis] == [b.keys for b in spaces[1].basis]
        assert [b.amps for b in spaces[0].basis] == [b.amps for b in spaces[1].basis]

    @pytest.mark.parametrize("n", [0, -1, 1025])
    def test_qubit_count_out_of_range(self, n):
        with pytest.raises(ValueError, match=rf"^qubit count must be in 1\.\.1024, got {n}$"):
            StabilizerCode("c", n, 0, (), (), ())
        assert StabilizerCode("c", 1024, 0, (), (), ()).n == 1024

    def test_replace_goes_through_the_checks(self):
        code = builtin_code("bit_flip")
        with pytest.raises(ValueError, match="^operator ZZI acts on 3 qubits, expected 5$"):
            code._replace(n=5)
        listed = code._replace(generators=list(code.generators))
        assert listed == code and type(listed.generators) is tuple


class TestValidate:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_valid(self, name):
        rep = validate_code(cached_code(name))
        assert rep.ok, rep.violations

    @pytest.mark.parametrize(
        "gens, violation",
        [
            (("YYI", "XXI", "ZZI"), "-I is in the group generated (via generator 3)"),
            (("-YYI", "XXI", "ZZI"), "generator 3 (ZZI) is dependent on earlier generators"),
            (("ZZI", "XXI", "YYI"), "-I is in the group generated (via generator 3)"),
            (("ZZI", "XXI", "-YYI"), "generator 3 (-YYI) is dependent on earlier generators"),
        ],
    )
    def test_dependent_generator_phase(self, gens, violation):
        # YY * XX = -ZZ: whether a dependent generator brings -I into the
        # group depends on the phase of the tracked product
        code = StabilizerCode("dep", 3, 0, tuple(parse_pauli(g) for g in gens), (), ())
        assert violation in validate_code(code).violations

    @pytest.mark.parametrize("gen, hermitian", [("iZZ", False), ("-iXY", False), ("YY", True),
                                                 ("iYZ", False), ("-YZ", True)])
    def test_non_hermitian_generator_flagged(self, gen, hermitian):
        # i^phase X(x) Z(z) is Hermitian iff phase and |x & z| (the Y count)
        # have the same parity; otherwise its square, -I, is in the group
        code = StabilizerCode("herm", 2, 1, (parse_pauli(gen),),
                              (parse_pauli("XX"),), (parse_pauli("ZI"),))
        flagged = f"generator 1 ({gen}) is not Hermitian" in validate_code(code).violations
        assert flagged != hermitian

    @pytest.mark.parametrize("label, logical, hermitian",
                             [("X", "-XXX", True), ("Z", "iZZZ", False), ("Z", "-iZZZ", False),
                              ("Z", "-ZZZ", True), ("X", "iYYY", False), ("X", "YYY", True)])
    def test_non_hermitian_logical_flagged(self, label, logical, hermitian):
        # the bit-flip code with one logical operator replaced by a Pauli that
        # meets every other invariant; iZZZ squares to -I, so it has no codewords
        ops = {"X": parse_pauli("XXX"), "Z": parse_pauli("ZZZ")}
        ops[label] = parse_pauli(logical)
        code = StabilizerCode("herm", 3, 1, (parse_pauli("ZZI"), parse_pauli("IZZ")),
                              (ops["X"],), (ops["Z"],))
        flagged = (f"logical {label}[1] ({logical}) is not Hermitian",)
        assert validate_code(code).violations == (() if hermitian else flagged)

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
        assert not code.generators[0].commutes(transversal_pauli("X", 3))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_code("nope")


# Every builtin as the code file format_code_text writes, and its css_origin
# as the stored basis rows of C1 and C2 (None for the four codes without one).
BUILTIN_TEXTS = {
    "bit_flip": ("3 1\nZZI\nIZZ\nXXX\nZZZ\n", None),
    "phase_flip": ("3 1\nXXI\nIXX\nZZZ\nXXX\n", None),
    "shor": ("9 1\nZZIIIIIII\nIZZIIIIII\nIIIZZIIII\nIIIIZZIII\nIIIIIIZZI\nIIIIIIIZZ\n"
             "XXXXXXIII\nIIIXXXXXX\nZZZZZZZZZ\nXXXXXXXXX\n", None),
    "steane": ("7 1\nXIXIXIX\nIXXIIXX\nIIIXXXX\nZIZIZIZ\nIZZIIZZ\nIIIZZZZ\nXXXXXXX\nZZZZZZZ\n",
               (("1000011", "0100101", "0010110", "0001111"), ("1010101", "0110011", "0001111"))),
    "rm15": ("15 1\n"
             "XIXIXIXIXIXIXIX\nIXXIIXXIIXXIIXX\nIIIXXXXIIIIXXXX\nIIIIIIIXXXXXXXX\n"
             "ZIIIIIZIIIZIZII\nIZIIIIZIIIZIIZI\nIIZIIIZIIIZIIIZ\nIIIZIIZIIIIIZZI\nIIIIZIZIIIIIZIZ\n"
             "IIIIIZZIIIIIIZZ\nIIIIIIIZIIZIZZI\nIIIIIIIIZIZIZIZ\nIIIIIIIIIZZIIZZ\nIIIIIIIIIIIZZZZ\n"
             "XXXXXXXXXXXXXXX\nZZZZZZZZZZZZZZZ\n",
             (("100001100111100", "010010101011010", "001011001101001", "000111100001111",
               "000000011111111"),
              ("101010101010101", "011001100110011", "000111100001111", "000000011111111"))),
    "synthetic_incompatible": ("3 1\nZZZ\nXXI\nIXX\nZZI\n", None),
}


class TestBuiltinTexts:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_is_its_text(self, name):
        code = builtin_code(name)
        text, origin = BUILTIN_TEXTS[name]
        assert code.name == name
        assert format_code_text(code) == text
        rows = None if code.css_origin is None else tuple(
            tuple(gf2.format_row(w, c.length) for w in c.basis) for c in code.css_origin)
        assert rows == origin
        assert parse_code_text(text, name)._replace(css_origin=code.css_origin) == code

    @pytest.mark.parametrize("name", ["nope", "Steane", "bit_flip ", "", "user", "css-7-1"])
    def test_only_the_builtin_names(self, name):
        assert tuple(BUILTIN_TEXTS) == BUILTIN_NAMES
        with pytest.raises(ValueError, match=rf"^unknown builtin code {name!r}$"):
            builtin_code(name)


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
        for w in enumerate_codewords(c2):
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

    def test_logical_x_anticommuting_with_a_generator(self):
        # XII anticommutes with ZZI, so |1> = XII|000> is not fixed by it
        code = StabilizerCode("bf_bad_x", 3, 1, (parse_pauli("ZZI"), parse_pauli("IZZ")),
                              (parse_pauli("XII"),), (parse_pauli("ZZZ"),))
        with pytest.raises(ValueError,
                           match=r"^bf_bad_x: logical X\[1\] anticommutes with generator 1$"):
            logical_codewords(code)

    def test_logical_x_commuting_with_logical_z(self):
        # ZII commutes with everything, so |1> = |0> and logical Z fixes it
        code = StabilizerCode("bf_z_x", 3, 1, (parse_pauli("ZZI"), parse_pauli("IZZ")),
                              (parse_pauli("ZII"),), (parse_pauli("ZZZ"),))
        with pytest.raises(ValueError,
                           match=r"^bf_z_x: logical X\[1\] and Z\[1\] must anticommute$"):
            logical_codewords(code)

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

    def test_reparsed_code_hits_the_caches(self):
        text = format_code_text(builtin_code("steane"))
        a, b = (parse_code_text(text, name="steane_text") for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != parse_code_text(text, name="other")
        cs, mask = logical_codewords(a), stabilizer_mask_check(a)
        hits = logical_codewords.cache_info().hits, stabilizer_mask_check.cache_info().hits
        assert logical_codewords(b) is cs and stabilizer_mask_check(b) is mask
        assert logical_codewords.cache_info().hits == hits[0] + 1
        assert stabilizer_mask_check.cache_info().hits == hits[1] + 1

    def test_cached_codewords_are_read_only(self):
        cs = logical_codewords(builtin_code("steane"))
        assert logical_codewords(builtin_code("steane")) is cs
        for st in cs.basis:
            with pytest.raises(TypeError):
                st.amps[0] = 0
            with pytest.raises(TypeError):
                st.keys[0] = 0

    def test_failures_are_not_cached(self):
        # ZZ chain with the first link negated: logical Z = Z^4 is -1 times a
        # product of generators, so no codeword seed survives the projectors
        text = "4 1\n-ZZII\nIZZI\nIIZZ\nXXXX\nZZZZ\n"
        code = parse_code_text(text, name="signed_chain")
        before = logical_codewords.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError,
                               match=r"^signed_chain: logical Z\[1\] lies in the stabilizer group$"):
                logical_codewords(code)
        after = logical_codewords.cache_info()
        assert after.misses == before.misses + 3
        assert after.currsize == before.currsize

    def test_mask_check_is_memoized(self):
        for name in BUILTIN_NAMES:
            code = builtin_code(name)
            assert stabilizer_mask_check(code) is stabilizer_mask_check(code)

    def test_mask_check_failures_are_not_cached(self):
        # a CSS origin whose C2 is not a subcode of C1: the classical half of
        # the mask check raises, and the report is never cached
        c1, c2 = gf2.code_from_strings(["1100"]), gf2.code_from_strings(["0011"])
        code = StabilizerCode("unnested", 4, 0, map(parse_pauli, ("XXII", "IIZZ", "ZZII", "IIXX")),
                              (), (), css_origin=(c1, c2))
        before = stabilizer_mask_check.cache_info()
        for _ in range(3):
            with pytest.raises(SubcodeError, match="^C2 is not a subcode of C1$"):
                stabilizer_mask_check(code)
        after = stabilizer_mask_check.cache_info()
        assert after.misses == before.misses + 3
        assert after.currsize == before.currsize

    def test_caches_stay_at_their_bound(self):
        # distinct names make distinct codes
        text = format_code_text(builtin_code("bit_flip"))
        for i in range(CODE_CACHE_SIZE + 5):
            code = parse_code_text(text, name=f"bf{i}")
            clifford_correction_for_t(logical_codewords(code))
            decode_single_error(code, (1, 0))
            stabilizer_mask_check(code)
        for cached in (validate_code, logical_codewords, compat._diagonal_action,
                       _single_error_table, stabilizer_mask_check):
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
        theirs = gf2.rref([sympl_vec(g, 7) for g in textbook_gens])
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

    def test_length_mismatch(self):
        c1 = gf2.code_from_strings(["111"])
        c2 = gf2.code_from_strings(["0000"])
        with pytest.raises(ValueError, match="^classical codes differ in length$"):
            css_from_classical(c1, c2)

    @pytest.mark.parametrize("which", ["C1", "C2"])
    def test_dependent_basis_rows(self, which):
        # ClassicalCode.dimension counts rows, not rank
        c1, c2 = gf2.ClassicalCode(6, (7, 30, 7)), gf2.ClassicalCode(6, (7,))
        if which == "C2":
            c1, c2 = gf2.ClassicalCode(6, (7, 30, 1)), gf2.ClassicalCode(6, (7, 7))
        with pytest.raises(ValueError, match=f"^{which} has linearly dependent basis rows$"):
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

    @pytest.mark.parametrize("text", [
        "0 0\n",
        "3 5\nZZI\nIZZ\nXXX\nZZZ\nXXX\nZZZ\nXXX\nZZZ\n",
        "2 -1\nZZ\n",
        "1025 0\n",
    ])
    def test_impossible_header(self, text):
        with pytest.raises(CodeFileError, match="header needs 1 <= n <= 1024 and 0 <= k <= n"):
            parse_code_text(text)

    def test_wrong_counts(self):
        with pytest.raises(CodeFileError):
            parse_code_text("3 1\nZZI\nIZZ\nXXX\n")

    def test_operator_over_the_qubit_cap(self):
        # parse_pauli's cap message, passed on as a CodeFileError
        with pytest.raises(CodeFileError, match=r"^qubit count must be in 1\.\.1024, got 1025$"):
            parse_code_text("3 1\nZZI\nIZZ\n" + "X" * 1025 + "\nZZZ\n")

    def test_bad_operator_length(self):
        with pytest.raises(CodeFileError):
            parse_code_text("3 1\nZZ\nIZZ\nXXX\nZZZ\n")
