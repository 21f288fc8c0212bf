import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import gf2
from oracles import UnreadRows, coset_state, enumerate_codewords, weight_mod

STEANE_C1_ROWS = ["1000011", "0100101", "0010110", "0001111"]
STEANE_C2_ROWS = ["0001111", "0110011", "1010101"]

# full word lists for the two Steane classical codes
STEANE_C1_WORDS = {
    "0000000", "0001111", "0010110", "0011001", "0100101", "0101010", "0110011",
    "0111100", "1000011", "1001100", "1010101", "1011010", "1100110", "1101001",
    "1110000", "1111111",
}
STEANE_C2_WORDS = {
    "0000000", "1010101", "0110011", "1100110", "0001111", "1011010", "0111100", "1101001",
}

RM15_ROWS = [
    "111111111111111",
    "000000011111111",
    "000111100001111",
    "011001100110011",
    "101010101010101",
]


def words_of(code):
    return {gf2.format_row(w, code.length) for w in enumerate_codewords(code)}


class TestCodeFromRows:
    def test_steane_c1_dimension(self):
        code = gf2.code_from_strings(STEANE_C1_ROWS)
        assert code.dimension == 4
        assert len(enumerate_codewords(code)) == 16

    def test_zero_row(self):
        code = gf2.code_from_strings(["0000000"])
        assert code.dimension == 0
        assert words_of(code) == {"0000000"}

    def test_dependent_rows(self):
        code = gf2.code_from_strings(["110", "011", "101"])
        assert code.dimension == 2

    def test_empty_length(self):
        with pytest.raises(ValueError):
            gf2.code_from_rows(gf2.BitMatrix((), 0))


class TestContains:
    def test_steane_c1_contains_all_ones(self):
        code = gf2.code_from_strings(STEANE_C1_ROWS)
        assert gf2.contains(code, "1111111")

    def test_zero_word_always_member(self):
        for rows in (STEANE_C1_ROWS, STEANE_C2_ROWS, ["11"]):
            code = gf2.code_from_strings(rows)
            assert gf2.contains(code, 0)

    def test_non_member(self):
        code = gf2.code_from_strings(["1000", "0100", "0010"])
        assert not gf2.contains(code, "1111")

    def test_length_mismatch(self):
        code = gf2.code_from_strings(["11"])
        with pytest.raises(ValueError):
            gf2.contains(code, "111")


def span_of(rows) -> set[int]:
    span = {0}
    for r in rows:
        span |= {w ^ r for w in span}
    return span


class TestHandBuiltBasis:
    """A ClassicalCode built from any independent basis answers as the code
    of its span: contains and dual once assumed a reduced echelon basis."""

    def test_contains_a_sum_of_unreduced_rows(self):
        # 0b101 = 0b110 ^ 0b011, once refused
        assert gf2.contains(gf2.ClassicalCode(3, (0b110, 0b011)), 0b101)

    def test_dual_is_orthogonal(self):
        # once the row 011, which is not orthogonal to 011
        assert gf2.dual(gf2.ClassicalCode(3, (0b011, 0b110))).basis == (0b111,)

    @pytest.mark.parametrize("c1_rows", [(0b011, 0b110), (0b110, 0b011)])
    def test_css_code_from_a_hand_built_pair(self, c1_rows):
        # once XIX and IZZ, which anticommute, or a SubcodeError with C1's rows swapped
        from hqec.codes import css_from_classical, validate_code

        code = css_from_classical(gf2.ClassicalCode(3, c1_rows), gf2.ClassicalCode(3, (0b101,)))
        assert [g.to_string() for g in code.generators] == ["XIX", "ZZZ"]
        assert validate_code(code).ok
        built = css_from_classical(gf2.code_from_strings(["110", "011"]), gf2.code_from_strings(["101"]))
        assert code[:6] == built[:6]

    def test_random_bases_of_random_spans(self):
        rng = np.random.default_rng(49)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k, rows = int(rng.integers(0, n + 1)), []
            while len(rows) < k:  # an independent basis, in any order
                r = int(rng.integers(1, 1 << n))
                if r not in span_of(rows):
                    rows.append(r)
            code = gf2.ClassicalCode(n, rows)
            span = span_of(rows)
            assert code.dimension == len(rows) and span_of(code.basis) == span
            assert [w for w in range(1 << n) if gf2.contains(code, w)] == sorted(span)
            dual = {w for w in range(1 << n) if all((w & c).bit_count() % 2 == 0 for c in span)}
            assert span_of(gf2.dual(code).basis) == dual
            assert gf2.dual(code).dimension == n - len(rows)
            sub = gf2.ClassicalCode(n, rows[: len(rows) // 2])
            assert gf2.is_subcode(sub, code)
            assert gf2.is_subcode(code, sub) == (not rows)

    def test_dependent_rows_keep_their_count(self):
        # css_from_classical names a dependent basis by dimension, which counts the rows given
        code = gf2.ClassicalCode(6, (7, 30, 7))
        assert code.dimension == 3 and len(gf2.rref(code.basis)) == 2
        assert span_of(code.basis) == span_of((7, 30))
        assert gf2.contains(code, 7 ^ 30) and not gf2.contains(code, 1)

    def test_replace_and_make_go_through_the_constructor(self):
        code = gf2.ClassicalCode(3, (0b110, 0b011))
        assert code._replace(basis=(0b110, 0b110)).basis == (0b110, 0)
        assert gf2.ClassicalCode._make((3, (np.int64(6), 3))) == code
        assert all(type(b) is int for b in gf2.ClassicalCode(3, (np.int64(6),)).basis)
        with pytest.raises(TypeError):
            gf2.ClassicalCode(3, (1.0,))


class TestEnumerate:
    def test_steane_c2_words(self):
        code = gf2.code_from_strings(STEANE_C2_ROWS)
        assert words_of(code) == STEANE_C2_WORDS

    def test_steane_c1_words(self):
        code = gf2.code_from_strings(STEANE_C1_ROWS)
        assert words_of(code) == STEANE_C1_WORDS

    def test_dimension_zero(self):
        assert words_of(gf2.code_from_strings(["000"])) == {"000"}

    def test_span_single(self):
        assert words_of(gf2.code_from_strings(["11"])) == {"00", "11"}

    def test_count_matches_dimension(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            rows = tuple(int(x) for x in rng.integers(0, 1 << n, int(rng.integers(1, 6))))
            code = gf2.code_from_rows(gf2.BitMatrix(rows, n))
            assert len(set(enumerate_codewords(code))) == 1 << code.dimension

    def test_guard(self):
        rows = tuple(1 << i for i in range(21))
        code = gf2.code_from_rows(gf2.BitMatrix(rows, 21))
        with pytest.raises(gf2.GuardExceeded):
            enumerate_codewords(code)


class TestEvenWeight:
    def test_steane_c2_even(self):
        assert gf2.all_even_weight(gf2.code_from_strings(STEANE_C2_ROWS))

    def test_zero_code_even(self):
        assert gf2.all_even_weight(gf2.code_from_strings(["0"]))

    def test_odd_generator(self):
        assert not gf2.all_even_weight(gf2.code_from_strings(["111"]))

    def test_dimension_above_enumeration_guard(self):
        # read from the basis rows alone, so no dimension guard applies
        n = 25
        pairs = gf2.code_from_rows(gf2.BitMatrix(tuple(3 << i for i in range(n - 1)), n))
        units = gf2.code_from_rows(gf2.BitMatrix(tuple(1 << i for i in range(n)), n))
        assert (pairs.dimension, units.dimension) == (24, 25)
        assert gf2.all_even_weight(pairs)
        assert not gf2.all_even_weight(units)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            rows = tuple(int(x) for x in rng.integers(0, 1 << n, 3))
            code = gf2.code_from_rows(gf2.BitMatrix(rows, n))
            by_enum = all(w.bit_count() % 2 == 0 for w in enumerate_codewords(code))
            assert gf2.all_even_weight(code) == by_enum

    def test_dual_membership_equivalence(self):
        # all words even iff the all-ones vector lies in the dual
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            rows = tuple(int(x) for x in rng.integers(0, 1 << n, 3))
            code = gf2.code_from_rows(gf2.BitMatrix(rows, n))
            e = (1 << n) - 1
            assert gf2.all_even_weight(code) == gf2.contains(gf2.dual(code), e)


class TestTriorthogonality:
    def test_rm15_matrix(self):
        rep = gf2.triorthogonality_check(gf2.BitMatrix.from_strings(RM15_ROWS))
        assert rep.pairwise_ok and rep.triple_ok
        assert rep.odd_rows == (0,)
        assert rep.even_rows == (1, 2, 3, 4)
        for i in range(1, 5):
            assert rep.pair_overlaps[(0, i)] == 8
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert rep.pair_overlaps[(i, j)] == 4
                assert rep.triple_overlaps[(0, i, j)] == 4
        for i, j, k in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
            assert rep.triple_overlaps[(i, j, k)] == 2
        assert rep.violating_index_sets == ()

    def test_single_even_row(self):
        rep = gf2.triorthogonality_check(gf2.BitMatrix.from_strings(["1111"]))
        assert rep.pairwise_ok and rep.triple_ok
        assert rep.even_rows == (0,)

    def test_odd_pair_overlap(self):
        rep = gf2.triorthogonality_check(gf2.BitMatrix.from_strings(["110", "011"]))
        assert not rep.pairwise_ok
        assert (0, 1) in rep.violating_index_sets

    def test_triple_violation(self):
        rep = gf2.triorthogonality_check(gf2.BitMatrix.from_strings(["110", "101", "011"]))
        assert not rep.pairwise_ok or not rep.triple_ok

    def test_matches_every_pair_and_triple(self):
        # up to 8 random rows, the five-row matrices of the benchmark included
        rng = np.random.default_rng(44)
        for _ in range(40):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 16))
            rows = tuple(int(x) for x in rng.integers(0, 1 << n, m))
            rep = gf2.triorthogonality_check(gf2.BitMatrix(rows, n))
            pairs = {s: (rows[s[0]] & rows[s[1]]).bit_count() for s in itertools.combinations(range(m), 2)}
            triples = {s: (rows[s[0]] & rows[s[1]] & rows[s[2]]).bit_count()
                       for s in itertools.combinations(range(m), 3)}
            assert rep.pair_overlaps == pairs and rep.triple_overlaps == triples
            odd = [s for s, v in pairs.items() if v % 2] + [s for s, v in triples.items() if v % 2]
            assert rep.violating_index_sets == tuple(odd)

    def test_triple_guard(self):
        # C(186, 3) = 1 055 240 triples pass 2^20 and are refused before a
        # row is looked up; at 185 rows (1 038 220 triples) the lookups start
        with pytest.raises(gf2.GuardExceeded,
                           match=r"^186 rows: 1055240 row triples exceed the enumeration guard 2\^20$"):
            gf2.triorthogonality_check(gf2.BitMatrix(UnreadRows([1] * 186), 1))
        with pytest.raises(AssertionError, match="^row 0 was looked up$"):
            gf2.triorthogonality_check(gf2.BitMatrix(UnreadRows([1] * 185), 1))


class TestCosetState:
    def test_steane_logical_zero(self):
        c2 = gf2.code_from_strings(STEANE_C2_ROWS)
        st = coset_state(c2, 0)
        assert st.num_terms == 8
        amp = 1 / np.sqrt(8)
        for w in STEANE_C2_WORDS:
            assert abs(st.amplitude(w) - amp) < 1e-15

    def test_trivial_code_coset(self):
        c = gf2.code_from_strings(["000"])
        st = coset_state(c, "101")
        assert st.num_terms == 1
        assert abs(st.amplitude("101") - 1) < 1e-15

    def test_steane_logical_one_words(self):
        c2 = gf2.code_from_strings(STEANE_C2_ROWS)
        st = coset_state(c2, "1111111")
        assert st.num_terms == 8
        assert abs(st.amplitude("0101010")) > 0
        assert abs(st.amplitude("1001100")) > 0


class TestWeightMod:
    def test_rm15_span_class(self):
        c2 = gf2.code_from_strings(RM15_ROWS[1:])
        assert weight_mod(enumerate_codewords(c2), 8) == {0}

    def test_rm15_coset_class(self):
        c2 = gf2.code_from_strings(RM15_ROWS[1:])
        r0 = gf2.parse_row(RM15_ROWS[0])
        coset = [r0 ^ w for w in enumerate_codewords(c2)]
        assert weight_mod(coset, 8) == {7}

    def test_zero_word(self):
        assert weight_mod([0], 5) == {0}

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            weight_mod([0], 1)


class TestClosureProperty:
    @given(
        st.integers(1, 10),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_xor_closure(self, n, data):
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
        code = gf2.code_from_rows(gf2.BitMatrix(tuple(rows), n))
        if code.dimension > 12:
            return
        words = enumerate_codewords(code)
        for a in words[:8]:
            for b in words[:8]:
                assert gf2.contains(code, a ^ b)


class TestSolve:
    """gf2.solve against every x of up to 8 unknowns: the smallest solution
    (pivot bits only), and the error exactly when there is none."""

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_against_brute_force(self, n, data):
        full = (1 << n) - 1
        eqs = data.draw(st.lists(st.tuples(st.integers(0, full), st.integers(0, 1)), max_size=10))
        solutions = [x for x in range(1 << n) if all((c & x).bit_count() & 1 == r for c, r in eqs)]
        if not solutions:
            with pytest.raises(ValueError, match="^inconsistent F2 system$"):
                gf2.solve(eqs)
        else:
            assert gf2.solve(eqs) == min(solutions)

    @pytest.mark.parametrize("kind", ["homogeneous", "inhomogeneous", "inconsistent"])
    def test_every_small_system(self, kind):
        # up to 6 equations on up to 6 bits, each system of its kind by construction
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(400):
            n, m = int(rng.integers(1, 7)), int(rng.integers(0, 7))
            coeffs = [int(c) for c in rng.integers(0, 1 << n, m)]
            x0 = int(rng.integers(0, 1 << n))
            eqs = [(c, 0 if kind == "homogeneous" else (c & x0).bit_count() & 1) for c in coeffs]
            if kind == "inconsistent":
                eqs.insert(int(rng.integers(0, m + 1)), (0, 1) if not eqs else (eqs[0][0], eqs[0][1] ^ 1))
            solutions = [x for x in range(1 << n) if all((c & x).bit_count() & 1 == r for c, r in eqs)]
            if kind == "inconsistent":
                assert not solutions
                with pytest.raises(ValueError, match="^inconsistent F2 system$"):
                    gf2.solve(eqs)
            else:
                assert gf2.solve(eqs) == min(solutions)
                assert kind == "inhomogeneous" or min(solutions) == 0

    def test_inconsistent_pair(self):
        with pytest.raises(ValueError, match="^inconsistent F2 system$"):
            gf2.solve([(0b11, 0), (0b11, 1)])

    def test_free_bits_are_zero(self):
        # x1 + x3 = 1, x2 = 1: bit 1 is the pivot of the first equation, bit 3 is free
        assert gf2.solve([(0b101, 1), (0b010, 1)]) == 0b011

    def test_no_equations(self):
        assert gf2.solve([]) == 0


class TestReduce:
    @given(st.integers(1, 10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_remainder_is_zero_iff_in_span(self, n, data):
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=5))
        word = data.draw(st.integers(0, (1 << n) - 1))
        basis = gf2.rref(rows)
        span = {0}
        for b in basis:
            span |= {w ^ b for w in span}
        r = gf2.reduce(word, basis)
        assert (r == 0) == (word in span)
        assert r ^ word in span
        assert not any(r & b & -b for b in basis)


class TestMatrixFileFormat:
    def test_comments_and_blanks(self):
        text = "# header\n110  \n\n011\n# done\n"
        m = gf2.BitMatrix.from_text(text)
        assert m.rows == (0b011, 0b110)  # position 1 is bit 0

    def test_ragged(self):
        with pytest.raises(ValueError):
            gf2.BitMatrix.from_text("110\n01\n")

    def test_bad_char(self):
        with pytest.raises(ValueError, match="position 2"):
            gf2.BitMatrix.from_text("1x0\n")

    @pytest.mark.parametrize("row", ["1_0", " 10", "10 ", "+1", "-1", "0b1", "1١", "٠", "1.0"])
    def test_only_0_and_1_are_read(self, row):
        # int(..., 2) would read some of these; a row is its 0 and 1 characters only
        pos, ch = next((q + 1, c) for q, c in enumerate(row) if c not in "01")
        with pytest.raises(ValueError, match=f"^invalid matrix character {re.escape(repr(ch))} at position {pos}$"):
            gf2.parse_row(row)

    def test_rows_against_a_character_walk(self):
        rng = np.random.default_rng(49)
        for _ in range(300):
            row = "".join(rng.choice(["0", "1"], int(rng.integers(0, 70))))
            assert gf2.parse_row(row) == sum(1 << q for q, c in enumerate(row) if c == "1")
