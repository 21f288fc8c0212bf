import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec.pauli import MAX_QUBITS, PauliOperator, PauliParseError, parse_pauli, transversal_pauli
from oracles import dense_pauli, random_pauli


class TestConstructor:
    def test_replace_goes_through_the_checks(self):
        p = PauliOperator(3, 1, 0, 0)
        with pytest.raises(ValueError, match="^Pauli bits x=0x400, z=0x0 out of range for qubits 1..3$"):
            p._replace(x=1 << 10)
        with pytest.raises(ValueError, match=f"^qubit count must be in 1..{MAX_QUBITS}, got 2000$"):
            p._replace(n=2000)
        with pytest.raises(ValueError, match="^Pauli bits x=0xf, z=0x0 out of range for qubits 1..3$"):
            PauliOperator._make((3, 0b1111, 0, 5))
        assert PauliOperator._make((3, 0b111, 0, 5)) == PauliOperator(3, 0b111, 0, 1)


class TestParse:
    def test_shor_generator(self):
        p = parse_pauli("ZZIIIIIII")
        assert p.n == 9
        assert p.z == 0b11  # qubit q at bit q-1
        assert p.x == 0
        assert p.phase == 0

    def test_identity(self):
        p = parse_pauli("III")
        assert p == PauliOperator.identity(3)
        assert p.phase == 0

    def test_y_is_ixz(self):
        p = parse_pauli("Y")
        assert (p.x, p.z, p.phase) == (1, 1, 1)
        want = np.array([[0, -1j], [1j, 0]])
        assert np.abs(dense_pauli(p) - want).max() == 0

    def test_prefixes(self):
        assert parse_pauli("-X").phase == 2
        assert parse_pauli("iZ").phase == 1
        assert parse_pauli("-iX").phase == 3
        assert parse_pauli("+X") == parse_pauli("X")

    def test_invalid_character_names_position(self):
        with pytest.raises(PauliParseError, match="position 3"):
            parse_pauli("XZQZ")

    def test_empty(self):
        with pytest.raises(PauliParseError):
            parse_pauli("")
        with pytest.raises(PauliParseError):
            parse_pauli("-")

    @given(st.integers(0, 3), st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, phase, letters):
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[phase]
        text = prefix + "".join(letters)
        p = parse_pauli(text)
        assert p.to_string() == text
        assert parse_pauli(p.to_string()) == p

    @given(st.sampled_from(["", "+", "-", "i", "-i"]), st.text("IXYZ", min_size=1, max_size=70))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_checked_constructor(self, prefix, letters):
        # parse_pauli builds its tuple unchecked; the checked constructor on
        # letterwise x, z and phase must give the same fields and type
        x = sum(1 << q for q, ch in enumerate(letters) if ch in "XY")
        z = sum(1 << q for q, ch in enumerate(letters) if ch in "ZY")
        phase = {"": 0, "+": 0, "i": 1, "-": 2, "-i": 3}[prefix] + letters.count("Y")
        p, want = parse_pauli(prefix + letters), PauliOperator(len(letters), x, z, phase)
        assert p == want and type(p) is PauliOperator
        assert (p.n, p.x, p.z, p.phase) == (want.n, want.x, want.z, want.phase)
        assert 0 <= p.phase < 4 and hash(p) == hash(want)

    @pytest.mark.parametrize("prefix", ["", "+", "-", "i", "-i"])
    def test_qubit_cap(self, prefix):
        assert parse_pauli(prefix + "Y" * 1024).n == 1024
        with pytest.raises(ValueError, match=r"^qubit count must be in 1\.\.1024, got 1025$"):
            parse_pauli(prefix + "X" * 1025)
        # a bad letter is named before the count
        with pytest.raises(PauliParseError, match=r"^invalid character 'Q' at position 1025$"):
            parse_pauli(prefix + "X" * 1024 + "Q")

    def test_invalid_character_is_the_first(self):
        with pytest.raises(PauliParseError, match=r"^invalid character 'q' at position 2$"):
            parse_pauli("-iXqZ_")
        with pytest.raises(PauliParseError, match=r"^invalid character 'i' at position 1$"):
            parse_pauli("iiX")


class TestMultiply:
    def test_x_times_z(self):
        xz = parse_pauli("X").multiply(parse_pauli("Z"))
        want = np.array([[0, -1], [1, 0]])  # X @ Z
        assert np.abs(dense_pauli(xz) - want).max() < 1e-15
        sq = xz.multiply(xz)
        assert sq.to_string() == "-I"

    def test_identity_is_unit(self):
        g = parse_pauli("XYZI")
        ident = PauliOperator.identity(4)
        assert ident.multiply(g) == g
        assert g.multiply(ident) == g

    def test_transversal_mask_product(self):
        x9 = transversal_pauli("X", 9)
        z9 = transversal_pauli("Z", 9)
        prod = x9.multiply(z9)
        assert prod.x == prod.z == (1 << 9) - 1
        assert prod.phase == 0  # X^a Z^b per qubit, no reordering cost

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_pauli("X").multiply(parse_pauli("XX"))

    def test_against_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            got = dense_pauli(p.multiply(q))
            want = dense_pauli(p) @ dense_pauli(q)
            assert np.abs(got - want).max() < 1e-12

    def test_associative_with_unit_randomized(self):
        # >= 1000 random triples at n <= 8
        rng = np.random.default_rng(12)
        ident_cache = {n: PauliOperator.identity(n) for n in range(1, 9)}
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            p, q, r = (random_pauli(rng, n) for _ in range(3))
            assert p.multiply(q).multiply(r) == p.multiply(q.multiply(r))
            assert ident_cache[n].multiply(p) == p
            assert p.multiply(ident_cache[n]) == p

    def test_adjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_pauli(rng, int(rng.integers(1, 5)))
            assert np.abs(dense_pauli(p.adjoint()) - dense_pauli(p).conj().T).max() < 1e-12

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_results_equal_the_checked_constructor(self, data):
        # multiply and adjoint build their tuples unchecked; the checked
        # constructor on the unreduced phase must give the same fields and
        # type, for every pair of phases
        n = data.draw(st.sampled_from([1, 2, 63, 64, 65, MAX_QUBITS]) | st.integers(1, MAX_QUBITS), label="n")
        bits = st.integers(0, (1 << n) - 1)
        x1, z1, x2, z2 = (data.draw(bits) for _ in range(4))
        for pa in range(4):
            a = PauliOperator(n, x1, z1, pa)
            want = PauliOperator(n, x1, z1, -pa + 2 * ((x1 & z1).bit_count() & 1))
            got = a.adjoint()
            assert got == want and type(got) is PauliOperator
            assert 0 <= got.phase < 4 and hash(got) == hash(want)
            for pb in range(4):
                b = PauliOperator(n, x2, z2, pb)
                want = PauliOperator(n, x1 ^ x2, z1 ^ z2, pa + pb + 2 * ((z1 & x2).bit_count() & 1))
                got = a.multiply(b)
                assert got == want and type(got) is PauliOperator
                assert 0 <= got.phase < 4 and hash(got) == hash(want)

    def test_square_phase_consistency(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_pauli(rng, 6)
            sq = p.multiply(p)
            assert sq.x == sq.z == 0
            assert sq.phase in (0, 2)


class TestHermitian:
    def test_against_square(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = random_pauli(rng, int(rng.integers(1, 9)))
            assert p.is_hermitian == (p.multiply(p) == PauliOperator.identity(p.n))

    @pytest.mark.parametrize("text,hermitian", [("XYZ", True), ("-Y", True), ("iZ", False),
                                                ("-iXX", False), ("iY", False)])
    def test_literals(self, text, hermitian):
        assert parse_pauli(text).is_hermitian is hermitian


class TestCommutes:
    def test_transversal_z_with_shor_x_generator(self):
        g7 = parse_pauli("XXXXXXIII")
        assert transversal_pauli("Z", 9).commutes(g7)

    def test_canonical_anticommute(self):
        assert not parse_pauli("X").commutes(parse_pauli("Z"))

    def test_odd_overlap(self):
        assert not transversal_pauli("X", 3).commutes(parse_pauli("ZZZ"))

    def test_against_dense_commutator(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            comm = dense_pauli(p) @ dense_pauli(q) - dense_pauli(q) @ dense_pauli(p)
            assert p.commutes(q) == (np.abs(comm).max() < 1e-12)

    def test_symmetry_and_self(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            assert p.commutes(q) == q.commutes(p)
            assert p.commutes(p)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_transversal_pair_parity(self, n):
        tx, tz = transversal_pauli("X", n), transversal_pauli("Z", n)
        assert tx.commutes(tz) == (n % 2 == 0)


class TestWeightAndTransversal:
    def test_shor_g7_weight(self):
        assert parse_pauli("XXXXXXIII").weight == 6

    def test_identity_weight(self):
        assert PauliOperator.identity(5).weight == 0

    def test_mixed_weight(self):
        assert parse_pauli("XYZI").weight == 3

    def test_transversal_shapes(self):
        t = transversal_pauli("X", 9)
        assert (t.x, t.z, t.phase) == ((1 << 9) - 1, 0, 0)
        assert transversal_pauli("Z", 1) == parse_pauli("Z")
        t15 = transversal_pauli("X", 15)
        assert t15.weight == 15

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            transversal_pauli("Y", 3)

    def test_multiword_operators(self):
        # spans more than one 64-bit word
        p = PauliOperator(100, (1 << 100) - 1, 0, 0)
        q = PauliOperator(100, 0, (1 << 100) - 1, 0)
        assert p.weight == 100
        assert p.commutes(q) == (100 % 2 == 0)
        assert p.multiply(p) == PauliOperator.identity(100)

    def test_qubit_cap(self):
        for n in (0, -1, 1025):
            with pytest.raises(ValueError, match=rf"^qubit count must be in 1\.\.1024, got {n}$"):
                PauliOperator.identity(n)

    def test_constructor_refuses_bits_and_reduces_phase(self):
        for n, x, z in [(3, 0b11110, 0), (3, 0, -1), (1, 0b11, 0), (2, -5, 0), (1024, 1 << 1024, 0)]:
            with pytest.raises(ValueError, match=f"^Pauli bits x={x:#x}, z={z:#x} out of range for "
                                                 f"qubits 1..{n}$"):
                PauliOperator(n, x, z, 0)
        p = PauliOperator(3, 0b110, 0b111, 7)
        assert (p.n, p.x, p.z, p.phase) == (3, 0b110, 0b111, 3)
        assert p == PauliOperator(3, 0b110, 0b111, -1)
        assert hash(p) == hash(PauliOperator(3, 0b110, 0b111, -1))
        assert (str(p), repr(p)) == ("iZYY", "PauliOperator('iZYY')")


# -- letter-by-letter reference for the int layout ------------------------------
#
# A Pauli string is a phase prefix times a tensor product of the Hermitian
# letters I, X, Y, Z.  The reference works on that text form only, one qubit
# at a time, so it shares nothing with the bitset arithmetic under test.

_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
# single-qubit products: (a, b) -> (exponent of i, letter) with a*b = i^k * letter
_LETTER_PRODUCT = {
    ("X", "Y"): (1, "Z"), ("Y", "Z"): (1, "X"), ("Z", "X"): (1, "Y"),
    ("Y", "X"): (3, "Z"), ("Z", "Y"): (3, "X"), ("X", "Z"): (3, "Y"),
}
# sizes at and around the 64-bit word boundaries of the old word-array layout
WORD_BOUNDARY_SIZES = (1, 63, 64, 65, 127, 128, 129, 130)


def _ref_product(a: str, b: str) -> tuple[int, str]:
    if a == "I":
        return 0, b
    if b == "I":
        return 0, a
    if a == b:
        return 0, "I"
    return _LETTER_PRODUCT[a, b]


def _ref_multiply(pa: int, la: str, pb: int, lb: str) -> str:
    phase = pa + pb
    letters = []
    for a, b in zip(la, lb):
        k, r = _ref_product(a, b)
        phase += k
        letters.append(r)
    return _PREFIX[phase % 4] + "".join(letters)


def _ref_commutes(la: str, lb: str) -> bool:
    clashes = sum(1 for a, b in zip(la, lb) if a != "I" and b != "I" and a != b)
    return clashes % 2 == 0


def _check_against_reference(pa: int, la: str, pb: int, lb: str) -> None:
    ta, tb = _PREFIX[pa] + la, _PREFIX[pb] + lb
    a, b = parse_pauli(ta), parse_pauli(tb)
    assert a.to_string() == ta and b.to_string() == tb
    assert parse_pauli(a.to_string()) == a
    assert hash(parse_pauli(ta)) == hash(a)
    assert a.n == len(la)
    assert a.x == sum(1 << q for q, ch in enumerate(la) if ch in "XY")
    assert a.z == sum(1 << q for q, ch in enumerate(la) if ch in "ZY")
    assert a.weight == sum(1 for ch in la if ch != "I")
    assert (a.x == a.z == 0) == (set(la) == {"I"})
    assert a.adjoint().to_string() == _PREFIX[-pa % 4] + la
    assert a.multiply(b).to_string() == _ref_multiply(pa, la, pb, lb)
    assert b.multiply(a).to_string() == _ref_multiply(pb, lb, pa, la)
    assert a.commutes(b) == b.commutes(a) == _ref_commutes(la, lb)


@st.composite
def _pauli_pair(draw):
    n = draw(st.sampled_from(WORD_BOUNDARY_SIZES) | st.integers(1, 130))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    return draw(st.integers(0, 3)), draw(letters), draw(st.integers(0, 3)), draw(letters)


class TestIntLayoutAgainstReference:
    @given(_pauli_pair())
    @settings(max_examples=200, deadline=None)
    def test_random_strings(self, pair):
        _check_against_reference(*pair)

    @pytest.mark.parametrize("n", WORD_BOUNDARY_SIZES)
    def test_word_boundary_sizes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            la, lb = ("".join(rng.choice(list("IXYZ"), n)) for _ in range(2))
            _check_against_reference(int(rng.integers(4)), la, int(rng.integers(4)), lb)
        # operators that touch the top qubit only, where a word tail would sit
        top = "I" * (n - 1)
        for a in "XYZ":
            for b in "XYZ":
                _check_against_reference(0, top + a, 0, top + b)
