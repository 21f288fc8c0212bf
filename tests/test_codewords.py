"""The polynomial codeword construction against two references: an
exhaustive seed scan (byte for byte) and dense projectors; code validation
by popcounts against its PauliOperator.commutes form; and the reduction on
(x, z, phase) ints against its PauliOperator.multiply form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import BUILTIN_NAMES, gf2
from hqec.codes import (
    StabilizerCode,
    _reduce_tracked,
    builtin_code,
    logical_codewords,
    parse_code_text,
    validate_code,
)
from hqec.pauli import PauliOperator, parse_pauli
from oracles import (
    basis_state,
    coset_state,
    dense_of,
    dense_zero_codeword,
    pairwise_validate_code,
    pauli_reduce_tracked,
    readout_codeword_verdict,
    scan_zero_codeword,
    state_bytes,
    sympl_vec,
)

# qubit-permuted, H-conjugated and sign-flipped copies of the builtin codes,
# each with a fresh generating set, and the five-qubit code conjugated by S
# on qubit 2, with two generators negated
LITERAL_CODES = {
    "steane_permuted": "7 1\nIXXIXIX\nXIIXXIX\nIXIXIXX\nZIZIIZZ\nZZIIZZI\nZZZZIII\nXXXXXXX\nZZZZZZZ\n",
    "shor_permuted": (
        "9 1\nZZZZIZIZI\nIZIIZZZZZ\nZZIZIIIZI\nIZIIZIZZI\nZZIIIIIII\nIZIIZIIII\n"
        "XXXIXXIIX\nXXIXXIXXI\nZZZZZZZZZ\nXXXXXXXXX\n"
    ),
    "rm15_permuted": (
        "15 1\nIXXXIIXIXXXXIII\nIIIXIIXXIXXIXXX\nXXXIXIXXIIXIXII\nXXIXIXIXXIXIIXI\n"
        "IZIIZZZIIZIZZIZ\nZIIIIIZZIZZZIZZ\nIIZZZZZIIIIZZIZ\nIIIZIIZZIIIIIIZ\n"
        "ZIIIZIIZZZZZIIZ\nIIIIZIZZIZZZIII\nIIIIIIZIIZIIZIZ\nIIIIZIIIZIZIIIZ\n"
        "IIZIIIIIZZZIIII\nIIIIIIZIZIZZIII\nXXXXXXXXXXXXXXX\nZZZZZZZZZZZZZZZ\n"
    ),
    "steane_h_signed": "7 1\n-XXIXIXI\nIXXIZXI\nIIXXIXX\nIZIZXIZ\n-IZZIXZI\nZIIIXZZ\nXXXXZXX\nZZZZXZZ\n",
    "shor_h_signed": (
        "9 1\nIIZIZZIZI\n-ZZZIIIXZZ\nIIZZZIXII\nZIZZZIIII\nIIZIZIIII\n-IZIIZIIII\n"
        "XIIXIXZXX\nXXXXXIZII\nZZZZZZXZZ\nXXXXXXZXX\n"
    ),
    "chain8_signed": (
        "8 1\n-ZIIIZIZZ\nIZZIIIII\nIIZIZIII\nIIIZIZII\nIIIIZIIZ\nIIIIIZIZ\nIIIIIIZZ\n"
        "XXXXXXXX\nZIIIIIII\n"
    ),
    "chain10_signed": (
        "10 1\n-ZZZIIIIZZZ\nIZZZZZZZIZ\nIIZZIZIZZZ\nIIIZIZZIIZ\nIIIIZIIZII\nIIIIIZZZZI\n"
        "IIIIIIZIZI\nIIIIIIIZIZ\nIIIIIIIIZZ\nXXXXXXXXXX\nZIIIIIIIII\n"
    ),
    "five_qubit_s_signed": "5 1\n-XZZXI\nIYZZX\nXIXZZ\n-ZYIXZ\nXYXXX\nZZZZZ\n",
}


def assert_same_bytes(a, b):
    assert state_bytes(a) == state_bytes(b)


def chain_text(n: int, logical_z: str) -> str:
    """ZZ chain with the first link negated, logical X = X^n."""
    chain = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
    return "\n".join([f"{n} 1", "-" + chain[0], *chain[1:], "X" * n, logical_z]) + "\n"


class TestAgainstScan:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        code = builtin_code(name)
        assert_same_bytes(logical_codewords(code).zero, scan_zero_codeword(code))

    @pytest.mark.parametrize("name", ["steane", "rm15"])
    def test_css_coset_state(self, name):
        code = builtin_code(name)
        coset = coset_state(code.css_origin[1], 0)
        assert_same_bytes(logical_codewords(code).zero, coset)
        assert_same_bytes(scan_zero_codeword(code), coset)

    @pytest.mark.parametrize("name", sorted(LITERAL_CODES))
    def test_literal_codes(self, name):
        code = parse_code_text(LITERAL_CODES[name], name=name)
        assert validate_code(code).ok
        zero = logical_codewords(code).zero
        assert_same_bytes(zero, scan_zero_codeword(code))
        if code.n <= 10:
            assert np.abs(dense_of(zero) - dense_zero_codeword(code)).max() < 1e-12


def _conjugate(p: PauliOperator, ops) -> PauliOperator:
    """C p C^dag for the Clifford circuit C given as (kind, a, b) steps on
    0-based qubits: H and S on a, CNOT from a to b."""
    x, z, phase = p.x, p.z, p.phase
    for kind, a, b in ops:
        ma, mb = 1 << a, 1 << b
        if kind == "H":  # X^x Z^z -> (-1)^(xz) X^z Z^x on qubit a
            phase += 2 * bool(x & z & ma)
            x, z = (x & ~ma) | (z & ma), (z & ~ma) | (x & ma)
        elif kind == "S":  # X -> iXZ, Z -> Z
            if x & ma:
                z ^= ma
                phase += 1
        elif a != b:  # X_a -> X_a X_b, Z_b -> Z_a Z_b
            if x & ma:
                x ^= mb
            if z & mb:
                z ^= ma
    return PauliOperator(p.n, x, z, phase)


@st.composite
def clifford_codes(draw):
    """The trivial code (Z_1..Z_{n-1}; logical X_n, Z_n) under a random H, S,
    CNOT circuit, with a fresh generating set and random generator signs."""
    n = draw(st.integers(1, 6))
    q = st.integers(0, n - 1)
    ops = draw(st.lists(st.tuples(st.sampled_from("HSC"), q, q), min_size=n, max_size=6 * n))
    gens = [_conjugate(PauliOperator.single(n, i, "Z"), ops) for i in range(1, n)]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if draw(st.booleans()):
                gens[i] = gens[i].multiply(gens[j])
    signs = draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    gens = [PauliOperator(n, g.x, g.z, g.phase + 2 * s) for g, s in zip(gens, signs)]
    lx = _conjugate(PauliOperator.single(n, n, "X"), ops)
    lz = _conjugate(PauliOperator.single(n, n, "Z"), ops)
    return StabilizerCode("random", n, 1, tuple(gens), (lx,), (lz,))


class TestRandomCodes:
    @settings(max_examples=200, deadline=None)
    @given(clifford_codes())
    def test_zero_codeword(self, code):
        assert validate_code(code).ok
        zero = logical_codewords(code).zero
        assert np.abs(dense_of(zero) - dense_zero_codeword(code)).max() < 1e-12
        assert_same_bytes(zero, scan_zero_codeword(code))


@st.composite
def perturbed_codes(draw):
    """A clifford_codes code with one generator, the logical X or the
    logical Z replaced by a random Pauli with a random sign prefix, or, so
    that the code stays valid, negated or multiplied by another generator."""
    code = draw(clifford_codes())
    n = code.n
    ops = list(code.generators) + [code.logical_x[0], code.logical_z[0]]
    i = draw(st.integers(0, len(ops) - 1))
    others = [g for j, g in enumerate(code.generators) if j != i]
    how = draw(st.sampled_from(("replace", "negate", "multiply") if others else ("replace", "negate")))
    if how == "replace":
        letters = draw(st.text("IXYZ", min_size=n, max_size=n))
        ops[i] = parse_pauli(draw(st.sampled_from(["", "-", "i", "-i"])) + letters)
    elif how == "negate":
        ops[i] = PauliOperator(n, ops[i].x, ops[i].z, ops[i].phase + 2)
    else:
        ops[i] = ops[i].multiply(draw(st.sampled_from(others)))
    return StabilizerCode("perturbed", n, 1, tuple(ops[:-2]), (ops[-2],), (ops[-1],))


def _verdict(check, code):
    """The message of the ValueError check(code) raises, or None."""
    try:
        result = check(code)
    except ValueError as exc:
        return str(exc)
    return result if isinstance(result, str) else None


# (code text, the readout's verdict on the states, validate_code's first
# violation); the readout's verdict names each case
STAGE_CASES = [
    # logical X = ZZ is the generator; logical Z = XI anticommutes with it
    ("2 1\nZZ\nZZ\nXI\n", "codeword is not fixed by ZZ", "logical X[1] lies in the stabilizer group"),
    # logical X = XXX is the second generator; logical Z = XXZ anticommutes with it
    ("3 1\nZZI\nXXX\nXXX\nXXZ\n", "logical Z does not fix |0>",
     "logical X[1] lies in the stabilizer group"),
    # a Z-only logical Z that anticommutes with XXI
    ("3 1\nXXI\nIXX\nXXX\nZII\n", "logical Z does not fix |0>",
     "logical Z[1] anticommutes with generator 1"),
    # a non-Hermitian logical Z with an X-part
    ("3 1\nZZI\nIZZ\nXXX\niXXX\n", "logical Z does not fix |0>",
     "logical Z[1] (iXXX) is not Hermitian"),
    # logical X = XII commutes with logical Z = XXX
    ("3 1\nXXI\nIXX\nXII\nXXX\n", "logical Z does not negate |1>",
     "logical X[1] and Z[1] must anticommute"),
    # anticommuting generators
    ("3 1\nXXI\nZII\nXXX\nZZZ\n", "codeword is not fixed by ZII",
     "generators 1 (XXI) and 2 (ZII) anticommute"),
]


class TestChecksAgainstReadout:
    """logical_codewords builds exactly the codes validate_code accepts, and
    an eigenvalue readout of the states it builds passes (tests/oracles.py
    readout_codeword_verdict)."""

    @settings(max_examples=300, deadline=None)
    @given(perturbed_codes())
    def test_raises_exactly_when_validate_code_reports(self, code):
        violations = validate_code(code).violations
        got = _verdict(logical_codewords.__wrapped__, code)
        assert got == (f"perturbed: {violations[0]}" if violations else None)
        if got is None:
            assert readout_codeword_verdict(code) is None

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_pass_the_readout(self, name):
        code = builtin_code(name)
        assert readout_codeword_verdict(code) is None
        assert _verdict(logical_codewords.__wrapped__, code) is None

    @pytest.mark.parametrize("text, readout, violation", STAGE_CASES,
                             ids=[f"{text}-{readout}" for text, readout, _ in STAGE_CASES])
    def test_stage_and_name(self, text, readout, violation):
        # the states of each code fail the readout too, at the stage its id names
        code = parse_code_text(text, name="c")
        assert _verdict(logical_codewords.__wrapped__, code) == f"c: {violation}"
        assert readout_codeword_verdict(code) == f"c: {readout}"

    def test_codewords_read_no_state_back(self, monkeypatch):
        from hqec import states

        def forbidden(*args):
            raise AssertionError("a state readout in logical_codewords")

        monkeypatch.setattr(states, "inner", forbidden)
        for name in LITERAL_CODES:
            logical_codewords.__wrapped__(parse_code_text(LITERAL_CODES[name], name=name))


@st.composite
def resized_codes(draw):
    """A perturbed_codes code with maybe a generator too many or too few,
    and k drawn from 0..2 (the second logical pair random)."""
    code = draw(perturbed_codes())
    n, gens = code.n, list(code.generators)
    if gens and draw(st.booleans()):
        gens = gens[:-1] if draw(st.booleans()) else gens + [gens[0].multiply(gens[-1])]
    k = draw(st.integers(0, 2))
    extra = [parse_pauli(draw(st.text("IXYZ", min_size=n, max_size=n))) for _ in range(2)]
    return StabilizerCode("resized", n, k, gens, (code.logical_x[0], extra[0])[:k],
                          (code.logical_z[0], extra[1])[:k])


class TestValidateAgainstPairwise:
    """validate_code by popcounts reports the violations of the commutes-call
    form in tests/oracles.py, in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(clifford_codes(), perturbed_codes(), resized_codes()))
    def test_same_violations(self, code):
        assert validate_code(code) == pairwise_validate_code(code)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        assert validate_code(builtin_code(name)) == pairwise_validate_code(builtin_code(name))

    @pytest.mark.parametrize("name", sorted(LITERAL_CODES))
    def test_literal_codes(self, name):
        code = parse_code_text(LITERAL_CODES[name], name=name)
        assert validate_code(code) == pairwise_validate_code(code)

    def test_generators_wider_than_the_code(self):
        # no code holds them, so validate_code packs every operator with n
        wide = (parse_pauli("IIIX"), parse_pauli("XIII"))
        with pytest.raises(ValueError, match="^operator IIIX acts on 4 qubits, expected 3$"):
            StabilizerCode("wide", 3, 1, wide, (parse_pauli("XXX"),), (parse_pauli("ZZZ"),))


class TestReduceTrackedAgainstProducts:
    """codes._reduce_tracked on (x, z, phase) ints gives the vector and the
    tracked element that PauliOperator.multiply products give (tests/oracles.py
    pauli_reduce_tracked), against the rows of every prefix of the
    generators, in validate_code's symplectic form and _zero_codeword's
    x-part form."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(clifford_codes(), perturbed_codes()), st.sampled_from(["symplectic", "x_part"]))
    def test_same_vector_and_element(self, code, form):
        n = code.n
        int_rows, pauli_rows = [], []
        for i, p in enumerate(code.generators + code.logical_x + code.logical_z):
            vec = sympl_vec(p, n) if form == "symplectic" else p.x
            got = _reduce_tracked(vec, p.x, p.z, p.phase, int_rows)
            want_vec, want = pauli_reduce_tracked(vec, p, pauli_rows)
            assert got == (want_vec, want.x, want.z, want.phase)
            if want_vec and i < len(code.generators):  # rows come from generators only
                int_rows.append(got)
                pauli_rows.append((want_vec, want))

    def test_phase_wraps_mod_4(self):
        # (i^3 XZ) * (i^3 X): phases 3 + 3 and the Z-past-X sign 2 make 8 = 0 mod 4
        a, b = PauliOperator(1, 1, 1, 3), PauliOperator(1, 1, 0, 3)
        want_vec, want = pauli_reduce_tracked(a.x, a, [(b.x, b)])
        assert (want_vec, want) == (0, PauliOperator(1, 0, 1, 0))
        assert _reduce_tracked(a.x, a.x, a.z, a.phase, [(b.x, b.x, b.z, b.phase)]) == (0, 0, 1, 0)


class TestConstruction:
    def test_signed_chain_reaches_n24(self):
        # the first surviving seed is 2^24 - 2, which the scan reaches last
        code = parse_code_text(chain_text(24, "Z" + "I" * 23), name="chain24")
        assert validate_code(code).ok
        zero = logical_codewords(code).zero
        assert zero.keys == ((1 << 24) - 2,)
        assert zero.amps == (1.0,)

    def test_x_rank_guard(self):
        # phase-flip repetition code on 21 qubits: 2^21 terms per codeword
        n = 21
        gens = ["I" * i + "XX" + "I" * (n - i - 2) for i in range(n - 1)]
        code = parse_code_text("\n".join([f"{n} 1", *gens, "Z" * n, "X" * n]), name="pf21")
        assert validate_code(code).ok
        with pytest.raises(gf2.GuardExceeded, match="guard"):
            logical_codewords(code)

    def test_non_hermitian_element_rejected(self):
        code = StabilizerCode("iz", 2, 1, (parse_pauli("iZZ"),), (parse_pauli("XX"),),
                              (parse_pauli("ZI"),))
        with pytest.raises(ValueError, match=r"^iz: generator 1 \(iZZ\) is not Hermitian$"):
            logical_codewords(code)

    @pytest.mark.parametrize("slot", [0, 1, 2])  # the first generator, logical X, logical Z
    @pytest.mark.parametrize("wrong", ["ZZ", "XX", "IZZI", "XXXX"])
    def test_operator_on_the_wrong_qubit_count(self, slot, wrong):
        # the bit-flip code with one operator on 2 or 4 qubits instead of 3
        ops = ["ZZI", "XXX", "ZZZ"]
        ops[slot] = wrong
        g, x, z = map(parse_pauli, ops)
        with pytest.raises(ValueError, match=f"^operator {wrong} acts on {len(wrong)} qubits, expected 3$"):
            StabilizerCode("wide", 3, 1, (g, parse_pauli("IZZ")), (x,), (z,))

    @settings(max_examples=100, deadline=None)
    @given(clifford_codes(), st.data())
    def test_operator_redrawn_on_another_qubit_count(self, code, data):
        # one generator, the logical X or the logical Z on m != n qubits
        n = code.n
        ops = [*code.generators, *code.logical_x, *code.logical_z]
        i = data.draw(st.integers(0, len(ops) - 1))
        m = data.draw(st.integers(1, n + 2).filter(lambda m: m != n))
        ops[i] = parse_pauli(data.draw(st.sampled_from(["", "-", "i", "-i"]))
                             + data.draw(st.text("IXYZ", min_size=m, max_size=m)))
        with pytest.raises(ValueError) as refused:
            StabilizerCode("redrawn", n, 1, ops[:-2], ops[-2:-1], ops[-1:])
        assert str(refused.value) == f"operator {ops[i]} acts on {m} qubits, expected {n}"

    @pytest.mark.parametrize("logical_x, logical_z", [((), ("ZZZ",)), (("XXX",), ())])
    def test_missing_logical_operator(self, logical_x, logical_z):
        code = StabilizerCode("bare", 3, 1, (parse_pauli("ZZI"), parse_pauli("IZZ")),
                              tuple(map(parse_pauli, logical_x)), tuple(map(parse_pauli, logical_z)))
        with pytest.raises(ValueError, match="^bare: expected 1 logical X and Z operators$"):
            logical_codewords(code)

    def test_register_cap(self):
        # states share the operators' qubit cap, so a code past 64 qubits
        # has codewords: Z1..Z64 fixed, qubit 65 the logical qubit
        n = 65
        gens = tuple(PauliOperator.single(n, q, "Z") for q in range(1, n))
        code = StabilizerCode("big", n, 1, gens, (PauliOperator.single(n, n, "X"),),
                              (PauliOperator.single(n, n, "Z"),))
        space = logical_codewords(code)
        assert state_bytes(space.zero) == state_bytes(basis_state(n, "0" * n))
        assert state_bytes(space.one) == state_bytes(basis_state(n, "0" * 64 + "1"))
