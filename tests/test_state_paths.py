"""The code-space plan, the trailing Pauli of apply_monomial, the zip sort
of _resorted, the paired general branch of apply_single and the one sweep
of apply_paulis, each against the route it replaced (kept in
tests/oracles.py), in keys and in float.hex of both parts of every
amplitude, so signed zeros count.  CodeSpace.state is held to combine, and
coords and inner of a psi against a code-space state (the T runners'
fidelity) to the combine/inner oracles.  The two codewords are two cosets
of one space, so they hold the same keys or none in common: every code
space checked here is one of the two, and a hand-built basis that is
neither is refused."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hqec import BUILTIN_NAMES
from hqec.codes import CodeSpace, builtin_code, logical_codewords
from hqec.pauli import PauliOperator, parse_pauli
from hqec.protocol import _encode
from hqec.states import (
    PRUNE_TOL,
    MonomialLayer,
    SingleQubitGate,
    SparseState,
    _resorted,
    apply_monomial,
    apply_paulis,
    apply_single,
    gate,
    inner,
)
from oracles import (
    coalescing_apply_single,
    combine,
    combine_coords,
    combine_encode,
    combine_overlap,
    image_apply_pauli,
    index_sort_resorted,
    two_pass_monomial,
)
from test_codewords import clifford_codes

PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.6, -0.6, 0.8, -0.8, 1e-300]),
    st.builds(lambda seed: random.Random(seed).gauss(0.0, 1.0), st.integers(0, 2**32 - 1)),
)
AMPS = st.builds(complex, PARTS, PARTS)
BUILTIN_SPACES = [logical_codewords(builtin_code(name)) for name in BUILTIN_NAMES]


def hex_of(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def hex_terms(state: SparseState):
    return state.n, [(k, *hex_of(a)) for k, a in state.items()]


@st.composite
def nearby_states(draw, space):
    """A state on some keys of the code space's plan and some others, each
    amplitude drawn from AMPS (the constructor prunes exact zeros)."""
    n = space.zero.n
    plan_keys = list(space.plan[0])
    keys = set(draw(st.lists(st.sampled_from(plan_keys), max_size=len(plan_keys))))
    keys |= set(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4)))
    keys = sorted(keys)
    return SparseState(n, keys, draw(st.lists(AMPS, min_size=len(keys), max_size=len(keys))))


def assert_plan_matches(space, psi, c0, c1):
    assert hex_terms(space.state(c0, c1)) == hex_terms(combine(list(space.basis), [c0, c1]))
    assert [hex_of(v) for v in space.coords(psi)] == [hex_of(v) for v in combine_coords(space, psi)]
    assert hex_of(inner(psi, space.state(c0, c1))) == hex_of(combine_overlap(space, psi, c0, c1))


def assert_two_cosets(space):
    """The basis holds one key tuple (and no pick) or two disjoint key sets."""
    zero, one = space.basis
    keys, pick = space.plan
    if zero.keys == one.keys:
        assert pick is None
    else:
        assert pick is not None and set(zero.keys).isdisjoint(one.keys)


class TestCodeSpacePlan:
    @pytest.mark.parametrize("space", BUILTIN_SPACES, ids=BUILTIN_NAMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_builtin_spaces(self, space, data):
        assert_plan_matches(space, data.draw(nearby_states(space)), data.draw(AMPS), data.draw(AMPS))

    @given(clifford_codes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_codes(self, code, data):
        space = logical_codewords(code)
        assert_two_cosets(space)
        assert_plan_matches(space, data.draw(nearby_states(space)), data.draw(AMPS), data.draw(AMPS))

    def test_plan_is_the_sorted_union(self):
        shared = set()
        for name, space in zip(BUILTIN_NAMES, BUILTIN_SPACES):
            assert_two_cosets(space)
            zero, one = space.basis
            keys, pick = space.plan
            assert list(keys) == sorted(set(zero.keys) | set(one.keys))
            if pick is None:
                shared.add(name)
                continue
            # pick puts |0_L>'s products, then |1_L>'s, in key order
            both = zero.keys + one.keys
            assert [both[i] for i in pick(range(len(both)))] == list(keys)
        assert shared == {"phase_flip", "shor"}

    def test_partly_shared_keys_are_refused(self):
        # no code space holds such a basis: |1_L> = X|0_L> lies on another
        # coset of |0_L>'s space, or on the same one
        zero = SparseState(2, [0, 3], [0.6, 0.8])
        for one in (SparseState(2, [0, 1], [0.8, -0.6]), SparseState(2, [0], [1.0]),
                    SparseState(2, [0, 1, 3], [0.6, 0.6, -0.53])):
            space = CodeSpace(builtin_code("bit_flip"), (zero, one))
            with pytest.raises(ValueError, match="share some keys but not all"):
                space.state(1, 0)

    def test_coords_refuse_another_qubit_count(self):
        space = logical_codewords(builtin_code("bit_flip"))
        for n in (2, 4):
            # a psi on the codewords' keys, on another qubit count
            psi = SparseState(n, [0], [1.0])
            with pytest.raises(ValueError, match=f"^dimension mismatch: 3 vs {n}$"):
                space.coords(psi)

    def test_pruning(self):
        # shor's |1_L> is Z^9|0_L>, on the same keys with amplitudes +-x, so
        # c1 = -c0 + 1e-14j leaves 1e-14 x <= PRUNE_TOL on half of them
        space = logical_codewords(builtin_code("shor"))
        c0, c1 = 1 + 0j, -1 + 1e-14j
        got = space.state(c0, c1)
        keys = space.plan[0]
        assert 0 < got.num_terms < len(keys)
        raw = [c0 * space.zero.amplitude(k) + c1 * space.one.amplitude(k) for k in keys]
        assert sum(abs(a) <= PRUNE_TOL for a in raw) == len(keys) - got.num_terms
        psi = SparseState(9, keys, [0.6 - 0.8j] * len(keys))
        assert_plan_matches(space, psi, c0, c1)
        assert hex_terms(space.state(1e-300, 0.6)) == hex_terms(combine(list(space.basis), [1e-300, 0.6]))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @given(c0=AMPS, c1=AMPS)
    @settings(max_examples=40, deadline=None)
    def test_encode(self, name, c0, c1):
        assume(c0 != 0 or c1 != 0)
        code = builtin_code(name)
        want_space, want_amps, want = combine_encode(code, (c0, c1))
        amps, psi = _encode(want_space, (c0, c1))
        assert amps == want_amps
        assert hex_terms(psi) == hex_terms(want)


def _random_pauli(draw, n):
    bits = st.integers(0, (1 << n) - 1)
    return PauliOperator(n, draw(bits), draw(bits), draw(st.integers(0, 3)))


@st.composite
def layers_and_states(draw):
    """(state, layer, Pauli): a state on random keys, a layer of phases and
    forced T gadgets, and a trailing Pauli on the same qubits."""
    n = draw(st.integers(1, 6))
    keys = sorted(set(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))))
    state = SparseState(n, keys, draw(st.lists(AMPS, min_size=len(keys), max_size=len(keys))))
    layer, qubit = MonomialLayer(n), st.integers(1, n)
    measurable = state.norm() > 1e-3
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()) or not measurable:
            layer.phase(draw(qubit), draw(st.sampled_from([2, 4, 6])))
        else:
            layer.gadget(state, draw(qubit), draw(st.sampled_from([0, 2, 6, 14])), draw(st.sampled_from([0, 1, 7])),
                         None, draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)])))
    return state, layer, _random_pauli(draw, n)


class TestTrailingPauli:
    @given(layers_and_states())
    @settings(max_examples=150, deadline=None)
    def test_equals_two_passes(self, case):
        state, layer, then = case
        assert hex_terms(apply_monomial(state, layer, then)) == hex_terms(two_pass_monomial(state, layer, then))
        assert hex_terms(apply_monomial(state, layer)) == hex_terms(two_pass_monomial(state, layer))

    @pytest.mark.parametrize("space", BUILTIN_SPACES, ids=BUILTIN_NAMES)
    @given(c0=AMPS, c1=AMPS, outcomes=st.lists(st.integers(0, 3), min_size=15, max_size=15), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_code_space_states(self, space, c0, c1, outcomes, data):
        # transversal T gadgets on the encoded state, then a random Pauli;
        # the gadgets prune terms of magnitude <= PRUNE_TOL (from 1e-300 parts)
        state = space.state(c0, c1)
        n = state.n
        assume(state.norm() > 1e-3)
        layer = MonomialLayer(n)
        for q, o in zip(range(1, n + 1), outcomes):
            layer.gadget(state, q, 2 * (o & 1), 1, None, divmod(o, 2))
        then = _random_pauli(data.draw, n)
        assert hex_terms(apply_monomial(state, layer, then)) == hex_terms(two_pass_monomial(state, layer, then))


class TestResorted:
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=40))), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_index_sort(self, n_keys, data):
        n, keys = n_keys
        amps = data.draw(st.lists(AMPS, min_size=len(keys), max_size=len(keys)))
        assert hex_terms(_resorted(n, keys, amps)) == hex_terms(index_sort_resorted(n, keys, amps))


def successive(state, paulis):
    for p in paulis:
        state = image_apply_pauli(state, p)
    return state


@st.composite
def pauli_runs(draw, n):
    """0 to 4 Paulis on n qubits, each with a drawn phase; a run of two or
    more may end in a Pauli whose flip undoes the flips before it."""
    paulis = [_random_pauli(draw, n) for _ in range(draw(st.integers(0, 4)))]
    if len(paulis) > 1 and draw(st.booleans()):
        flip = 0
        for p in paulis[:-1]:
            flip ^= p.x
        paulis[-1] = PauliOperator(n, flip, paulis[-1].z, paulis[-1].phase)
    return paulis


# X, Y and Z mixes on three qubits: the first two flip qubits 1 and 2 and
# together cancel, the third flips qubit 3, and the fourth flips nothing
LETTERS = ("XYZ", "YXI", "ZZX", "ZIZ")
PREFIXES = ("", "i", "-", "-i")
# all eight keys, with +-0.0 in one or both parts of most amplitudes
SIGNED_ZEROS = SparseState(3, range(8), [complex(0.0, 0.6), complex(-0.0, -0.8), complex(0.6, 0.0),
                                         complex(-0.6, -0.0), complex(0.0, 1e-300), complex(-0.0, 0.6),
                                         complex(0.8, -0.0), complex(-0.8, 0.6)])


class TestApplyPaulis:
    def test_every_phase_prefix(self):
        # 0 to 4 Paulis, every assignment of phase prefixes to them
        runs = [[]]
        for m in range(1, 5):
            runs += [[parse_pauli(pre + LETTERS[i]) for i, pre in enumerate(pres)]
                     for pres in itertools.product(PREFIXES, repeat=m)]
        assert len(runs) == 1 + 4 + 16 + 64 + 256
        xs = [parse_pauli(text).x for text in LETTERS]
        assert xs[0] and xs[0] ^ xs[1] == 0 and xs[2] and not xs[3]
        for run in runs:
            assert hex_terms(apply_paulis(SIGNED_ZEROS, run)) == hex_terms(successive(SIGNED_ZEROS, run)), run

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=20))), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_states(self, n_keys, data):
        n, keys = n_keys
        state = SparseState(n, keys, data.draw(st.lists(AMPS, min_size=len(keys), max_size=len(keys))))
        paulis = data.draw(pauli_runs(n))
        assert hex_terms(apply_paulis(state, paulis)) == hex_terms(successive(state, paulis))

    @pytest.mark.parametrize("space", BUILTIN_SPACES, ids=BUILTIN_NAMES)
    @given(c0=AMPS, c1=AMPS, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_code_space_states(self, space, c0, c1, data):
        state = space.state(c0, c1)
        paulis = data.draw(pauli_runs(state.n))
        assert hex_terms(apply_paulis(state, paulis)) == hex_terms(successive(state, paulis))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_width_mismatch(self, m):
        # a wrong-size Pauli at each position raises the message that
        # successive passes raise, before any pass runs
        for pos in range(m):
            for wrong in ("XY", "XYZI"):
                run = [parse_pauli(LETTERS[i]) for i in range(m)]
                run[pos] = parse_pauli(wrong)
                with pytest.raises(ValueError) as want:
                    successive(SIGNED_ZEROS, run)
                with pytest.raises(ValueError, match=f"^dimension mismatch: operator on {len(wrong)}, state on 3$") as got:
                    apply_paulis(SIGNED_ZEROS, run)
                assert str(got.value) == str(want.value)


ROTATION = SingleQubitGate("R", ((0.6, 0.8), (0.8j, -0.6j)))


class TestPairedApplySingle:
    @given(st.integers(1, 6), st.sampled_from(["H", "X", "S", "R"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_coalescing(self, n, label, data):
        g = ROTATION if label == "R" else gate(label)
        keys = sorted(set(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))))
        state = SparseState(n, keys, data.draw(st.lists(AMPS, min_size=len(keys), max_size=len(keys))))
        qubit = data.draw(st.integers(1, n))
        assert hex_terms(apply_single(state, g, qubit)) == hex_terms(coalescing_apply_single(state, g, qubit))

    def test_pruning(self):
        # H|+> cancels |1> exactly, and (0.6, 0.6 + 1e-13) leaves 7e-14 there;
        # (0.6, -0.6 - 1e-13j) leaves 7e-14 at |0>
        for amps, kept in (([0.6, 0.6], 0), ([0.6, 0.6 + 1e-13], 0), ([0.6, -0.6 - 1e-13j], 1)):
            state = SparseState(1, [0, 1], amps)
            got = apply_single(state, gate("H"), 1)
            assert got.keys == (kept,)
            assert hex_terms(got) == hex_terms(coalescing_apply_single(state, gate("H"), 1))
