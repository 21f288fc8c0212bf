"""Exact sparse state vectors on up to 64 qubits, in plain Python.

A state holds a sorted tuple of basis keys (Python ints with qubit q at bit
q-1, so qubit 1 is the leftmost character of a bitstring like "110") and a
parallel tuple of complex amplitudes.  States are values: every operation
returns a new state.

This module decides every numeric question of the library, and ``codes``,
``compat``, ``protocol`` and ``cli`` read its answers.  The amplitudes of
the supported protocols (powers of 1/sqrt2 times eighth roots of unity) are
exact up to rounding, so two numeric decisions suffice: two computed values
agree within ``TOL`` (squared weights within ``TOL**2``), and a magnitude
at most ``PRUNE_TOL`` counts as zero (such terms are pruned).  Squared norms
are ``_weight`` sums, and ``unit_amplitudes`` normalizes a user's
amplitudes without overflow or underflow.  No result depends
on the Python version: sums of re*re + im*im are math.fsum sums, complex
sums are explicit ``+=`` loops in key order (``sum()`` of floats is
compensated since Python 3.12, so it would round differently across the
supported versions), and every factor is a Python complex (a float or int
factor multiplies differently on Python 3.14, in the signs of zero parts).
``inner`` and ``pauli_eigenvalues`` look keys up in a dict of the terms;
``pauli_eigenvalues`` is the syndrome readout of ``protocol``.  It reads a
Z-only Pauli by the parity classes of the keys: when all keys share one
parity, as in every eigenstate, the value is +-i^phase times the squared
norm, with no per-term list.  ``codes`` reads no state back: it checks its
codewords on the operators alone.

``teleport`` contracts a data qubit, a fresh Bell pair and the pair's
rotated Bell measurement without building the joint register: an outcome
sends each term to one key, so the collapse is one gather and the four
probabilities are one sum.  ``apply_phases`` runs a layer of Z, S and Sd
gates on many qubits as one phase pass.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left

from .gf2 import format_row, parse_row
from .pauli import PauliOperator

MAX_STATE_QUBITS = 64
TOL = 1e-10  # two computed values agree
PRUNE_TOL = 1e-12  # a magnitude counts as zero
TERM_GUARD = 1 << 22

_R2 = 1.0 / math.sqrt(2.0)
_SQ2 = complex(_R2)
_SIGNS = (1 + 0j, -1 + 0j)  # (-1)^parity
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
_GATE_MATRICES = {
    "X": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "Z": ((1 + 0j, 0j), (0j, -1 + 0j)),
    "H": ((_SQ2, _SQ2), (_SQ2, complex(-_R2))),
    "S": ((1 + 0j, 0j), (0j, 1j)),
    "Sd": ((1 + 0j, 0j), (0j, -1j)),
    "T": ((1 + 0j, 0j), (0j, cmath.exp(1j * math.pi / 4))),
    "Td": ((1 + 0j, 0j), (0j, cmath.exp(-1j * math.pi / 4))),
}


def _weight(amps) -> float:
    """sum |a|^2 over the amplitudes, correctly rounded."""
    return math.fsum([a.real * a.real + a.imag * a.imag for a in amps])


class SingleQubitGate:
    __slots__ = ("label", "matrix")

    def __init__(self, label: str, matrix):
        (a, b), (c, d) = m = tuple(tuple(complex(x) for x in row) for row in matrix)
        # a unitary's entries lie in the unit disc, so larger parts, nan and
        # inf fail at once, and the entries of m m^dag - I cannot overflow
        bounded = all(abs(v) <= 2 for x in (a, b, c, d) for v in (x.real, x.imag))
        if not bounded or max(abs(_weight((a, b)) - 1), abs(_weight((c, d)) - 1),
                              abs(a * c.conjugate() + b * d.conjugate())) > PRUNE_TOL:
            raise ValueError(f"gate {label!r} is not unitary")
        self.label = label
        self.matrix = m


_GATES = {label: SingleQubitGate(label, m) for label, m in _GATE_MATRICES.items()}
IDENTITY = SingleQubitGate("I", ((1, 0), (0, 1)))


def gate(label: str) -> SingleQubitGate:
    """Named gate from {X, Z, H, S, Sd, T, Td}; gates are immutable and shared."""
    try:
        return _GATES[label]
    except KeyError:
        raise ValueError(f"unknown gate {label!r}") from None


class SparseState:
    """Immutable map from packed basis keys to complex amplitudes.

    Any sequences of ints and numbers will do as keys and amplitudes (numpy
    arrays too); the state stores them as tuples of int and complex."""

    __slots__ = ("n", "keys", "amps")

    def __init__(self, n: int, keys, amps):
        if not 0 <= n <= MAX_STATE_QUBITS:
            raise ValueError(f"qubit count must be in 0..{MAX_STATE_QUBITS}, got {n}")
        keys = tuple([int(k) for k in keys])
        amps = tuple([complex(a) for a in amps])
        if len(keys) != len(amps):
            raise ValueError("keys and amplitudes differ in length")
        if keys and (min(keys) < 0 or max(keys) >> n):
            raise ValueError("basis key has bits beyond the register size")
        self.n = n
        self.keys, self.amps = _coalesce(keys, amps)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms: dict) -> "SparseState":
        keys = [parse_row(k) if isinstance(k, str) else int(k) for k in terms]
        return cls(n, keys, terms.values())

    # -- inspection -------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return len(self.keys)

    def norm(self) -> float:
        return math.sqrt(_weight(self.amps))

    def amplitude(self, bits: int | str) -> complex:
        if isinstance(bits, str):
            bits = parse_row(bits)
        i = bisect_left(self.keys, bits)
        if i < len(self.keys) and self.keys[i] == bits:
            return self.amps[i]
        return 0j

    def items(self):
        return zip(self.keys, self.amps)

    def dump_lines(self) -> list[str]:
        """State dump format: 'bitstring re im' sorted by bitstring."""
        rows = [(format_row(k, self.n), a) for k, a in self.items()]
        rows.sort(key=lambda r: r[0])
        return [f"{b} {a.real:.17g} {a.imag:.17g}" for b, a in rows]

    def normalized(self) -> "SparseState":
        nrm = self.norm()
        if nrm <= PRUNE_TOL:
            raise ValueError("cannot normalize a zero state")
        return self.scaled(1.0 / nrm)

    def scaled(self, factor: complex) -> "SparseState":
        f = complex(factor)
        return _state(self.n, self.keys, tuple([a * f for a in self.amps]))

    def _check_qubit(self, qubit: int):
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit {qubit} out of range 1..{self.n}")


def _state(n: int, keys: tuple, amps: tuple) -> SparseState:
    """A state from sorted, distinct keys and their amplitudes, unchecked."""
    s = object.__new__(SparseState)
    s.n, s.keys, s.amps = n, keys, amps
    return s


def unit_amplitudes(amps) -> tuple[complex, ...]:
    """amps / ||amps|| for finite amplitudes that are not all zero.  An exact
    power-of-two scaling first brings the largest real or imaginary part
    into [0.5, 1), so the hypot norm neither overflows nor underflows, and
    amplitudes already of that size are divided by their norm unchanged."""
    amps = [complex(a) for a in amps]
    parts = [x for a in amps for x in (a.real, a.imag)]
    if not any(parts) or not all(map(math.isfinite, parts)):
        raise ValueError("amplitudes must be finite and not all zero")
    e = -math.frexp(max(map(abs, parts)))[1]
    amps = [complex(math.ldexp(a.real, e), math.ldexp(a.imag, e)) for a in amps]
    norm = math.hypot(*map(abs, amps))
    return tuple([a / norm for a in amps])


def _coalesce(keys, amps):
    """Sort by key, sum duplicate keys in their given order, drop terms
    with |amp| <= PRUNE_TOL."""
    acc = dict(zip(keys, amps))
    if len(acc) < len(keys):
        acc = {}
        for k, a in zip(keys, amps):
            acc[k] = acc[k] + a if k in acc else a
    kept = sorted(k for k, a in acc.items() if abs(a) > PRUNE_TOL)
    return tuple(kept), tuple([acc[k] for k in kept])


def _resorted(n: int, keys, amps) -> SparseState:
    """A state from distinct keys in any order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return _state(n, tuple([keys[i] for i in order]), tuple([amps[i] for i in order]))


def combine(states, coeffs) -> SparseState:
    """Linear combination sum_i coeffs[i] * states[i] (not normalized)."""
    n = states[0].n
    for s in states:
        if s.n != n:
            raise ValueError("dimension mismatch in combine")
    if sum(s.num_terms for s in states) > TERM_GUARD:
        raise ValueError("combine result exceeds the term-count guard")
    keys = [k for s in states for k in s.keys]
    amps = [c * a for s, c in zip(states, map(complex, coeffs)) for a in s.amps]
    return _state(n, *_coalesce(keys, amps))


def inner(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the shared basis keys, summed in key order."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    lookup = dict(b.items())
    total = 0j
    for k, x in a.items():
        y = lookup.get(k)
        if y is not None:
            total += x.conjugate() * y
    return total


def fidelity_up_to_phase(a: SparseState, b: SparseState) -> float:
    """|<a|b>|; 1 means equal up to a global phase (for normalized inputs)."""
    return abs(inner(a, b))


def apply_single(state: SparseState, g: SingleQubitGate, qubit: int) -> SparseState:
    state._check_qubit(qubit)
    (m00, m01), (m10, m11) = g.matrix
    bit = 1 << (qubit - 1)
    keys, amps = state.keys, state.amps
    if m01 == 0 and m10 == 0:
        # diagonal: sparsity preserved exactly
        return _state(state.n, keys, tuple([a * m11 if k & bit else a * m00 for k, a in zip(keys, amps)]))
    if m00 == 0 and m11 == 0:
        # antidiagonal: basis permutation
        return _resorted(state.n, [k ^ bit for k in keys],
                         [a * m01 if k & bit else a * m10 for k, a in zip(keys, amps)])
    # general: each term branches into bit=0 and bit=1 components
    if 2 * state.num_terms > TERM_GUARD:
        raise ValueError(f"gate {g.label} result exceeds the term-count guard")
    keys2 = [k & ~bit for k in keys] + [k | bit for k in keys]
    amps2 = ([a * m01 if k & bit else a * m00 for k, a in zip(keys, amps)]
             + [a * m11 if k & bit else a * m10 for k, a in zip(keys, amps)])
    return _state(state.n, *_coalesce(keys2, amps2))


def apply_phases(state: SparseState, powers) -> SparseState:
    """The diagonal layer diag(1, i^powers[q-1]) on every qubit q in one pass:
    each term |k> is multiplied by i^(sum of powers[q-1] * bit q of k), with
    the exponent read by bit_count from two qubit masks (its 1s and 2s).
    Every factor is an exact unit, so for amplitudes without zero real or
    imaginary parts this equals applying the Z (power 2), S (1) and Sd (3)
    gates one by one, bit for bit."""
    if len(powers) != state.n:
        raise ValueError(f"{len(powers)} phase powers for {state.n} qubits")
    ones = sum(1 << q for q, k in enumerate(powers) if k & 1)
    twos = sum(1 << q for q, k in enumerate(powers) if k & 2)
    amps = [a * _I_POWERS[((k & ones).bit_count() + 2 * (k & twos).bit_count()) & 3]
            for k, a in state.items()]
    return _state(state.n, state.keys, tuple(amps))


def apply_cnot(state: SparseState, control: int, target: int) -> SparseState:
    state._check_qubit(control)
    state._check_qubit(target)
    if control == target:
        raise ValueError("control and target must differ")
    c, t = control - 1, target - 1
    return _resorted(state.n, [k ^ (((k >> c) & 1) << t) for k in state.keys], state.amps)


def _pauli_image(state: SparseState, p: PauliOperator) -> list:
    """The amplitudes i^phase (-1)^popcount(k & z) a_k that P = i^phase X(x)
    Z(z) puts at the keys k ^ x, in key order."""
    z, ph = p.z, p.phase_value()
    return [a * _SIGNS[(k & z).bit_count() & 1] * ph for k, a in state.items()]


def apply_pauli(state: SparseState, p: PauliOperator) -> SparseState:
    if p.n != state.n:
        raise ValueError(f"dimension mismatch: operator on {p.n}, state on {state.n}")
    amps = _pauli_image(state, p)
    if p.x:
        return _resorted(state.n, [k ^ p.x for k in state.keys], amps)
    return _state(state.n, state.keys, tuple(amps))


def pauli_eigenvalues(state: SparseState, paulis) -> tuple[tuple, tuple]:
    """(values, eigen) for a sequence of Paulis: <psi|P|psi> for each P, and
    whether every term of P|psi> matches mu|psi> within TOL, where
    mu = value / <psi|psi>.  The zero state is no eigenstate.

    P sends a|k> to its image term i^phase (-1)^popcount(k & z) a at k ^ x,
    which is checked against psi at k ^ x, looked up in a dict (a missing key
    counts as amplitude 0); the dict is built only when some P has an X part.

    A Z-only Pauli keeps every key: P|k> = +-i^phase |k> by the parity of
    k & z, so the value is i^phase times a signed sum of the weights |a|^2,
    and a term's squared residual is |a|^2 |+-i^phase - mu|^2, largest at the
    largest weight of its parity.  When every key has one parity (every
    eigenstate, so every syndrome readout of a valid run), the signed sum is
    +-norm2 and the other parity's largest weight is 0, so no per-term list
    is built; both results equal the signed-weight path's bit for bit.
    Mixed parities (no eigenstate) take the signed-weight path.
    """
    for p in paulis:
        if p.n != state.n:
            raise ValueError(f"dimension mismatch: operator on {p.n}, state on {state.n}")
    keys, amps = state.keys, state.amps
    weights = [a.real * a.real + a.imag * a.imag for a in amps]
    norm2 = math.fsum(weights)
    if not paulis or norm2 == 0:
        return (0j,) * len(paulis), (False,) * len(paulis)
    top = max(weights)
    lookup = dict(zip(keys, amps)) if any(p.x for p in paulis) else None
    values, eigen = [], []
    for p in paulis:
        x, z, ph = p.x, p.z, p.phase_value()
        if x:
            target = [lookup.get(k ^ x, 0j) for k in keys]
            image = [a * _SIGNS[(k & z).bit_count() & 1] * ph for k, a in zip(keys, amps)]
            lam = 0j
            for t, y in zip(target, image):
                lam += t.conjugate() * y
            mu = lam / norm2
            eigen.append(all([abs(y - mu * t) <= TOL for t, y in zip(target, image)]))
        else:
            parities = {(k & z).bit_count() & 1 for k in keys}
            if len(parities) == 1:
                # the largest weight of the one parity present, 0 for the other
                if parities.pop():
                    lam, even, odd = ph * complex(-norm2), 0.0, top
                else:
                    lam, even, odd = ph * complex(norm2), top, 0.0
            else:
                signed = [-w if (k & z).bit_count() & 1 else w for k, w in zip(keys, weights)]
                lam = ph * complex(math.fsum(signed))
                even, odd = max(max(signed), 0.0), max(-min(signed), 0.0)
            mu = lam / norm2
            # the largest weight of each parity sets its largest residual
            eigen.append(even * abs(ph - mu) ** 2 <= TOL**2 and odd * abs(ph + mu) ** 2 <= TOL**2)
        values.append(lam)
    return tuple(values), tuple(eigen)


def swap_qubits(state: SparseState, i: int, j: int) -> SparseState:
    state._check_qubit(i)
    state._check_qubit(j)
    if i == j:
        return state
    both = (1 << (i - 1)) | (1 << (j - 1))
    keys = [k ^ both if ((k >> (i - 1)) ^ (k >> (j - 1))) & 1 else k for k in state.keys]
    return _resorted(state.n, keys, state.amps)


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Product state with a's qubits first (leftmost) and b's appended."""
    n = a.n + b.n
    if n > MAX_STATE_QUBITS:
        raise ValueError(f"tensor result on {n} qubits exceeds the {MAX_STATE_QUBITS}-qubit cap")
    if a.num_terms * b.num_terms > TERM_GUARD:
        raise ValueError("tensor result exceeds the term-count guard")
    # b's keys fill the high bits, so b-major order is already sorted
    keys = tuple([(kb << a.n) | ka for kb in b.keys for ka in a.keys])
    return _state(n, keys, tuple([y * x for y in b.amps for x in a.amps]))


_BELL_PAIR = _state(2, (0b00, 0b11), (_SQ2, _SQ2))
_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _bell_basis_rows(rotation) -> tuple:
    """Row i: the conjugated basis vector (U^dag Z^b X^a (x) I)|Phi> of
    outcome (a, b) = _OUTCOMES[i], at index b1 + 2*b2 (b1 the bit of the
    first measured qubit), for the 2x2 matrix `rotation` of U.  Entry
    b1 + 2*b2 is M[b1, b2]/sqrt2, and column j of M = U^dag Z^b X^a is
    (-1)^(b*(j^a)) times column j^a of U^dag, which is exact; adding 0j
    clears negative zeros."""
    rows = []
    for a, b in _OUTCOMES:
        # M[r][j] = U^dag[r][j ^ a] * (-1)^(b*(j ^ a)), U^dag[r][c] = conj(U[c][r])
        m = [[rotation[j ^ a][r].conjugate() * _SIGNS[b & (j ^ a)] for j in (0, 1)] for r in (0, 1)]
        rows.append(tuple((m[b1][b2] * _SQ2 + 0j).conjugate() for b2 in (0, 1) for b1 in (0, 1)))
    return tuple(rows)


def _bell_gather(rotation: SingleQubitGate):
    """(flips, entries, zeros) from _bell_basis_rows: outcome i sends data
    bit d to pair bit e = d ^ flips[i], times entries[i][d] (column d + 2e);
    zeros[i][d] is the entry its partner meets there (column 1 - d + 2e).
    Raises unless the rotation is diagonal or antidiagonal."""
    rows = _bell_basis_rows(rotation.matrix)
    flips = tuple(int(r[2] != 0) for r in rows)
    entries = tuple((r[2], r[1]) if f else (r[0], r[3]) for r, f in zip(rows, flips))
    zeros = tuple((r[3], r[0]) if f else (r[1], r[2]) for r, f in zip(rows, flips))
    if sum(x != 0 for e in entries for x in e) != 8 or sum(x != 0 for r in rows for x in r) != 8:
        raise ValueError(f"teleport takes a diagonal or antidiagonal rotation, got {rotation.label!r}")
    return flips, entries, zeros


# the rotations the T gadgets use (I, S and Sd), keyed by their matrices
_BELL_GATHERS = {g.matrix: _bell_gather(g) for g in (IDENTITY, _GATES["S"], _GATES["Sd"])}


def teleport(state: SparseState, qubit: int, rotation: SingleQubitGate, rng, forced=None,
             diagonal: SingleQubitGate | None = None):
    """Teleport `qubit` through a fresh Bell pair measured in the basis
    (U^dag Z^b X^a (x) I)|Phi>: tensor(state, _BELL_PAIR), swap_qubits(qubit,
    n+1) and a measurement of the pair (n+1, n+2), without the joint
    register.  Returns ((r_a, r_b), the collapsed n-qubit state); `forced`
    replaces sampling.  U must be diagonal or antidiagonal: an outcome then
    sends term k to k or k ^ mask alone, with the same |amp| for every
    outcome, so the collapse is one gather and the four probabilities are
    one sum.  All of it equals the joint register's sort-and-sum bit for bit.

    `diagonal`, a T gadget's T or Td, is applied to `qubit` first, by the
    product apply_single uses, so the result equals teleport(apply_single(
    state, diagonal, qubit), ...) bit for bit; a non-diagonal gate raises."""
    if diagonal is not None and (diagonal.matrix[0][1] != 0 or diagonal.matrix[1][0] != 0):
        raise ValueError(f"teleport takes a diagonal gate, got {diagonal.label!r}")
    flips, entries, zeros = _BELL_GATHERS.get(rotation.matrix) or _bell_gather(rotation)
    n = state.n
    if n + 2 > MAX_STATE_QUBITS:
        raise ValueError(f"tensor result on {n + 2} qubits exceeds the {MAX_STATE_QUBITS}-qubit cap")
    if 2 * state.num_terms > TERM_GUARD:
        raise ValueError("tensor result exceeds the term-count guard")
    state._check_qubit(qubit)
    if state.num_terms == 0:
        raise ValueError("measurement on a zero-weight state")

    keys = state.keys
    mask = 1 << (qubit - 1)
    bits = [(k >> (qubit - 1)) & 1 for k in keys]
    amps = state.amps
    if diagonal is not None:
        d = (diagonal.matrix[0][0], diagonal.matrix[1][1])
        amps = [a * d[b] for a, b in zip(amps, bits)]
    half = _BELL_PAIR.amps[0]
    amps = [half * a for a in amps]
    kept = [abs(a * entries[0][b]) > PRUNE_TOL for a, b in zip(amps, bits)]
    p = _weight([a * entries[0][b] for a, b, k in zip(amps, bits, kept) if k])
    probs = [p] * 4
    if 4 * p < PRUNE_TOL:
        raise ValueError("measurement on a zero-weight state")

    if forced is None:
        idx = rng.choice_weighted(probs)
    else:
        try:
            idx = _OUTCOMES.index(tuple(forced))
        except (TypeError, ValueError):
            raise ValueError(f"forced outcome must be a pair of bits, got {forced!r}") from None
    outcome = _OUTCOMES[idx]
    if p < PRUNE_TOL:
        raise ValueError(f"outcome {outcome} has zero probability")
    # where partner k ^ mask is stored, the joint sum adds its zero-entry
    # product too: that sets the signs of zero parts
    lookup = dict(zip(keys, amps))
    e, z = entries[idx], zeros[idx]
    scale = complex(1.0 / math.sqrt(p))
    out_keys, out_amps = [], []
    for k, a, b, keep in zip(keys, amps, bits, kept):
        if keep:
            x = a * e[b]
            partner = lookup.get(k ^ mask)
            if partner is not None:
                x = x + partner * z[b]
            out_keys.append(k)
            out_amps.append(x * scale)
    if flips[idx]:
        return outcome, _resorted(n, [k ^ mask for k in out_keys], out_amps)
    return outcome, _state(n, tuple(out_keys), tuple(out_amps))
