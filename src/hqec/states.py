"""Exact sparse state vectors on up to 1024 qubits (pauli.MAX_QUBITS), in
plain Python.

A state holds a sorted tuple of basis keys (Python ints with qubit q at bit
q-1, so qubit 1 is the leftmost character of a bitstring like "110") and a
parallel tuple of complex amplitudes.  States are values: every operation
returns a new state.

This module decides every float question of the library, and ``codes``,
``protocol`` and ``cli`` read its answers; ``compat`` decides a diagonal
gate's action on integer counts and reads ``TOL`` and ``_OMEGA_POWERS``,
the one table of omega's powers, from here.  The amplitudes of
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
``inner`` is the one bracket sum <a|b>, in a's key order: pair by pair
where the two states hold one key tuple (as a storage round trip's output
and input do, and a T run's output and its target unless a term was
pruned), else over a dict of b's terms.  ``codes.CodeSpace.coords`` and
the T runners' fidelity are ``inner`` sums.  The general (H) branch of
``apply_single`` (which pairs key k with k ^ bit) looks keys up in a dict
of the terms too.  No module reads a syndrome or an eigenvalue back from a
state: ``codes`` checks its codewords on the operators alone, and
``protocol`` takes each storage syndrome from the error.  The one Pauli
kernel, ``apply_paulis``, applies a run of Paulis in one sweep and one sort.

A T gadget (diag(1, omega^t) on a data qubit, which is then teleported
through a fresh Bell pair measured at once in the basis rotated by U =
diag(1, omega^u)) is monomial, as Z, S and Sd are: by the key rule of
Broadbent and Jeffery (CRYPTO 2015, arXiv:1412.8766), outcome (r_a, r_b),
of weight 1/4 each (a sampled one is the top two bits of one generator
word), puts diag(1, omega^(t + u + 4 r_b)) on the qubit and
then flips its bit if r_a, so no joint register is built.  A
``MonomialLayer`` collects a run of these gates as a key flip and omega-
exponents, and ``apply_monomial`` applies the run, and a trailing Pauli
(a circuit's final key correction) if given, in one pass with one sort.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left

from .gf2 import format_row, parse_row
from .pauli import _PHASE_VALUE, MAX_QUBITS, PauliOperator

TOL = 1e-10  # two computed values agree
PRUNE_TOL = 1e-12  # a magnitude counts as zero
TERM_GUARD = 1 << 22

_R2 = 1.0 / math.sqrt(2.0)
_SQ2 = complex(_R2)
_SIGNS = (1 + 0j, -1 + 0j)  # (-1)^parity
# omega^j for omega = exp(i pi/4): the even powers are the exact units, the
# odd ones have parts sqrt(0.5), as _unit_factors(1.0) has them
_W = math.sqrt(0.5)
_OMEGA_POWERS = (1 + 0j, complex(_W, _W), 1j, complex(-_W, _W), -1 + 0j, complex(-_W, -_W), -1j, complex(_W, -_W))
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
    """sum |a|^2 over the amplitudes, correctly rounded; inf where the sum
    passes the float range (fsum raises on that rather than return inf)."""
    try:
        return math.fsum([a.real * a.real + a.imag * a.imag for a in amps])
    except OverflowError:
        return math.inf


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


def gate(label: str) -> SingleQubitGate:
    """Named gate from {X, Z, H, S, Sd, T, Td}; gates are immutable and shared."""
    try:
        return _GATES[label]
    except KeyError:
        raise ValueError(f"unknown gate {label!r}") from None


class SparseState:
    """Immutable map from packed basis keys to complex amplitudes.

    Any sequences of ints and finite numbers will do as keys and amplitudes
    (numpy arrays too); the state stores them as tuples of int and complex."""

    __slots__ = ("n", "keys", "amps")

    def __init__(self, n: int, keys, amps):
        if not 0 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 0..{MAX_QUBITS}, got {n}")
        keys = tuple([int(k) for k in keys])
        amps = tuple([complex(a) for a in amps])
        if len(keys) != len(amps):
            raise ValueError("keys and amplitudes differ in length")
        if not all(map(cmath.isfinite, amps)):  # _coalesce would prune a nan term as zero
            raise ValueError("amplitudes must be finite")
        if keys and (min(keys) < 0 or max(keys) >> n):
            raise ValueError("basis key has bits beyond the register size")
        self.n = n
        self.keys, self.amps = _coalesce(keys, amps)

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
        """The state over its norm.  A norm of exactly 1.0 is divided out
        too: a * (1+0j) can flip the sign of a zero part (complex(-0.0,
        -0.5) * (1+0j) is 0-0.5j), and dumps and pins read those signs."""
        nrm = self.norm()
        if nrm <= PRUNE_TOL:
            raise ValueError("cannot normalize a zero state")
        if not math.isfinite(nrm):
            raise ValueError("cannot normalize a state whose norm is not finite")
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
    if e:  # ldexp by 0 returns its argument, bit for bit
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


def _terms_state(n: int, terms) -> SparseState:
    """A state from (key, amplitude) pairs with sorted, distinct keys, unchecked."""
    return _state(n, tuple([k for k, _ in terms]), tuple([a for _, a in terms]))


def _resorted(n: int, keys, amps) -> SparseState:
    """A state from distinct keys in any order."""
    return _terms_state(n, sorted(zip(keys, amps)))


def inner(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the shared basis keys, summed in key order: pair by pair
    where a and b hold the same keys, else over a dict of b's terms."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    total = 0j
    if a.keys == b.keys:
        for x, y in zip(a.amps, b.amps):
            total += x.conjugate() * y
        return total
    lookup = dict(zip(b.keys, b.amps))
    for x, y in zip(a.amps, map(lookup.get, a.keys)):
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
    # general: keys k and k ^ bit map to each other, and the one with the bit
    # clear adds its term first where both are present
    if 2 * state.num_terms > TERM_GUARD:
        raise ValueError(f"gate {g.label} result exceeds the term-count guard")
    lookup, terms = dict(zip(keys, amps)), []
    for k, a in zip(keys, amps):
        b = lookup.get(k ^ bit)
        if not k & bit:
            terms += ((k, a * m00 if b is None else a * m00 + b * m01),
                      (k | bit, a * m10 if b is None else a * m10 + b * m11))
        elif b is None:
            terms += ((k ^ bit, a * m01), (k, a * m11))
    return _terms_state(state.n, sorted(t for t in terms if abs(t[1]) > PRUNE_TOL))


def apply_cnot(state: SparseState, control: int, target: int) -> SparseState:
    state._check_qubit(control)
    state._check_qubit(target)
    if control == target:
        raise ValueError("control and target must differ")
    c, t = control - 1, target - 1
    return _resorted(state.n, [k ^ (((k >> c) & 1) << t) for k in state.keys], state.amps)


def _check_widths(n: int, paulis):
    for p in paulis:
        if p.n != n:
            raise ValueError(f"dimension mismatch: operator on {p.n}, state on {n}")


def apply_paulis(state: SparseState, paulis) -> SparseState:
    """P_m ... P_1|psi> for paulis P_1..P_m, bit for bit apply_pauli in turn:
    each P = i^phase X(x) Z(z) multiplies a_k by its sign at the key as
    flipped so far, then by i^phase; one sort when the total flip is not 0."""
    _check_widths(state.n, paulis)
    amps, flip = state.amps, 0
    for p in paulis:
        z, ph = p.z, _PHASE_VALUE[p.phase]
        signs = _SIGNS[::-1] if (flip & z).bit_count() & 1 else _SIGNS  # (-1)^popcount((k ^ flip) & z)
        amps = [a * signs[(k & z).bit_count() & 1] * ph for k, a in zip(state.keys, amps)]
        flip ^= p.x
    if flip:
        return _resorted(state.n, [k ^ flip for k in state.keys], amps)
    return _state(state.n, state.keys, tuple(amps))


def apply_pauli(state: SparseState, p: PauliOperator) -> SparseState:
    return apply_paulis(state, (p,))


_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


class MonomialLayer:
    """A pending run of Z, S, Sd gates and T gadgets on n qubits, as one
    monomial map: |k> goes to |k ^ flip> times omega^(c0 + sum_q coeffs[q-1]
    * bit q of k), with the bits of k as the run found them, over sqrt(norm2)
    once a gadget has run (norm2: the squared norm of the run's input)."""

    __slots__ = ("n", "flip", "c0", "coeffs", "norm2")

    def __init__(self, n: int):
        self.n, self.flip, self.c0, self.coeffs, self.norm2 = n, 0, 0, [0] * n, None

    @property
    def pending(self) -> bool:
        return self.norm2 is not None or any(c & 7 for c in self.coeffs)

    def phase(self, qubit: int, c: int):
        """diag(1, omega^c) on `qubit`: where the run has flipped its bit,
        omega^(c * (1 - bit)) = omega^c * omega^(-c * bit)."""
        if self.flip >> (qubit - 1) & 1:
            self.c0 += c
            c = -c
        self.coeffs[qubit - 1] += c

    def gadget(self, state: SparseState, qubit: int, u: int, t: int, rng, forced=None):
        """One T gadget on `qubit` of the run's input `state`: diag(1,
        omega^t) (t = 1 for T, 7 for Td, 0 for none), then the teleportation
        of the qubit through a fresh Bell pair measured in the basis (U^dag
        Z^r_b X^r_a (x) I)|Phi>, U = diag(1, omega^u) (u = 0, 2, 6 for I, S,
        Sd, read mod 8).  Outcome (r_a, r_b) adds t + u + 4 r_b to the qubit's exponent
        and then flips its bit if r_a.  Returns the outcome: `forced`, or
        else _OUTCOMES[rng.next_u64() >> 62], the top two bits of one
        generator word.  Every outcome weighs norm2/4 at the run's first
        gadget and 1/4 after it, since gadgets keep the norm, so no weights
        are built: for r = m * 2^-53 (m the word's top 53 bits, as
        rng.random() reads them), the first of the exact cumulative sums
        1/4, 1/2, 3/4, 1 above r has index m >> 51 = word >> 62, bit for
        bit.  Cumulative sums of the first gadget's weights norm2/4 round,
        and may move a boundary by a few ulps: a draw over them would
        differ in about one word in 2^51.  The checks, in order: the qubit
        range, then (at the first gadget only) a zero or non-finite weight,
        a malformed forced outcome, then (at the first only) a
        zero-probability outcome."""
        if not 1 <= qubit <= state.n:
            raise ValueError(f"qubit {qubit} out of range 1..{state.n}")
        if first := self.norm2 is None:
            norm2 = _weight(state.amps)
            p = norm2 / 4
            if 4 * p < PRUNE_TOL:
                raise ValueError("measurement on a zero-weight state")
            if not math.isfinite(norm2):
                raise ValueError("measurement on a state whose weight is not finite")
        if forced is None:
            idx = rng.next_u64() >> 62
        else:
            try:
                idx = _OUTCOMES.index(tuple(forced))
            except (TypeError, ValueError):
                raise ValueError(f"forced outcome must be a pair of bits, got {forced!r}") from None
        r_a, r_b = outcome = _OUTCOMES[idx]
        if first:
            if p < PRUNE_TOL:
                raise ValueError(f"outcome {outcome} has zero probability")
            self.norm2 = norm2
        bit, c = qubit - 1, t + u + 4 * r_b  # self.phase(qubit, c), then the flip
        if self.flip >> bit & 1:
            self.c0, c = self.c0 + c, -c
        self.coeffs[bit] += c
        self.flip ^= r_a << bit
        return outcome


def _unit_factors(norm2: float | None) -> tuple:
    """omega^j for j = 0..7, divided by sqrt(norm2) when norm2 is given."""
    if norm2 is None:
        return _OMEGA_POWERS
    s, r = math.sqrt(1.0 / norm2), math.sqrt(0.5 / norm2)
    return (complex(s, 0.0), complex(r, r), complex(0.0, s), complex(-r, r),
            complex(-s, 0.0), complex(-r, -r), complex(0.0, -s), complex(r, -r))


def apply_monomial(state: SparseState, layer: MonomialLayer, then: PauliOperator | None = None) -> SparseState:
    """The layer's monomial map in one pass: each term is multiplied by one
    of the eight factors of _unit_factors, its exponent read by bit_count
    from three qubit masks (the 1s, 2s and 4s of the coefficients).  A layer
    without a gadget has even exponents and no scale, so its factors are
    exactly 1, i, -1 and -i: for amplitudes without zero real or imaginary
    parts it equals applying its Z, S and Sd gates one by one, bit for bit.
    A layer with a gadget prunes terms of magnitude <= PRUNE_TOL.  A Pauli
    `then` on the same qubits is applied to the survivors before the one
    sort, as a * unit * sign * phase: bit for bit apply_pauli after it."""
    if layer.n != state.n:
        raise ValueError(f"layer on {layer.n} qubits, state on {state.n}")
    ones = twos = fours = 0
    for q, c in enumerate(layer.coeffs):
        bit = 1 << q
        ones, twos, fours = ones | (bit if c & 1 else 0), twos | (bit if c & 2 else 0), fours | (bit if c & 4 else 0)
    c0, flip, units, keep_all = layer.c0, layer.flip, _unit_factors(layer.norm2), layer.norm2 is None
    if then is None:
        terms = [(k ^ flip, b) for k, a in zip(state.keys, state.amps)
                 for b in [a * units[(c0 + (k & ones).bit_count() + 2 * (k & twos).bit_count()
                                      + 4 * (k & fours).bit_count()) & 7]] if keep_all or abs(b) > PRUNE_TOL]
    else:
        z, ph = then.z, then.phase_value()
        signs = _SIGNS[::-1] if (flip & z).bit_count() & 1 else _SIGNS  # (-1)^popcount((k ^ flip) & z)
        flip ^= then.x
        terms = [(k ^ flip, b * signs[(k & z).bit_count() & 1] * ph) for k, a in zip(state.keys, state.amps)
                 for b in [a * units[(c0 + (k & ones).bit_count() + 2 * (k & twos).bit_count()
                                      + 4 * (k & fours).bit_count()) & 7]] if keep_all or abs(b) > PRUNE_TOL]
    if flip:
        terms.sort()  # the keys are distinct, so no amplitude is compared
    return _terms_state(state.n, terms)
