"""n-qubit Pauli operators as Python-int symplectic bitsets.

An operator is ``i**phase * X(x) * Z(z)``.  The x and z flag vectors are
Python ints with qubit q at bit q-1, the layout that GF(2) rows and sparse
state keys use too, and the phase is an exponent of i kept modulo 4.  Y is
i*X*Z, so parsing "Y" yields x=1, z=1, phase=1.

Values are immutable and every operation is a pure function.  The
constructor checks the qubit count and refuses x or z bits beyond it;
``multiply`` and ``adjoint`` build their results unchecked, as valid
operands give valid results (x and z stay within n bits, and ``& 3`` is
the phase mod 4), and so does ``parse_pauli_block``, which reads lines of n
letters in one pass.  Qubit indices are 1-based; qubit 1 is the leftmost
character of a Pauli string.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

MAX_QUBITS = 1024

_PREFIX_PHASE = {"": 0, "+": 0, "i": 1, "-": 2, "-i": 3}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PHASE_VALUE = (1 + 0j, 1j, -1 + 0j, -1j)
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
_NOT_LETTERS = str.maketrans("", "", "IXYZ")  # deletes every valid letter
# letters of four consecutive qubits, indexed by (x nibble) | (z nibble) << 4
_NIBBLE_LETTERS = tuple(
    "".join("IXZY"[((xn >> q) & 1) | ((zn >> q) & 1) << 1] for q in range(4))
    for zn in range(16)
    for xn in range(16)
)


class PauliParseError(ValueError):
    """Malformed Pauli string."""


def _qubit_count(n: int) -> int:
    """n, checked as the number of qubits of a PauliOperator."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    return n


class _PauliFields(NamedTuple):
    n: int
    x: int
    z: int
    phase: int


class PauliOperator(_PauliFields):
    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int, phase: int):
        x, z = index(x), index(z)
        if not 0 <= x | z < 1 << _qubit_count(n):
            raise ValueError(f"Pauli bits x={x:#x}, z={z:#x} out of range for qubits 1..{n}")
        return tuple.__new__(cls, (n, x, z, index(phase) % 4))

    _make = classmethod(lambda cls, fields: cls(*fields))  # NamedTuple._replace calls it: checked too

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliOperator":
        """X, Y or Z acting on one qubit (1-based) of an n-qubit register."""
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} out of range 1..{n}")
        if kind not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli kind {kind!r}")
        bit = 1 << (qubit - 1)
        x = bit if kind in ("X", "Y") else 0
        z = bit if kind in ("Z", "Y") else 0
        return cls(n, x, z, 1 if kind == "Y" else 0)

    # -- algebra ------------------------------------------------------

    def multiply(self, other: "PauliOperator") -> "PauliOperator":
        """Group product self*other with the phase tracked mod 4."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        # moving Z(z1) past X(x2) costs (-1)^(z1.x2)
        swap = (self.z & other.x).bit_count() & 1
        phase = (self.phase + other.phase + 2 * swap) & 3
        return tuple.__new__(PauliOperator, (self.n, self.x ^ other.x, self.z ^ other.z, phase))

    def adjoint(self) -> "PauliOperator":
        swap = (self.x & self.z).bit_count() & 1
        return tuple.__new__(PauliOperator, (self.n, self.x, self.z, (2 * swap - self.phase) & 3))

    def commutes(self, other: "PauliOperator") -> bool:
        """True iff the symplectic inner product x1.z2 + z1.x2 is even."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    @property
    def is_hermitian(self) -> bool:
        """True iff the operator squares to +I rather than -I."""
        return not (self.phase + (self.x & self.z).bit_count()) & 1

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return (self.x | self.z).bit_count()

    # -- text ---------------------------------------------------------

    def to_string(self) -> str:
        x, z = self.x, self.z
        letters = "".join([_NIBBLE_LETTERS[((x >> s) & 15) | ((z >> s) & 15) << 4]
                           for s in range(0, self.n, 4)])
        n_y = (x & z).bit_count()
        return _PHASE_PREFIX[(self.phase - n_y) % 4] + letters[: self.n]

    def phase_value(self) -> complex:
        return _PHASE_VALUE[self.phase]

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"PauliOperator({self.to_string()!r})"


def parse_pauli(text: str) -> PauliOperator:
    """Parse an optional sign prefix ('', '+', '-', 'i', '-i') plus I/X/Y/Z letters."""
    prefix = text[:2] if text.startswith("-i") else text[:1]
    phase = _PREFIX_PHASE.get(prefix)
    if phase is None:  # the text starts with a letter
        prefix, phase = "", 0
    body = text[len(prefix):]
    if not body:
        raise PauliParseError("empty Pauli string")
    if body.translate(_NOT_LETTERS):
        q, ch = next(t for t in enumerate(body) if t[1] not in "IXYZ")
        raise PauliParseError(f"invalid character {ch!r} at position {q + 1}")
    bits = body[::-1]  # qubit 1, the leftmost letter, is the lowest bit
    x, z = int(bits.translate(_X_BITS), 2), int(bits.translate(_Z_BITS), 2)
    # x and z fit in the body's letters, so only the count needs checking
    return tuple.__new__(PauliOperator, (_qubit_count(len(body)), x, z, (phase + body.count("Y")) % 4))


def parse_pauli_block(lines, n: int) -> tuple[PauliOperator, ...] | None:
    """parse_pauli of each line, or None unless each is a sign prefix and n letters: operator
    i is bits n*i up of the joined bodies' X and Z bit strings, 64 lines a pass (short shifts)."""
    bodies = [text.lstrip("+-i") for text in lines]
    phases = list(map(_PREFIX_PHASE.get, map(str.removesuffix, lines, bodies)))
    block = "".join(bodies)
    if None in phases or set(map(len, bodies)) != {_qubit_count(n)} or block.translate(_NOT_LETTERS):
        return None
    ops, mask = [], (1 << n) - 1
    for c in range(0, len(bodies), 64):
        bits = block[c * n: (c + 64) * n][::-1]
        x, z = int(bits.translate(_X_BITS), 2), int(bits.translate(_Z_BITS), 2)
        ops += [tuple.__new__(PauliOperator, (n, x >> s & mask, z >> s & mask, p + b.count("Y") & 3))
                for s, p, b in zip(range(0, len(bits), n), phases[c: c + 64], bodies[c: c + 64])]
    return tuple(ops)
