"""GF(2) linear algebra on int bitsets, plus classical-code checks: the
library's one row reduction (reduce, rref) and F2 solver (solve).

A row is a Python int: bit (q-1) holds the entry for position q, the same
layout as sparse-state keys and Pauli words, so position 1 is the leftmost
character of a row string like "110".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import index
from typing import NamedTuple

ENUM_DIM_GUARD = 20
_NOT_BITS = str.maketrans("", "", "01")  # deletes every valid matrix character


class GuardExceeded(ValueError):
    """A dimension/size guard was exceeded."""


def parse_row(text: str) -> int:
    if text.translate(_NOT_BITS):
        pos, ch = next(t for t in enumerate(text) if t[1] not in "01")
        raise ValueError(f"invalid matrix character {ch!r} at position {pos + 1}")
    return int(text[::-1] or "0", 2)  # position 1, the leftmost character, is bit 0


def content_lines(text: str) -> list[str]:
    """The stripped lines of text that are not blank once a '#' comment
    is cut off."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    return [line for line in lines if line]


def format_row(word: int, n: int) -> str:
    return "".join("1" if (word >> q) & 1 else "0" for q in range(n))


class BitMatrix(NamedTuple):
    rows: tuple[int, ...]
    cols: int

    @classmethod
    def from_strings(cls, lines) -> "BitMatrix":
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ValueError("matrix has no rows")
        cols = len(lines[0])
        for ln in lines:
            if len(ln) != cols:
                raise ValueError("matrix rows have unequal lengths")
        return cls(tuple(parse_row(ln) for ln in lines), cols)

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse the ASCII matrix file format: 0/1 rows, '#' comments."""
        return cls.from_strings(content_lines(text))


def reduce(row: int, basis) -> int:
    """row with each basis row whose pivot (lowest set bit) it holds XORed
    in, in basis order: its remainder modulo span(basis) when each basis
    row is free of the pivots of the rows before it."""
    for b in basis:
        if row & b & -b:
            row ^= b
    return row


def rref(rows) -> list[int]:
    """Reduced row-echelon basis (nonzero rows, ascending pivot)."""
    basis: list[int] = []  # kept reduced; pivot of basis[i] increases with i
    for row in rows:
        row = reduce(row, basis)
        if row:
            p = row & -row
            basis = [b ^ row if b & p else b for b in basis]
            basis.append(row)
    basis.sort(key=lambda r: r & -r)
    return basis


def solve(equations: list[tuple[int, int]]) -> int:
    """The smallest solution x of the F2 system {(coeffs, rhs)}, 0 if it is
    homogeneous: pivots at the lowest bit, non-pivot bits 0; raises if inconsistent."""
    if not any(r for _, r in equations):
        return 0
    pivots = []  # (pivot_bit, coeffs, rhs)
    for c, r in equations:
        for pb, pc, pr in pivots:
            if c & pb:
                c ^= pc
                r ^= pr
        if c == 0:
            if r:
                raise ValueError("inconsistent F2 system")
            continue
        pivots.append((c & -c, c, r))
    x = 0
    for pb, pc, pr in sorted(pivots, reverse=True):
        if (pc & x).bit_count() & 1 ^ pr:
            x |= pb
    return x


class _ClassicalFields(NamedTuple):
    length: int
    basis: tuple[int, ...]


class ClassicalCode(_ClassicalFields):
    """The span of basis.  The constructor stores the rref of the rows (operator.index of each),
    then a 0 per dependent row, so dimension counts the rows and contains and dual are exact."""

    __slots__ = ()

    def __new__(cls, length: int, basis):
        rows = tuple(map(index, basis))
        reduced = rref(rows)
        return tuple.__new__(cls, (length, (*reduced, *[0] * (len(rows) - len(reduced)))))

    _make = classmethod(lambda cls, fields: cls(*fields))  # NamedTuple._replace calls it: reduced too

    @property
    def dimension(self) -> int:
        return len(self.basis)


def code_from_rows(matrix: BitMatrix) -> ClassicalCode:
    if matrix.cols == 0:
        raise ValueError("code length must be positive")
    return tuple.__new__(ClassicalCode, (matrix.cols, tuple(rref(matrix.rows))))  # reduced: unchecked


def code_from_strings(lines) -> ClassicalCode:
    return code_from_rows(BitMatrix.from_strings(lines))


def contains(code: ClassicalCode, word: int | str) -> bool:
    if isinstance(word, str):
        if len(word) != code.length:
            raise ValueError(f"word length {len(word)} != code length {code.length}")
        word = parse_row(word)
    if word >> code.length:
        raise ValueError("word has bits beyond the code length")
    return reduce(word, code.basis) == 0


def all_even_weight(code: ClassicalCode) -> bool:
    """True iff every codeword has even Hamming weight (checked on generators)."""
    return all(b.bit_count() % 2 == 0 for b in code.basis)


def dual(code: ClassicalCode) -> ClassicalCode:
    """Dual code: all words orthogonal to every codeword."""
    pivots = {(b & -b).bit_length() - 1: b for b in code.basis if b}
    rows = [sum(1 << p for p, b in pivots.items() if b >> f & 1) | 1 << f
            for f in range(code.length) if f not in pivots]
    return tuple.__new__(ClassicalCode, (code.length, tuple(rref(rows))))


def is_subcode(inner: ClassicalCode, outer: ClassicalCode) -> bool:
    return inner.length == outer.length and all(contains(outer, b) for b in inner.basis)


@dataclass(frozen=True)
class TriorthogonalityReport:
    pairwise_ok: bool
    triple_ok: bool
    violating_index_sets: tuple[tuple[int, ...], ...]
    odd_rows: tuple[int, ...]
    even_rows: tuple[int, ...]
    pair_overlaps: dict
    triple_overlaps: dict

    @property
    def ok(self) -> bool:
        return self.pairwise_ok and self.triple_ok

    def as_dict(self) -> dict:
        return {
            "pairwise_ok": self.pairwise_ok,
            "triple_ok": self.triple_ok,
            "violating_index_sets": [list(s) for s in self.violating_index_sets],
            "odd_rows": list(self.odd_rows),
            "even_rows": list(self.even_rows),
            "pair_overlaps": {f"{i},{j}": v for (i, j), v in self.pair_overlaps.items()},
            "triple_overlaps": {f"{i},{j},{k}": v for (i, j, k), v in self.triple_overlaps.items()},
        }


def triorthogonality_check(matrix: BitMatrix) -> TriorthogonalityReport:
    """Pairwise and triple row-overlap parity check (word AND + popcount).
    The report holds every triple's overlap, so more than 2^ENUM_DIM_GUARD
    triples (from 186 rows) raise GuardExceeded before any is enumerated."""
    rows = matrix.rows
    m = len(rows)
    if m < 1:
        raise ValueError("need at least one row")
    if (triples := comb(m, 3)) > 1 << ENUM_DIM_GUARD:
        raise GuardExceeded(f"{m} rows: {triples} row triples exceed the enumeration guard 2^{ENUM_DIM_GUARD}")
    pair_overlaps = {(i, j): (rows[i] & rows[j]).bit_count() for i, j in combinations(range(m), 2)}
    triple_overlaps = {(i, j, k): (rows[i] & rows[j] & rows[k]).bit_count()
                       for i, j, k in combinations(range(m), 3)}
    odd_pairs = [s for s, ov in pair_overlaps.items() if ov % 2]
    odd_triples = [s for s, ov in triple_overlaps.items() if ov % 2]
    odd = tuple(i for i, r in enumerate(rows) if r.bit_count() % 2)
    even = tuple(i for i, r in enumerate(rows) if r.bit_count() % 2 == 0)
    return TriorthogonalityReport(
        not odd_pairs, not odd_triples, tuple(odd_pairs + odd_triples), odd, even, pair_overlaps, triple_overlaps
    )
