"""GF(2) linear algebra on int bitsets, plus classical-code checks: the
library's one row reduction (reduce, rref) and F2 solver (solve).

A row is a Python int: bit (q-1) holds the entry for position q, the same
layout as sparse-state keys and Pauli words, so position 1 is the leftmost
character of a row string like "110".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

ENUM_DIM_GUARD = 20


class GuardExceeded(ValueError):
    """A dimension/size guard was exceeded."""


def parse_row(text: str) -> int:
    word = 0
    for pos, ch in enumerate(text):
        if ch == "1":
            word |= 1 << pos
        elif ch != "0":
            raise ValueError(f"invalid matrix character {ch!r} at position {pos + 1}")
    return word


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
    """The smallest solution x of the F2 system {(coeffs, rhs)}: pivots at
    the lowest bit, every non-pivot bit 0; raises if inconsistent."""
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
    for pb, pc, pr in sorted(pivots, key=lambda t: -t[0]):
        acc = (pc & x).bit_count() & 1
        if acc ^ pr:
            x |= pb
    return x


class ClassicalCode(NamedTuple):
    length: int
    basis: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def code_from_rows(matrix: BitMatrix) -> ClassicalCode:
    if matrix.cols == 0:
        raise ValueError("code length must be positive")
    return ClassicalCode(matrix.cols, tuple(rref(matrix.rows)))


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
    n = code.length
    pivots = [(b & -b).bit_length() - 1 for b in code.basis]
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        w = 1 << f
        for b, p in zip(code.basis, pivots):
            if (b >> f) & 1:
                w |= 1 << p
        basis.append(w)
    return ClassicalCode(n, tuple(rref(basis)))


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
    pair_overlaps = {}
    triple_overlaps = {}
    violations = []
    for i in range(m):
        for j in range(i + 1, m):
            ov = (rows[i] & rows[j]).bit_count()
            pair_overlaps[(i, j)] = ov
            if ov % 2:
                violations.append((i, j))
    pairwise_ok = not violations
    n_pair_viol = len(violations)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                ov = (rows[i] & rows[j] & rows[k]).bit_count()
                triple_overlaps[(i, j, k)] = ov
                if ov % 2:
                    violations.append((i, j, k))
    triple_ok = len(violations) == n_pair_viol
    odd = tuple(i for i, r in enumerate(rows) if r.bit_count() % 2)
    even = tuple(i for i, r in enumerate(rows) if r.bit_count() % 2 == 0)
    return TriorthogonalityReport(
        pairwise_ok, triple_ok, tuple(violations), odd, even, pair_overlaps, triple_overlaps
    )
