"""GF(2) linear algebra on int bitsets, plus classical-code checks.

A row is a Python int: bit (q-1) holds the entry for position q, the same
layout as sparse-state keys and Pauli words, so position 1 is the leftmost
character of a row string like "110".
"""

from __future__ import annotations

from dataclasses import dataclass
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
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        return cls.from_strings(lines)


def rref(rows, n: int) -> list[int]:
    """Reduced row-echelon basis (nonzero rows, ascending pivot)."""
    basis: list[int] = []  # kept reduced; pivot of basis[i] increases with i
    for row in rows:
        for b in basis:
            p = b & -b
            if row & p:
                row ^= b
        if row:
            p = row & -row
            basis = [b ^ row if b & p else b for b in basis]
            basis.append(row)
    basis.sort(key=lambda r: r & -r)
    return basis


class ClassicalCode(NamedTuple):
    length: int
    basis: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def code_from_rows(matrix: BitMatrix) -> ClassicalCode:
    if matrix.cols == 0:
        raise ValueError("code length must be positive")
    return ClassicalCode(matrix.cols, tuple(rref(matrix.rows, matrix.cols)))


def code_from_strings(lines) -> ClassicalCode:
    return code_from_rows(BitMatrix.from_strings(lines))


def contains(code: ClassicalCode, word: int | str) -> bool:
    if isinstance(word, str):
        if len(word) != code.length:
            raise ValueError(f"word length {len(word)} != code length {code.length}")
        word = parse_row(word)
    if word >> code.length:
        raise ValueError("word has bits beyond the code length")
    for b in code.basis:
        if word & (b & -b):
            word ^= b
    return word == 0


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
    return ClassicalCode(n, tuple(rref(basis, n)))


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
    """Pairwise and triple row-overlap parity check (word AND + popcount)."""
    rows = matrix.rows
    m = len(rows)
    if m < 1:
        raise ValueError("need at least one row")
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
