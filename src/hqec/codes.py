"""Stabilizer codes: builtin instances, validation, codewords, decoding.

A code is generators + logical X/Z representatives; codewords are built
as sparse states by stabilizer-tableau elimination, in time polynomial in
n plus one term per basis key.  Builtin names cover the repetition codes,
the nine-qubit code, the Steane code, the [[15,1,3]] punctured Reed-Muller
code, and a deliberately mask-incompatible three-qubit code.

Per-code data is memoized: ``builtin_code`` by name, and the codewords and
the single-error syndrome table by the (frozen, hashable) code, in caches
of at most ``CODE_CACHE_SIZE`` codes.  Everything cached is immutable, and
a call that raises caches nothing.

Parsing, validation, CSS construction and decoding are GF(2) algebra on
Python ints; only ``logical_codewords`` imports the ``states`` layer, when
called.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import gf2
from .gf2 import ClassicalCode
from .pauli import MAX_QUBITS, PauliOperator, parse_pauli, transversal_pauli

if TYPE_CHECKING:
    from .states import SparseState

CODE_CACHE_SIZE = 32


class CodeFileError(ValueError):
    """Malformed code-definition file."""


class SubcodeError(ValueError):
    """C2 is not contained in C1."""


class StabilizerCode(NamedTuple):
    name: str
    n: int
    k: int
    generators: tuple[PauliOperator, ...]
    logical_x: tuple[PauliOperator, ...]
    logical_z: tuple[PauliOperator, ...]
    css_origin: tuple[ClassicalCode, ClassicalCode] | None = None


class ValidationReport(NamedTuple):
    code_name: str
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"code": self.code_name, "ok": self.ok, "violations": list(self.violations)}


@dataclass(frozen=True)
class CodeSpace:
    code: StabilizerCode
    basis: tuple[SparseState, ...]

    @property
    def zero(self) -> SparseState:
        return self.basis[0]

    @property
    def one(self) -> SparseState:
        return self.basis[1]


def _sympl_vec(p: PauliOperator, n: int) -> int:
    return p.x | (p.z << n)


def _reduce_tracked(vec: int, pauli: PauliOperator, basis: list):
    """Reduce vec against rows (vector, group element with that vector), each
    reduced against the rows before it, multiplying the tracked elements."""
    for bvec, bp in basis:
        piv = bvec & -bvec
        if vec & piv:
            vec ^= bvec
            pauli = pauli.multiply(bp)
    return vec, pauli


def validate_code(code: StabilizerCode) -> ValidationReport:
    """Report every violated code invariant; an empty report means valid."""
    v: list[str] = []
    gens = code.generators
    for i, g in enumerate(gens):
        if g.n != code.n:
            v.append(f"generator {i + 1} acts on {g.n} qubits, expected {code.n}")
        if (g.phase + (g.x & g.z).bit_count()) & 1:  # its square is -I
            v.append(f"generator {i + 1} ({g}) is not Hermitian")
    if len(gens) != code.n - code.k:
        v.append(f"expected {code.n - code.k} generators, got {len(gens)}")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i].n == gens[j].n and not gens[i].commutes(gens[j]):
                v.append(f"generators {i + 1} ({gens[i]}) and {j + 1} ({gens[j]}) anticommute")

    basis: list = []
    for i, g in enumerate(gens):
        if g.n != code.n:
            continue
        vec, prod = _reduce_tracked(_sympl_vec(g, code.n), g, basis)
        if vec == 0:
            # prod is g times a product of earlier generators, equal to a phase
            if prod.phase == 0:
                v.append(f"generator {i + 1} ({g}) is dependent on earlier generators")
            else:
                v.append(f"-I is in the group generated (via generator {i + 1})")
        else:
            basis.append((vec, prod))

    if len(code.logical_x) != code.k or len(code.logical_z) != code.k:
        v.append(f"expected {code.k} logical X and Z operators")
    for label, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for j, p in enumerate(ops):
            if p.n != code.n:
                v.append(f"logical {label}[{j + 1}] acts on {p.n} qubits, expected {code.n}")
                continue
            for i, g in enumerate(gens):
                if g.n == code.n and not p.commutes(g):
                    v.append(f"logical {label}[{j + 1}] anticommutes with generator {i + 1}")
            vec, _ = _reduce_tracked(_sympl_vec(p, code.n), PauliOperator.identity(code.n), basis)
            if vec == 0:
                v.append(f"logical {label}[{j + 1}] lies in the stabilizer group")
    for j, xj in enumerate(code.logical_x):
        for l, zl in enumerate(code.logical_z):
            if xj.n != code.n or zl.n != code.n:
                continue
            if (j == l) == xj.commutes(zl):
                want = "anticommute" if j == l else "commute"
                v.append(f"logical X[{j + 1}] and Z[{l + 1}] must {want}")
    for label, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for j in range(len(ops)):
            for l in range(j + 1, len(ops)):
                if ops[j].n == code.n and ops[l].n == code.n and not ops[j].commutes(ops[l]):
                    v.append(f"logical {label}[{j + 1}] and {label}[{l + 1}] anticommute")
    return ValidationReport(code.name, tuple(v))


def _solve_f2(equations: list[tuple[int, int]]) -> int:
    """One solution x of the F2 system {(coeffs, rhs)}; raises if inconsistent."""
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


def css_from_classical(c1: ClassicalCode, c2: ClassicalCode, name: str | None = None) -> StabilizerCode:
    """CSS code from nested classical codes: X checks from C2, Z checks from C1-dual."""
    if c1.length != c2.length:
        raise ValueError("classical codes differ in length")
    if not gf2.is_subcode(c2, c1):
        raise SubcodeError("C2 is not a subcode of C1")
    if c1.dimension <= c2.dimension:
        raise ValueError("need dim C1 > dim C2")
    n = c1.length
    k = c1.dimension - c2.dimension
    gens = [PauliOperator(n, w, 0, 0) for w in c2.basis]
    gens += [PauliOperator(n, 0, w, 0) for w in gf2.dual(c1).basis]

    # logical X from coset representatives of C1 mod C2, preferring the
    # all-ones word when it qualifies (it is then also transversal)
    e = (1 << n) - 1
    f_rows: list[int] = []
    if k == 1 and gf2.contains(c1, e) and not gf2.contains(c2, e):
        f_rows = [e]
    else:
        mod_basis = list(c2.basis)
        for row in c1.basis:
            r = row
            for b in gf2.rref(mod_basis, n):
                if r & (b & -b):
                    r ^= b
            if r:
                f_rows.append(r)
                mod_basis.append(r)
        f_rows = f_rows[:k]
    # logical Z duals: h_j in C2-dual with h_j . f_l = delta_jl
    c2_dual = gf2.dual(c2).basis
    h_rows = []
    for j in range(k):
        eqs = []
        for l in range(k):
            coeffs = 0
            for d, bd in enumerate(c2_dual):
                if (bd & f_rows[l]).bit_count() & 1:
                    coeffs |= 1 << d
            eqs.append((coeffs, 1 if j == l else 0))
        sol = _solve_f2(eqs)
        h = 0
        for d, bd in enumerate(c2_dual):
            if (sol >> d) & 1:
                h ^= bd
        h_rows.append(h)
    if k == 1 and gf2.contains(gf2.dual(c2), e) and (e & f_rows[0]).bit_count() & 1:
        h_rows = [e]

    return StabilizerCode(
        name or f"css-{n}-{k}",
        n,
        k,
        tuple(gens),
        tuple(PauliOperator(n, f, 0, 0) for f in f_rows),
        tuple(PauliOperator(n, 0, h, 0) for h in h_rows),
        css_origin=(c1, c2),
    )


_SHOR_GENERATORS = (
    "ZZIIIIIII",
    "IZZIIIIII",
    "IIIZZIIII",
    "IIIIZZIII",
    "IIIIIIZZI",
    "IIIIIIIZZ",
    "XXXXXXIII",
    "IIIXXXXXX",
)

_STEANE_C1_ROWS = ("1000011", "0100101", "0010110", "0001111")
_STEANE_C2_ROWS = ("0001111", "0110011", "1010101")

_RM15_ROWS = (
    "111111111111111",
    "000000011111111",
    "000111100001111",
    "011001100110011",
    "101010101010101",
)

BUILTIN_NAMES = ("bit_flip", "phase_flip", "shor", "steane", "rm15", "synthetic_incompatible")


@lru_cache(maxsize=None)
def builtin_code(name: str) -> StabilizerCode:
    if name == "bit_flip":
        return StabilizerCode(
            name, 3, 1,
            (parse_pauli("ZZI"), parse_pauli("IZZ")),
            (parse_pauli("XXX"),),
            (parse_pauli("ZZZ"),),
        )
    if name == "phase_flip":
        return StabilizerCode(
            name, 3, 1,
            (parse_pauli("XXI"), parse_pauli("IXX")),
            (parse_pauli("ZZZ"),),
            (parse_pauli("XXX"),),
        )
    if name == "shor":
        # phase-repetition basis: transversal Z acts as logical X and vice versa
        return StabilizerCode(
            name, 9, 1,
            tuple(parse_pauli(s) for s in _SHOR_GENERATORS),
            (transversal_pauli("Z", 9),),
            (transversal_pauli("X", 9),),
        )
    if name == "steane":
        c1 = gf2.code_from_strings(_STEANE_C1_ROWS)
        c2 = gf2.code_from_strings(_STEANE_C2_ROWS)
        return css_from_classical(c1, c2, name="steane")
    if name == "rm15":
        c1 = gf2.code_from_strings(_RM15_ROWS)
        c2 = gf2.code_from_strings(_RM15_ROWS[1:])
        return css_from_classical(c1, c2, name="rm15")
    if name == "synthetic_incompatible":
        # ZZZ has odd overlap with transversal X, so mask compatibility fails
        return StabilizerCode(
            name, 3, 1,
            (parse_pauli("ZZZ"), parse_pauli("XXI")),
            (parse_pauli("IXX"),),
            (parse_pauli("ZZI"),),
        )
    raise ValueError(f"unknown builtin code {name!r}")


@lru_cache(maxsize=CODE_CACHE_SIZE)
def logical_codewords(code: StabilizerCode) -> CodeSpace:
    """Orthonormal {|0>, |1>} logical basis as sparse states (k=1 only).

    Tableau elimination (Aaronson and Gottesman, PRA 70, 052328) splits the
    generators and logical Z into r X-pivots and Z-only elements i^phi Z(z)
    that fix the seed by z.s0 = phi/2; |0> sums g|s0> over the 2^r pivot
    products g, exactly.  _solve_f2 puts pivots at the lowest bit and free
    bits at 0, so s0 is the smallest surviving key, where a seed scan stops.
    Each codeword is checked by one pauli_eigenvalues readout.
    """
    from .states import _SIGNS, MAX_STATE_QUBITS, TOL, _state, apply_pauli, inner, pauli_eigenvalues

    if code.k != 1:
        raise ValueError(f"codeword construction supports k=1, got k={code.k}")
    if code.n > MAX_STATE_QUBITS:
        raise ValueError(f"qubit count must be in 0..{MAX_STATE_QUBITS}, got {code.n}")
    pivots: list = []  # (x-part, group element) rows for _reduce_tracked
    constraints = []
    for g in code.generators + code.logical_z[:1]:
        x, p = _reduce_tracked(g.x, g, pivots)
        if x:
            pivots.append((x, p))
        elif p.phase & 1:
            raise ValueError(f"{code.name}: the group holds the non-Hermitian element {p}")
        else:
            constraints.append((p.z, p.phase >> 1))
    if len(pivots) > gf2.ENUM_DIM_GUARD:
        raise gf2.GuardExceeded(f"{code.name}: codeword of 2^{len(pivots)} terms exceeds "
                                f"the enumeration guard 2^{gf2.ENUM_DIM_GUARD}")
    try:
        s0 = _solve_f2(constraints)
    except ValueError:
        raise ValueError(f"no codeword seed found for {code.name}") from None
    # x-part, z-part and amplitude of every product of pivots acting on |s0>
    xs, zs, amps = [0], [0], [1 + 0j]
    for x, p in pivots:
        ph = p.phase_value()
        amps += [a * _SIGNS[(z & x).bit_count() & 1] * ph for z, a in zip(zs, amps)]
        xs += [v ^ x for v in xs]
        zs += [v ^ p.z for v in zs]
    scale = complex(0.5 ** len(pivots))
    terms = sorted((x ^ s0, a * _SIGNS[(z & s0).bit_count() & 1] * scale)
                   for x, z, a in zip(xs, zs, amps))
    keys, amps = zip(*terms)
    zero = _state(code.n, keys, amps).normalized()
    one = apply_pauli(zero, code.logical_x[0])

    ops = code.generators + code.logical_z[:1]
    (vals0, eig0), (vals1, eig1) = pauli_eigenvalues(zero, ops), pauli_eigenvalues(one, ops)
    for vals, eig in ((vals0, eig0), (vals1, eig1)):
        for g, val, ok in zip(code.generators, vals, eig):
            if not ok or abs(val - 1) > TOL:
                raise ValueError(f"{code.name}: codeword is not fixed by {g}")
    if not eig0[-1] or abs(vals0[-1] - 1) > TOL:
        raise ValueError(f"{code.name}: logical Z does not fix |0>")
    if not eig1[-1] or abs(vals1[-1] + 1) > TOL:
        raise ValueError(f"{code.name}: logical Z does not negate |1>")
    if abs(inner(zero, one)) > TOL:
        raise ValueError(f"{code.name}: logical basis states are not orthogonal")
    return CodeSpace(code, (zero, one))


def syndrome(code: StabilizerCode, error: PauliOperator) -> tuple[int, ...]:
    """Bit i is 1 iff the error anticommutes with generator i."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return tuple(0 if error.commutes(g) else 1 for g in code.generators)


def decode_single_error(code: StabilizerCode, s) -> PauliOperator | None:
    """Minimum-weight error matching the syndrome among weight <= 1 Paulis.

    Ties break by (qubit index, X < Y < Z); returns None for syndromes no
    single error produces.
    """
    return _single_error_table(code).get(tuple(int(b) for b in s))


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _single_error_table(code: StabilizerCode) -> dict[tuple[int, ...], PauliOperator]:
    """Syndrome -> first weight-<=1 error in (qubit, X < Y < Z) order.
    The table is shared between calls; callers only read it."""
    table: dict[tuple[int, ...], PauliOperator] = {}
    candidates = [PauliOperator.identity(code.n)]
    for q in range(1, code.n + 1):
        for kind in ("X", "Y", "Z"):
            candidates.append(PauliOperator.single(code.n, q, kind))
    for err in candidates:
        table.setdefault(syndrome(code, err), err)
    return table


def parse_code_text(text: str, name: str = "user") -> StabilizerCode:
    """Code-definition file: header 'n k', then n-k generators, k logical
    X strings, k logical Z strings; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise CodeFileError("empty code definition")
    header = lines[0].split()
    if len(header) != 2:
        raise CodeFileError(f"header must be 'n k', got {lines[0]!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError as exc:
        raise CodeFileError(f"header must be 'n k', got {lines[0]!r}") from exc
    if not 1 <= n <= MAX_QUBITS or not 0 <= k <= n:
        raise CodeFileError(
            f"header needs 1 <= n <= {MAX_QUBITS} and 0 <= k <= n, got {lines[0]!r}"
        )
    expected = (n - k) + 2 * k
    body = lines[1:]
    if len(body) != expected:
        raise CodeFileError(f"expected {expected} operator lines, got {len(body)}")
    try:
        ops = [parse_pauli(s) for s in body]
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc
    for p in ops:
        if p.n != n:
            raise CodeFileError(f"operator {p} acts on {p.n} qubits, expected {n}")
    gens = tuple(ops[: n - k])
    lx = tuple(ops[n - k: n - k + k])
    lz = tuple(ops[n - k + k:])
    return StabilizerCode(name, n, k, gens, lx, lz)

