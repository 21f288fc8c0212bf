"""Stabilizer codes: builtin instances, validation, codewords, decoding.

A code is generators + logical X/Z representatives; codewords are built
as sparse states by stabilizer-tableau elimination, in time polynomial in
n plus one term per basis key.  The builtin names (``hqec.BUILTIN_NAMES``)
cover the repetition codes, the nine-qubit code, the Steane code, the
[[15,1,3]] punctured Reed-Muller code, and a deliberately mask-incompatible
three-qubit code.  The four non-CSS builtins are code-file texts that
``parse_code_text`` reads, as it reads a user's; steane and rm15 keep
their classical rows as css_origin.

Per-code data is memoized: ``builtin_code`` by name, and the validation
report, the codewords and the single-error syndrome table by the (frozen,
hashable) code, in caches of at most ``CODE_CACHE_SIZE`` codes.  Everything
cached is immutable, and a call that raises caches nothing.

A ``StabilizerCode`` refuses, when it is built, an operator on another
number of qubits than its n, and ``syndrome``, the one syndrome, an error
on another number.  ``validate_code`` decides the algebra: the
codewords are built only for a code it accepts; ``check_css_pair`` is the
one check of a classical pair.  All of it is GF(2) algebra on Python
ints, reduced and solved by ``gf2``; validation, codewords and syndromes
read each PauliOperator as its (x, z, phase) ints and build none.  |0_L>
lies on an affine space s0 + V and |1_L> = X|0_L> on s0 + x(X) + V, so
the two codewords hold the same keys or none in common, and ``CodeSpace``
combines them pair by pair or by one pick into key order.  The codeword
construction and ``CodeSpace`` reach the ``states`` layer only through
``_states()``, which imports it on first use, to build and read states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from . import gf2
from .gf2 import ClassicalCode
from .pauli import _PHASE_VALUE, MAX_QUBITS, PauliOperator, _qubit_count, parse_pauli

if TYPE_CHECKING:
    from .states import SparseState

CODE_CACHE_SIZE = 32


class CodeFileError(ValueError):
    """Malformed code-definition file."""


class SubcodeError(ValueError):
    """C2 is not contained in C1."""


class _CodeFields(NamedTuple):
    name: str
    n: int
    k: int
    generators: tuple[PauliOperator, ...]
    logical_x: tuple[PauliOperator, ...]
    logical_z: tuple[PauliOperator, ...]
    css_origin: tuple[ClassicalCode, ClassicalCode] | None = None


class StabilizerCode(_CodeFields):
    """Generators and logical X/Z representatives of an [[n, k]] code.  The
    constructor checks 1 <= n <= MAX_QUBITS and that every operator acts on
    n qubits, and stores each operator sequence as a tuple; validate_code
    decides the rest."""

    __slots__ = ()

    def __new__(cls, name: str, n: int, k: int, generators, logical_x, logical_z, css_origin=None):
        _qubit_count(n)
        ops = tuple(generators), tuple(logical_x), tuple(logical_z)
        for p in (*ops[0], *ops[1], *ops[2]):
            if p.n != n:
                raise ValueError(f"operator {p} acts on {p.n} qubits, expected {n}")
        return tuple.__new__(cls, (name, n, k, *ops, css_origin))

    _make = classmethod(lambda cls, fields: cls(*fields))  # NamedTuple._replace calls it: checked too


class ValidationReport(NamedTuple):
    code_name: str
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"code": self.code_name, "ok": self.ok, "violations": list(self.violations)}


@lru_cache(maxsize=None)
def _states():
    from . import states  # on first use: codes loads without the states layer
    return states


@dataclass(frozen=True)
class CodeSpace:
    """The logical basis (|0_L>, |1_L>) of a k = 1 code.  |0_L> lies on a
    coset s0 + V and |1_L> = X|0_L> on s0 + x(X) + V, two cosets of one
    space, so the two hold the same keys or no key in common.  Through its
    plan (built on first use and kept; dataclasses.replace gives a fresh
    one), state(c0, c1) is the linear combination that tests/oracles.py
    keeps as combine(basis, [c0, c1]), bit for bit, and coords(psi) is
    [inner(|0_L>, psi), inner(|1_L>, psi)]."""

    code: StabilizerCode
    basis: tuple[SparseState, ...]

    @property
    def zero(self) -> SparseState:
        return self.basis[0]

    @property
    def one(self) -> SparseState:
        return self.basis[1]

    @cached_property
    def plan(self) -> tuple:
        """(keys, pick): the sorted union of the basis keys, and None where
        the two states hold one key tuple, else an itemgetter of the sorted
        order of |0_L>'s products, then |1_L>'s (a tuple: orthogonal states
        on disjoint keys hold two keys or more).  A basis whose states share
        some keys but not all, which no code space holds, raises."""
        zero, one = self.zero.keys, self.one.keys
        if zero == one:
            return zero, None
        if not set(zero).isdisjoint(one):
            raise ValueError("code-space basis states share some keys but not all")
        both = zero + one
        pick = itemgetter(*sorted(range(len(both)), key=both.__getitem__))
        return pick(both), pick

    def state(self, c0, c1) -> SparseState:
        """c0|0_L> + c1|1_L> (not normalized), terms of magnitude <= PRUNE_TOL
        dropped: c0 a + c1 b at each key on one key tuple, else each term
        scaled and picked into key order."""
        (keys, pick), c0, c1, st = self.plan, complex(c0), complex(c1), _states()
        if pick is None:
            amps = [c0 * a + c1 * b for a, b in zip(self.zero.amps, self.one.amps)]
        else:
            amps = pick([c0 * a for a in self.zero.amps] + [c1 * a for a in self.one.amps])
        if min(map(abs, amps)) > st.PRUNE_TOL:
            return st._state(self.zero.n, keys, tuple(amps))
        return st._terms_state(self.zero.n, [t for t in zip(keys, amps) if abs(t[1]) > st.PRUNE_TOL])

    def coords(self, psi: SparseState) -> list[complex]:
        """[<0_L|psi>, <1_L|psi>]."""
        return [_states().inner(b, psi) for b in self.basis]


def _reduce_tracked(vec: int, x: int, z: int, phase: int, basis: list) -> tuple:
    """Reduce vec against rows (vector, x, z, phase), each reduced against the
    rows before it, multiplying the tracked element i^phase X(x) Z(z) by each
    row's element used as PauliOperator.multiply does; the phase ends mod 4."""
    for bvec, bx, bz, bph in basis:
        if vec & bvec & -bvec:
            vec ^= bvec
            phase += bph + 2 * ((z & bx).bit_count() & 1)
            x ^= bx
            z ^= bz
    return vec, x, z, phase & 3


@lru_cache(maxsize=CODE_CACHE_SIZE)
def validate_code(code: StabilizerCode) -> ValidationReport:
    """Report every violated code invariant; an empty report means valid.
    p and q anticommute iff vec(p) & dual(q) has odd weight, for vec(p) =
    x | z << n and dual(p) = z | x << n (every operator acts on n qubits)."""
    v: list[str] = []
    n, gens = code.n, code.generators
    vecs = [g.x | g.z << n for g in gens]
    duals = [g.z | g.x << n for g in gens]
    for i, g in enumerate(gens):
        if not g.is_hermitian:
            v.append(f"generator {i + 1} ({g}) is not Hermitian")
    if len(gens) != n - code.k:
        v.append(f"expected {n - code.k} generators, got {len(gens)}")
    v += [f"generators {i + 1} ({gens[i]}) and {j + 1} ({gens[j]}) anticommute"
          for i, j in combinations(range(len(gens)), 2) if (vecs[i] & duals[j]).bit_count() & 1]

    basis: list = []
    for i, g in enumerate(gens):
        row = _reduce_tracked(vecs[i], g.x, g.z, g.phase, basis)
        if row[0] == 0:
            # the row is g times a product of earlier generators, equal to a phase
            if row[3] == 0:
                v.append(f"generator {i + 1} ({g}) is dependent on earlier generators")
            else:
                v.append(f"-I is in the group generated (via generator {i + 1})")
        else:
            basis.append(row)

    if len(code.logical_x) != code.k or len(code.logical_z) != code.k:
        v.append(f"expected {code.k} logical X and Z operators")
    rows = [row[0] for row in basis]
    for label, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for j, p in enumerate(ops):
            if not p.is_hermitian:
                v.append(f"logical {label}[{j + 1}] ({p}) is not Hermitian")
            r = p.x | p.z << n
            v += [f"logical {label}[{j + 1}] anticommutes with generator {i + 1}"
                  for i, d in enumerate(duals) if (r & d).bit_count() & 1]
            if gf2.reduce(r, rows) == 0:
                v.append(f"logical {label}[{j + 1}] lies in the stabilizer group")
    for j, xj in enumerate(code.logical_x):
        for l, zl in enumerate(code.logical_z):
            if (j == l) != ((xj.x | xj.z << n) & (zl.z | zl.x << n)).bit_count() & 1:
                want = "anticommute" if j == l else "commute"
                v.append(f"logical X[{j + 1}] and Z[{l + 1}] must {want}")
    for label, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for j in range(len(ops)):
            for l in range(j + 1, len(ops)):
                a, b = ops[j], ops[l]
                if ((a.x | a.z << n) & (b.z | b.x << n)).bit_count() & 1:
                    v.append(f"logical {label}[{j + 1}] and {label}[{l + 1}] anticommute")
    return ValidationReport(code.name, tuple(v))


def check_css_pair(c1: ClassicalCode, c2: ClassicalCode) -> None:
    """Raise unless C1 and C2 have one length and C2 lies in C1."""
    if c1.length != c2.length:
        raise ValueError("classical codes differ in length")
    if not gf2.is_subcode(c2, c1):
        raise SubcodeError("C2 is not a subcode of C1")


def css_from_classical(c1: ClassicalCode, c2: ClassicalCode, name: str | None = None) -> StabilizerCode:
    """CSS code from nested classical codes: X checks from C2, Z checks from C1-dual."""
    check_css_pair(c1, c2)
    for label, c in (("C1", c1), ("C2", c2)):
        if len(gf2.rref(c.basis)) < c.dimension:
            raise ValueError(f"{label} has linearly dependent basis rows")
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
        mod_basis = gf2.rref(c2.basis)  # of C2 and the representatives so far
        for row in c1.basis:
            r = gf2.reduce(row, mod_basis)
            if r:
                f_rows.append(r)
                mod_basis = gf2.rref(mod_basis + [r])
        f_rows = f_rows[:k]
    # logical Z duals: h_j in C2-dual with h_j . f_l = delta_jl; bit d of
    # coeffs[l] is the parity of (C2-dual row d) . f_l
    c2_dual = gf2.dual(c2)
    coeffs = [sum(((bd & f).bit_count() & 1) << d for d, bd in enumerate(c2_dual.basis)) for f in f_rows]
    h_rows = []
    for j in range(k):
        sol = gf2.solve([(coeffs[l], int(j == l)) for l in range(k)])
        h = 0
        for d, bd in enumerate(c2_dual.basis):
            if (sol >> d) & 1:
                h ^= bd
        h_rows.append(h)
    if k == 1 and gf2.contains(c2_dual, e) and (e & f_rows[0]).bit_count() & 1:
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


_RM15_ROWS = (
    "111111111111111",
    "000000011111111",
    "000111100001111",
    "011001100110011",
    "101010101010101",
)
_CSS_ROWS = {  # C1 and C2 rows, built by css_from_classical
    "steane": (("1000011", "0100101", "0010110", "0001111"), ("0001111", "0110011", "1010101")),
    "rm15": (_RM15_ROWS, _RM15_ROWS[1:]),
}

_CODE_TEXTS = {  # the non-CSS builtins, as the code files a user writes
    "bit_flip": "3 1\nZZI\nIZZ\nXXX\nZZZ\n",
    "phase_flip": "3 1\nXXI\nIXX\nZZZ\nXXX\n",
    # phase-repetition basis: transversal Z acts as logical X and vice versa
    "shor": "9 1\nZZIIIIIII\nIZZIIIIII\nIIIZZIIII\nIIIIZZIII\nIIIIIIZZI\nIIIIIIIZZ\n"
            "XXXXXXIII\nIIIXXXXXX\nZZZZZZZZZ\nXXXXXXXXX\n",
    # ZZZ has odd overlap with transversal X, so mask compatibility fails
    "synthetic_incompatible": "3 1\nZZZ\nXXI\nIXX\nZZI\n",
}


@lru_cache(maxsize=None)
def builtin_code(name: str) -> StabilizerCode:
    if name in _CODE_TEXTS:
        return parse_code_text(_CODE_TEXTS[name], name)
    if name in _CSS_ROWS:
        return css_from_classical(*map(gf2.code_from_strings, _CSS_ROWS[name]), name=name)
    raise ValueError(f"unknown builtin code {name!r}")


def _zero_codeword(code: StabilizerCode) -> SparseState:
    """|0> by tableau elimination, for a code validate_code accepts; see
    logical_codewords.  Raises only beyond the enumeration guard.

    For a valid code, G = <S, Z> is abelian, every element is Hermitian,
    and -I is not in G (-I = sZ would put Z's vector in span(S)).  So no
    Z-only element of G has an odd phase, and the seed equations that the
    Z-only elements pose are consistent: gf2.solve always finds s0."""
    signs = _states()._SIGNS
    pivots: list = []  # (x-part, x, z, phase) rows for _reduce_tracked
    seed_equations = []  # z.s0 = phi/2 for each Z-only element i^phi Z(z)
    for g in code.generators + code.logical_z[:1]:
        row = _reduce_tracked(g.x, g.x, g.z, g.phase, pivots)
        if row[0]:
            pivots.append(row)
        else:
            seed_equations.append((row[2], row[3] >> 1))
    if len(pivots) > gf2.ENUM_DIM_GUARD:
        raise gf2.GuardExceeded(f"{code.name}: codeword of 2^{len(pivots)} terms exceeds "
                                f"the enumeration guard 2^{gf2.ENUM_DIM_GUARD}")
    s0 = gf2.solve(seed_equations)
    # x-part, z-part and amplitude of every product of pivots acting on |s0>
    xs, zs, amps = [0], [0], [1 + 0j]
    for _, x, pz, phase in pivots:
        ph = _PHASE_VALUE[phase]
        amps += [a * signs[(z & x).bit_count() & 1] * ph for z, a in zip(zs, amps)]
        xs += [v ^ x for v in xs]
        zs += [v ^ pz for v in zs]
    scale = complex(0.5 ** len(pivots))
    terms = sorted((x ^ s0, a * signs[(z & s0).bit_count() & 1] * scale)
                   for x, z, a in zip(xs, zs, amps))
    keys, amps = zip(*terms)
    return _states()._state(code.n, keys, amps).normalized()


@lru_cache(maxsize=CODE_CACHE_SIZE)
def logical_codewords(code: StabilizerCode) -> CodeSpace:
    """Orthonormal {|0>, |1>} logical basis as sparse states (k=1 only).

    Tableau elimination (Aaronson and Gottesman, PRA 70, 052328) reduces
    each of the generators and logical Z, in order, against the X-pivots
    found so far: it becomes a new pivot p, or a Z-only element i^phi Z(z)
    that fixes the seed by z.s0 = phi/2.  |0> = (I + p_1)...(I + p_r)|s0>
    normalized: the sum of P_T|s0> over the 2^r ordered pivot products P_T,
    at the distinct keys s0 ^ x(P_T), exactly.  gf2.solve puts pivots at
    the lowest bit and free bits at 0, so s0 is the smallest surviving key,
    where a seed scan stops.  |1> = X|0> for the logical X.

    Guards, in order: k = 1, the first violation validate_code reports,
    then the enumeration guard.  No state is read back: for a valid code,
    |0> is proportional to the sum of g|s0> over G = <S, Z>, so every
    element of G fixes it; |1> = X|0> is fixed by S and negated by Z, as X
    commutes with S and anticommutes with Z.  The two are orthogonal as
    eigenstates of the Hermitian Z with eigenvalues +1 and -1.
    """
    if code.k != 1:
        raise ValueError(f"codeword construction supports k=1, got k={code.k}")
    violations = validate_code(code).violations
    if violations:
        raise ValueError(f"{code.name}: {violations[0]}")
    zero = _zero_codeword(code)
    return CodeSpace(code, (zero, _states().apply_pauli(zero, code.logical_x[0])))


def syndrome(code: StabilizerCode, error: PauliOperator) -> tuple[int, ...]:
    """Bit i is 1 iff the error anticommutes with generator i: the parity of
    the symplectic product x(e).z(g) + z(e).x(g)."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    x, z = error.x, error.z
    return tuple([((x & g.z) ^ (z & g.x)).bit_count() & 1 for g in code.generators])


def decode_single_error(code: StabilizerCode, s) -> PauliOperator | None:
    """Minimum-weight error matching the syndrome among weight <= 1 Paulis.

    Ties break by (qubit index, X < Y < Z); returns None for syndromes no
    single error produces.  The syndrome's bits are read as ints.
    """
    return _single_error_table(code).get(tuple([int(b) for b in s]))


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
    lines = gf2.content_lines(text)
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
        return StabilizerCode(name, n, k, ops[: n - k], ops[n - k: n], ops[n:])
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc

