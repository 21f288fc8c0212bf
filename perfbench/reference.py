"""References for the benchmark's output checks, computed apart from hqec.

Everything here works on plain Pauli strings, Python-int bit rows and dense
numpy vectors.  A dense vector is indexed by the packed basis key (qubit q
at bit q-1), the layout the README of hqec documents for state dumps.
Nothing in this module imports hqec.
"""

from __future__ import annotations

import numpy as np

OMEGA = np.exp(1j * np.pi / 4)
STATE_TOL = 1e-10
PHASE_TOL = 1e-9

_PREFIXES = (("-i", 3), ("-", 2), ("+", 0), ("i", 1))


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def parse(text: str) -> tuple[int, int, int, int]:
    """Pauli string -> (n, x, z, phase) with the operator i^phase X(x) Z(z).

    Y = iXZ, so every Y letter adds one to the phase.
    """
    phase = 0
    body = text
    for prefix, ph in _PREFIXES:
        if text.startswith(prefix):
            phase, body = ph, text[len(prefix):]
            break
    x = z = 0
    for q, ch in enumerate(body):
        if ch in "XY":
            x |= 1 << q
        if ch in "ZY":
            z |= 1 << q
        if ch == "Y":
            phase += 1
        if ch not in "IXYZ":
            raise ValueError(f"bad Pauli letter {ch!r}")
    return len(body), x, z, phase % 4


def anticommutes(a: str, b: str) -> int:
    """Symplectic parity of two Pauli strings: 1 iff they anticommute."""
    _, xa, za, _ = parse(a)
    _, xb, zb, _ = parse(b)
    return ((xa & zb).bit_count() + (za & xb).bit_count()) & 1


def syndrome(generators, error: str) -> tuple[int, ...]:
    return tuple(anticommutes(g, error) for g in generators)


def mask_flags(generator: str) -> tuple[bool, bool]:
    """(X^n commutes with g, Z^n commutes with g) from the letter parities."""
    _, x, z, _ = parse(generator)
    return z.bit_count() % 2 == 0, x.bit_count() % 2 == 0


def mask_verdict(generators) -> bool:
    return all(all(mask_flags(g)) for g in generators)


# -- GF(2) rows ---------------------------------------------------------------


def row(text: str) -> int:
    return sum(1 << q for q, ch in enumerate(text) if ch == "1")


def row_text(word: int, n: int) -> str:
    return "".join("1" if (word >> q) & 1 else "0" for q in range(n))


def echelon(rows) -> list[int]:
    """Independent rows spanning the same space (leading-bit elimination)."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return basis


def in_span(word: int, rows) -> bool:
    for b in echelon(rows):
        word = min(word, word ^ b)
    return word == 0


def nullspace(rows, n: int) -> list[int]:
    """Basis of the words orthogonal to every row (reduced echelon, free columns)."""
    pivots: dict[int, int] = {}  # pivot column -> fully reduced row
    for r in rows:
        for c, p in pivots.items():
            if (r >> c) & 1:
                r ^= p
        if r:
            c = (r & -r).bit_length() - 1
            for d in pivots:
                if (pivots[d] >> c) & 1:
                    pivots[d] ^= r
            pivots[c] = r
    out = []
    for f in range(n):
        if f not in pivots:
            out.append((1 << f) | sum(1 << c for c, p in pivots.items() if (p >> f) & 1))
    return out


def css_verdict(c1_rows, c2_rows, n: int) -> tuple[bool, bool]:
    """(all-ones word in C1, every word of C2 even)."""
    return in_span((1 << n) - 1, c1_rows), all(r.bit_count() % 2 == 0 for r in c2_rows)


def triortho(rows) -> tuple[bool, bool, list[tuple[int, ...]]]:
    """(pairwise ok, triple ok, odd-overlap index sets, pairs before triples)."""
    m = len(rows)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
             if (rows[i] & rows[j]).bit_count() % 2]
    triples = [(i, j, k) for i in range(m) for j in range(i + 1, m) for k in range(j + 1, m)
               if (rows[i] & rows[j] & rows[k]).bit_count() % 2]
    return not pairs, not triples, pairs + triples


# -- codes ----------------------------------------------------------------------

HAMMING_ROWS = ("1000011", "0100101", "0010110", "0001111")
STEANE_C2_ROWS = ("0001111", "0110011", "1010101")
RM_ROWS = (
    "111111111111111",
    "000000011111111",
    "000111100001111",
    "011001100110011",
    "101010101010101",
)


def css_strings(c1_rows, c2_rows, n: int) -> list[str]:
    """Generators of CSS(C1, C2): X checks from C2, Z checks from the dual of C1."""
    xs = [row_text(r, n).replace("1", "X").replace("0", "I") for r in echelon(c2_rows)]
    zs = [row_text(r, n).replace("1", "Z").replace("0", "I") for r in nullspace(c1_rows, n)]
    return xs + zs


def builtin_codes() -> dict[str, tuple[list[str], str, str]]:
    """Code name -> (generators, logical X, logical Z), from the paper's definitions."""
    ham = [row(r) for r in HAMMING_ROWS]
    rm = [row(r) for r in RM_ROWS]
    return {
        "bit_flip": (["ZZI", "IZZ"], "XXX", "ZZZ"),
        "phase_flip": (["XXI", "IXX"], "ZZZ", "XXX"),
        # phase-repetition basis: transversal Z is the logical X
        "shor": (["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
                  "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"], "Z" * 9, "X" * 9),
        "steane": (css_strings(ham, [row(r) for r in STEANE_C2_ROWS], 7), "X" * 7, "Z" * 7),
        "rm15": (css_strings(rm, rm[1:], 15), "X" * 15, "Z" * 15),
        "synthetic_incompatible": (["ZZZ", "XXI"], "IXX", "ZZI"),
    }


# -- dense states ------------------------------------------------------------------


def apply(pauli: str, vec: np.ndarray) -> np.ndarray:
    n, x, z, phase = parse(pauli)
    idx = np.arange(1 << n, dtype=np.uint64)
    signed = vec * (1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(z)) & 1))
    return (1j ** phase) * signed[idx ^ np.uint64(x)]


def codewords(generators, logical_x: str, logical_z: str) -> tuple[np.ndarray, np.ndarray]:
    """|0L> from the projectors (I + g)/2 applied to a fixed generic vector;
    |1L> = logical X |0L>."""
    n = parse(logical_x)[0]
    rng = np.random.default_rng(12345)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for g in list(generators) + [logical_z]:
        vec = (vec + apply(g, vec)) / 2
    size = norm(vec)
    if size < 1e-6:
        raise ValueError("projectors annihilate the probe vector")
    zero = vec / size
    return zero, apply(logical_x, zero)


def logical_state(zero: np.ndarray, one: np.ndarray, c0: complex, c1: complex) -> np.ndarray:
    vec = c0 * zero + c1 * one
    return vec / norm(vec)


def dense(n: int, keys, amps) -> np.ndarray:
    vec = np.zeros(1 << n, dtype=complex)
    vec[np.asarray(keys, dtype=np.int64)] = amps
    return vec


def vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> by elementwise numpy; BLAS calls would wake its worker threads."""
    return complex(np.sum(np.conj(a) * b))


def norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(v) ** 2)))


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_state(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """got equals want up to one global phase, entry by entry, to 1e-10."""
    require(got.shape == want.shape, f"{what}: {got.size} entries, expected {want.size}")
    ip = vdot(want, got)
    require(abs(abs(ip) - 1) <= STATE_TOL, f"{what}: overlap {abs(ip):.3e} with the reference")
    err = np.abs(got - (ip / abs(ip)) * want).max()
    require(err <= STATE_TOL, f"{what}: differs from the reference by {err:.3e}")


# -- single-qubit circuits -------------------------------------------------------------

GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]),
    "Sd": np.diag([1, -1j]),
    "T": np.diag([1, OMEGA]),
    "Td": np.diag([1, np.conj(OMEGA)]),
}


def apply_gate(label: str, qubit: int, vec: np.ndarray) -> np.ndarray:
    """Single-qubit gate on qubit q (bit q-1 of the index)."""
    n = vec.size.bit_length() - 1
    t = vec.reshape([2] * n)  # axis 0 is the highest bit, qubit n
    t = np.moveaxis(np.tensordot(GATES[label], t, axes=([1], [n - qubit])), 0, n - qubit)
    return t.reshape(-1)


def diagonal_action(zero: np.ndarray, one: np.ndarray, phase: complex):
    """Leakage of (|0L>+|1L>)/sqrt2 under the transversal diagonal gate
    diag(1, phase) on every qubit, and the logical phases when it stays."""
    n = zero.size.bit_length() - 1
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    diag = phase ** weights
    out = diag * (zero + one) / np.sqrt(2)
    proj = vdot(zero, out) * zero + vdot(one, out) * one
    leak = float(norm(out - proj))
    phases = (vdot(zero, diag * zero), vdot(one, diag * one))
    return leak, phases


def t_correction(phases) -> tuple[int, int, complex] | None:
    """(S power, Z power, global phase) that turn the transversal-T action
    into the logical T, or None when no diagonal Clifford does."""
    lam0, lam1 = phases
    target = OMEGA * lam0 / lam1
    for z in (0, 1):
        for s in range(4):
            if abs(1j ** s * (-1) ** z - target) < PHASE_TOL:
                return s, z, 1 / lam0
    return None
