"""Mask/gate compatibility checks for stabilizer and CSS codes.

Covers: the per-generator commutation criterion for transversal X/Z
masking (CLI verb `check theorem1`), the classical two-condition CSS form
of the same criterion (`check css`), the logical action of transversal
diagonal gates, and the search for a diagonal logical Clifford correction
that turns a transversal T into the exact logical T.

The mask checks are parities of Python ints (X^n commutes with g iff |z(g)|
is even, g on the code's n qubits as every StabilizerCode holds it), the
CSS pair checked by ``codes.check_css_pair``; stabilizer_mask_check is
memoized by code.  A diagonal gate's action is exact: its leakage,
verdict, logical phases (entries of ``states._OMEGA_POWERS``) and T
correction follow from integer counts of omega-exponents read from the
codewords, with no state built; ``TOL``, read like the table through
``codes._states()``, only maps a gate's phase to its exponent and checks
the basis normalization.  tests/oracles.py keeps the float state-level
route (projection_diagonal_action) that the tests compare it with.  The
action is memoized by (code space, omega exponent), so
clifford_correction_for_t reads the transversal-T action that
diagonal_gate_action computed, and vice versa.  The protocol error classes
and OMEGA live here too, so the CLI maps errors to exit codes without
importing ``protocol``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import gf2
from .codes import CODE_CACHE_SIZE, CodeSpace, StabilizerCode, _states, check_css_pair
from .gf2 import ClassicalCode
from .pauli import PauliOperator

OMEGA = cmath.exp(1j * cmath.pi / 4)


class ProtocolError(RuntimeError):
    """A protocol run cannot go on (raised by the runners in ``protocol``)."""


class IncompatibleCodeError(ProtocolError):
    """The requested code does not support transversal Pauli masking."""


class GeneratorCheck(NamedTuple):
    """One generator's mask flags; generator formats its operator when read."""

    index: int
    operator: PauliOperator
    x_commutes: bool
    z_commutes: bool

    @property
    def generator(self) -> str:
        return self.operator.to_string()

    @property
    def ok(self) -> bool:
        return self.x_commutes and self.z_commutes

    def as_dict(self) -> dict:
        return {"index": self.index, "generator": self.generator,
                "x_commutes": self.x_commutes, "z_commutes": self.z_commutes}


@dataclass(frozen=True)
class CompatReport:
    code_name: str
    generator_checks: tuple[GeneratorCheck, ...]
    verdict: bool
    e_in_c1: bool | None = None
    c2_all_even: bool | None = None
    css_verdict: bool | None = None
    cross_check_ok: bool | None = None

    def failing_generators(self) -> list[GeneratorCheck]:
        return [g for g in self.generator_checks if not g.ok]

    def as_dict(self) -> dict:
        d = {
            "code": self.code_name,
            "verdict": self.verdict,
            "generators": [g.as_dict() for g in self.generator_checks],
        }
        if self.css_verdict is not None:
            d["e_in_c1"] = self.e_in_c1
            d["c2_all_even"] = self.c2_all_even
            d["css_verdict"] = self.css_verdict
            d["cross_check_ok"] = self.cross_check_ok
        return d


@lru_cache(maxsize=CODE_CACHE_SIZE)
def stabilizer_mask_check(code: StabilizerCode) -> CompatReport:
    """Transversal X/Z masking preserves the code space iff both transversal
    operators commute with every generator: X^n iff |z(g)| is even, Z^n iff
    |x(g)| is even (a StabilizerCode's generators act on its n qubits).
    Memoized by code (frozen report); the checks are built unchecked and
    hold the generators, formatted only when read."""
    checks = tuple([tuple.__new__(GeneratorCheck, (i, g, not g.z.bit_count() & 1, not g.x.bit_count() & 1))
                    for i, g in enumerate(code.generators, 1)])
    verdict = all(c.ok for c in checks)
    if code.css_origin is not None:
        c1, c2 = code.css_origin
        css = css_mask_check(c1, c2)
        return CompatReport(
            code.name,
            checks,
            verdict,
            e_in_c1=css.e_in_c1,
            c2_all_even=css.c2_all_even,
            css_verdict=css.verdict,
            cross_check_ok=(css.verdict == verdict),
        )
    return CompatReport(code.name, checks, verdict)


def css_mask_check(c1: ClassicalCode, c2: ClassicalCode) -> CompatReport:
    """Classical form of the masking criterion: the all-ones word must lie in
    C1 and every word of C2 must have even weight."""
    check_css_pair(c1, c2)
    e = (1 << c1.length) - 1
    e_in_c1 = gf2.contains(c1, e)
    c2_even = gf2.all_even_weight(c2)
    verdict = e_in_c1 and c2_even
    return CompatReport("css", (), verdict, e_in_c1=e_in_c1, c2_all_even=c2_even, css_verdict=verdict)


class DiagonalAction(NamedTuple):
    gate_label: str
    leakage: float
    logical_phases: tuple[complex, ...] | None

    def as_dict(self) -> dict:
        return {
            "gate": self.gate_label,
            "leakage": self.leakage,
            "logical_phases": None
            if self.logical_phases is None
            else [[p.real, p.imag] for p in self.logical_phases],
        }

    @property
    def preserves_code_space(self) -> bool:  # _diagonal_action's leakage is exactly 0 then
        return self.leakage == 0


def _omega_sum(exponents: list) -> list:
    """[a, b, c, d]: the sum of omega^t over exponents t in 0..7 is a + b omega
    + c omega^2 + d omega^3, as omega^(t+4) = -omega^t; one pass bins the
    exponents into eight counts."""
    c = [0] * 8
    for t in exponents:
        c[t] += 1
    return [c[0] - c[4], c[1] - c[5], c[2] - c[6], c[3] - c[7]]


def _unit_exponents(amps) -> tuple:
    """(m, e) with amps[j] = i^e[j] m, m from amps[0], None where no e fits (-i m first: m = 0 reads 0 as 3)."""
    m = len(amps) and (abs(amps[0].real) or abs(amps[0].imag))
    p, q, r, s = complex(m, 0.0), complex(0.0, m), complex(-m, 0.0), complex(0.0, -m)
    return m, [3 if a == s else 0 if a == p else 1 if a == q else 2 if a == r else None for a in amps]


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _diagonal_action(code_space: CodeSpace, p: int):
    """(leakage, omega-exponents of the two logical phases, or None where the
    gate leaks or is not diagonal on the code space) of diag(1, omega^p) on
    every qubit; memoized by (code space, p), and a raise caches nothing.

    A code-space state on N keys has amplitudes i^e / sqrt(N), so N
    <i|gate|j> sums omega^(2 (e_j - e_i) + p wt(key)) over the keys both
    states hold: a + b omega + c omega^2 + d omega^3 from counts of
    exponents, of squared modulus a^2 + b^2 + c^2 + d^2 + sqrt2 (ab + bc +
    cd - da).  So the squared leakage of |+> = (|0> + |1>)/sqrt2, 1 -
    |<0|gate|+>|^2 - |<1|gate|+>|^2, is (P - Q sqrt2) / (2 N^2) for integers
    P and Q, exactly 0 iff P = Q = 0.  The phases are reported when, too,
    both off-diagonal entries vanish; each diagonal entry then has modulus
    1, so its N terms share one exponent.  Each sum is one histogram of its
    exponent list (_omega_sum).  Two states on disjoint keys, as every code
    space whose logical X has an X part holds, share no term: <0|1> and the
    off-diagonal entries are empty sums, so only the two diagonal
    histograms are counted and no shared-key list is built.

    A basis state whose amplitudes are not all i^e times one magnitude (no
    code space has one) is refused as such.  Then, in this order, |0>'s are
    i^e m with N m^2 = 1 (within TOL), the qubit counts agree, |1> holds N
    amplitudes i^e m, and on shared keys <0|1>'s count of each power of i
    is balanced, or the basis is refused as not orthonormal.  Two states
    that share some keys but not all are refused as CodeSpace.plan refuses
    them."""
    zero, one = code_space.basis
    (m, e0), (m1, e1) = map(_unit_exponents, (zero.amps, one.amps))
    if None in e0 or None in e1:
        raise ValueError("code-space amplitudes are not all i^e/sqrt(N)")
    size = len(e0)
    if not abs(size * m * m - 1) <= _states().TOL:
        raise ValueError("projection span is not orthonormal")
    if zero.n != one.n:
        raise ValueError(f"dimension mismatch: {zero.n} vs {one.n}")
    if len(e1) != size or m1 != m:
        raise ValueError("projection span is not orthonormal")
    t0 = [p * k.bit_count() & 7 for k in zero.keys]
    if zero.keys == one.keys:
        if any(_omega_sum([2 * (f - e) & 7 for e, f in zip(e0, e1)])):
            raise ValueError("projection span is not orthonormal")
        t1 = t0
        d01 = [(2 * (f - e) + t) & 7 for e, f, t in zip(e0, e1, t0)]
        d10 = [(2 * (e - f) + t) & 7 for e, f, t in zip(e0, e1, t0)]
    elif set(zero.keys).isdisjoint(one.keys):
        # every code space whose logical X has an X part: <0|1> and both
        # off-diagonal entries are empty sums
        t1, d01, d10 = [p * k.bit_count() & 7 for k in one.keys], [], []
    else:  # as CodeSpace.plan refuses it; logical_codewords builds no such basis
        raise ValueError("code-space basis states share some keys but not all")
    rows = (_omega_sum(t0 + d01), _omega_sum(d10 + t1))  # N sqrt2 <i|gate|+>
    P = 2 * size * size - sum(x * x for row in rows for x in row)
    Q = sum(a * b + b * c + c * d - d * a for a, b, c, d in rows)
    if P == Q == 0:
        return 0.0, None if d01 and any(_omega_sum(d01) + _omega_sum(d10)) else (t0[0], t1[0])
    # P - Q sqrt2 without cancellation: where Q > 0, P > Q sqrt2 > 0
    num = (P * P - 2 * Q * Q) / (P + Q * math.sqrt(2)) if Q > 0 else P - Q * math.sqrt(2)
    return math.sqrt(num / (2 * size * size)), None


def diagonal_gate_action(
    code_space: CodeSpace, phase_per_one: complex, label: str | None = None
) -> DiagonalAction:
    """Logical effect of the transversal gate diag(1, phase_per_one), the
    phase a power of omega = exp(i pi/4) within TOL (any other raises
    ValueError), on a code space.

    Leakage is the out-of-code-space norm for the uniform logical
    superposition input; logical phases, entries of states._OMEGA_POWERS,
    are reported only when the gate preserves the code space and is
    diagonal on it.  They are memoized by (code space, omega exponent), so
    clifford_correction_for_t reuses a T action asked for here.
    """
    st, phase = _states(), complex(phase_per_one)
    p = next((j for j, w in enumerate(st._OMEGA_POWERS) if abs(phase - w) < st.TOL), None)
    if p is None:
        raise ValueError(f"phase {phase} is not a power of omega = exp(i pi/4)")
    leakage, exponents = _diagonal_action(code_space, p)
    # + 0j (here and in the T correction) outputs the table's -1j as (0.0, -1.0)
    phases = None if exponents is None else tuple(st._OMEGA_POWERS[e] + 0j for e in exponents)
    return DiagonalAction(f"diag({phase:.4g})^x{code_space.code.n}" if label is None else label, leakage, phases)


class CliffordCorrection(NamedTuple):
    logical_s_power: int
    logical_z_power: int
    global_phase: complex

    def as_dict(self) -> dict:
        return {
            "logical_s_power": self.logical_s_power,
            "logical_z_power": self.logical_z_power,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
        }


def clifford_correction_for_t(code_space: CodeSpace) -> CliffordCorrection | None:
    """Diagonal logical Clifford (S-power, Z-power 0, global phase) turning the
    transversal T action into the exact logical T; None when the transversal
    gate leaks out of the code space, is not diagonal on it, or no diagonal
    correction exists.  For T phases omega^e0, omega^e1, S^s needs i^s =
    omega^(1 + e0 - e1) (i^s takes all of +-1, +-i, so no Z-power is
    needed), and the global phase is omega^(-e0).

    Reads the memoized transversal-T action that diagonal_gate_action(
    code_space, OMEGA) shares (code spaces hash by their states' identity,
    so the spaces that logical_codewords caches hit)."""
    exponents = _diagonal_action(code_space, 1)[1]
    if exponents is None or (1 + exponents[0] - exponents[1]) & 1:
        return None
    e0, e1 = exponents
    return CliffordCorrection((1 + e0 - e1) // 2 & 3, 0, _states()._OMEGA_POWERS[-e0 & 7] + 0j)
