"""Mask/gate compatibility checks for stabilizer and CSS codes.

Covers: the per-generator commutation criterion for transversal X/Z
masking (CLI verb `check theorem1`), the classical two-condition CSS form
of the same criterion (`check css`), the logical action of transversal
diagonal gates, and the search for a diagonal logical Clifford correction
that turns a transversal T into the exact logical T.

The mask checks are parities of Python ints (X^n commutes with g iff |z(g)|
is even, g on the code's n qubits as every StabilizerCode holds it), the
CSS pair checked by ``codes.check_css_pair``; only the diagonal-gate
functions read the ``states`` layer (its tolerances, squared-weight sum
and bracket sum, through ``codes._states()``, which imports it on first
use).  A diagonal gate's action is computed from the codewords'
amplitudes and one dict of |1>, with no intermediate state, bit for bit
as the state-level route that tests/oracles.py keeps
(projection_diagonal_action).  It is memoized by (code space, phase), so
clifford_correction_for_t reads the transversal-T action that
diagonal_gate_action computed, and vice versa; stabilizer_mask_check is
memoized by code.  The protocol error classes and OMEGA live here too, so
the CLI maps errors to exit codes without importing ``protocol``; the
register-cost report is the package's, re-exported here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import ResourceReport, gf2, resource_report  # the report is the package's, for the CLI to run without compat
from .codes import CODE_CACHE_SIZE, CodeSpace, StabilizerCode, _states, check_css_pair
from .gf2 import ClassicalCode

OMEGA = cmath.exp(1j * cmath.pi / 4)


class ProtocolError(RuntimeError):
    """A protocol run cannot go on (raised by the runners in ``protocol``)."""


class IncompatibleCodeError(ProtocolError):
    """The requested code does not support transversal Pauli masking."""


class GeneratorCheck(NamedTuple):
    index: int
    generator: str
    x_commutes: bool
    z_commutes: bool

    @property
    def ok(self) -> bool:
        return self.x_commutes and self.z_commutes


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
            "generators": [g._asdict() for g in self.generator_checks],
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
    Memoized by code (frozen report)."""
    checks = tuple(
        GeneratorCheck(i + 1, g.to_string(), not g.z.bit_count() & 1, not g.x.bit_count() & 1)
        for i, g in enumerate(code.generators)
    )
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
    def preserves_code_space(self) -> bool:  # by _diagonal_action's bound
        return self.leakage < _states().TOL


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _diagonal_action(code_space: CodeSpace, phase_per_one: complex):
    """(leakage, logical phases) of phase^(number of 1 bits) on a code
    space; the phases are None when the gate leaks or is not a pure phase
    on each basis state.  The gate acts on (|0> + |1>)/sqrt2, the residual
    image - projection gives the leakage, and <i|gate|i> the phases.
    Memoized by (code space, phase); a raise caches nothing.

    <0|0> and <1|1> are states._weight sums and <0|1> reads one key ->
    amplitude dict of |1> (<1|0> sums the same shared keys in the same order
    with conjugate terms, so it needs no check of its own); no state is
    built, yet every number is bit for bit that of the state-level route
    (linear combinations, brackets and a per-key phase on SparseStates),
    which tests/oracles.py keeps as projection_diagonal_action: brackets
    sum in the codeword's key order, a key both codewords hold adds |0>'s
    term first, and terms are pruned at PRUNE_TOL where a combination of
    states prunes them."""
    st = _states()
    tol, floor, bracket = st.TOL, st.PRUNE_TOL, st.bracket
    zero, one = code_space.basis

    def check(value, want):
        if abs(value - want) > tol:
            raise ValueError("projection span is not orthonormal")

    check(st._weight(zero.amps), 1.0)
    if zero.n != one.n:
        raise ValueError(f"dimension mismatch: {zero.n} vs {one.n}")
    check(bracket(zero, dict(zip(one.keys, one.amps))), 0.0)
    check(st._weight(one.amps), 1.0)
    powers = [phase_per_one**w for w in range(zero.n + 1)]

    def spanned(c0, c1) -> dict:
        """c0|0> + c1|1> with terms of magnitude <= PRUNE_TOL dropped."""
        acc = {k: c0 * a for k, a in zip(zero.keys, zero.amps)}
        for k, a in zip(one.keys, one.amps):
            a = c1 * a
            acc[k] = acc[k] + a if k in acc else a
        return {k: a for k, a in acc.items() if abs(a) > floor}

    c = complex(1 / math.sqrt(2))
    out = {k: a * powers[k.bit_count()] for k, a in spanned(c, c).items()}
    coeffs = (bracket(zero, out), bracket(one, out))
    # sqrt(1 - weight) computed as the residual norm: cancellation-free, so
    # an exactly code-space-preserving gate reports leakage 0, not sqrt(eps)
    if st._weight(coeffs) < tol**2:
        leakage = 1.0
    else:
        proj = spanned(*coeffs)
        # o - p, o or p: each has the magnitude of the state route's
        # (1+0j)*o + (-1+0j)*p, and fsum needs no order
        resid = [o - proj.pop(k) if k in proj else o for k, o in out.items()]
        leakage = math.sqrt(st._weight([r for r in resid + list(proj.values()) if abs(r) > floor]))
    if leakage >= tol:
        return leakage, None
    phases = []
    for b in (zero, one):
        total = 0j
        for k, a in zip(b.keys, b.amps):
            total += a.conjugate() * (a * powers[k.bit_count()])
        phases.append(total)
    # a gate that keeps the code space but mixes its basis states has no phases
    return leakage, None if any(abs(abs(ph) - 1) > tol for ph in phases) else tuple(phases)


def diagonal_gate_action(
    code_space: CodeSpace, phase_per_one: complex, label: str | None = None
) -> DiagonalAction:
    """Logical effect of a transversal diagonal gate on a code space.

    Leakage is the out-of-code-space norm for the uniform logical
    superposition input; logical phases are reported only when the gate
    preserves the code space and is diagonal on it.  The numbers are
    memoized by (code space, phase), so clifford_correction_for_t reuses a
    T action asked for here.
    """
    if label is None:
        label = f"diag({complex(phase_per_one):.4g})^x{code_space.code.n}"
    return DiagonalAction(label, *_diagonal_action(code_space, complex(phase_per_one)))


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
    correction exists.

    Reads the memoized transversal-T action that diagonal_gate_action(
    code_space, OMEGA) shares (code spaces hash by their states' identity,
    so the spaces that logical_codewords caches hit)."""
    tol = _states().TOL
    phases = _diagonal_action(code_space, OMEGA)[1]
    if phases is None:
        return None
    lam0, lam1 = phases
    gamma = 1.0 / lam0
    target = OMEGA * lam0 / lam1
    for s in range(4):  # i^s takes all of +-1, +-i, so no Z-power is needed
        if abs(1j**s - target) < tol:
            return CliffordCorrection(s, 0, complex(gamma))
    return None
