"""Mask/gate compatibility checks for stabilizer and CSS codes.

Covers: the per-generator commutation criterion for transversal X/Z
masking (CLI verb `check theorem1`), the classical two-condition CSS form
of the same criterion (`check css`), the logical action of transversal
diagonal gates, and the search for a diagonal logical Clifford correction
that turns a transversal T into the exact logical T.

The mask checks are symplectic and GF(2) algebra on Python ints; only the
diagonal-gate functions import the ``states`` layer, when called.  A
diagonal gate's action is memoized by (code space, phase), so
clifford_correction_for_t reads the transversal-T action that
diagonal_gate_action computed, and vice versa; stabilizer_mask_check is
memoized by code.  The protocol error classes, OMEGA and the register-cost
report live here too, so the CLI maps errors to exit codes and answers
``report resources`` without importing ``protocol``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import gf2
from .codes import CODE_CACHE_SIZE, CodeSpace, StabilizerCode, SubcodeError
from .gf2 import ClassicalCode
from .pauli import transversal_pauli

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
    operators commute with every generator.  Memoized by code (frozen report)."""
    tx = transversal_pauli("X", code.n)
    tz = transversal_pauli("Z", code.n)
    checks = tuple(
        GeneratorCheck(i + 1, g.to_string(), tx.commutes(g), tz.commutes(g))
        for i, g in enumerate(code.generators)
    )
    verdict = all(c.ok for c in checks)
    if code.css_origin is not None:
        c1, c2 = code.css_origin
        css = css_mask_check(c1, c2, name=code.name)
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


def css_mask_check(c1: ClassicalCode, c2: ClassicalCode, name: str = "css") -> CompatReport:
    """Classical form of the masking criterion: the all-ones word must lie in
    C1 and every word of C2 must have even weight."""
    if c1.length != c2.length:
        raise ValueError("classical codes differ in length")
    if not gf2.is_subcode(c2, c1):
        raise SubcodeError("C2 is not a subcode of C1")
    e = (1 << c1.length) - 1
    e_in_c1 = gf2.contains(c1, e)
    c2_even = gf2.all_even_weight(c2)
    verdict = e_in_c1 and c2_even
    return CompatReport(name, (), verdict, e_in_c1=e_in_c1, c2_all_even=c2_even, css_verdict=verdict)


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


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _diagonal_action(code_space: CodeSpace, phase_per_one: complex):
    """(leakage, logical phases) of phase^(number of 1 bits) on a code
    space; the phases are None when the gate leaks or is not a pure phase
    on each basis state.  The gate acts on (|0> + |1>)/sqrt2, the residual
    image - projection gives the leakage, and <i|gate|i> the phases.
    Memoized by (code space, phase); a raise caches nothing."""
    from .states import TOL, _state, _weight, combine, inner

    basis = code_space.basis
    for i, u in enumerate(basis):  # inner raises on basis states of different sizes
        for j, v in enumerate(basis):
            if abs(inner(u, v) - (1.0 if i == j else 0.0)) > TOL:
                raise ValueError("projection span is not orthonormal")
    powers = [phase_per_one**w for w in range(basis[0].n + 1)]

    def apply(state):
        amps = [a * powers[k.bit_count()] for k, a in state.items()]
        return _state(state.n, state.keys, tuple(amps))

    out = apply(combine(basis, [1 / math.sqrt(2)] * len(basis)))
    coeffs = [inner(b, out) for b in basis]
    # sqrt(1 - weight) computed as the residual norm: cancellation-free, so
    # an exactly code-space-preserving gate reports leakage 0, not sqrt(eps)
    if _weight(coeffs) < TOL**2:
        leakage = 1.0
    else:
        leakage = combine([out, combine(basis, coeffs)], [1.0, -1.0]).norm()
    if leakage >= TOL:
        return leakage, None
    phases = tuple(inner(b, apply(b)) for b in basis)
    # a gate that keeps the code space but mixes its basis states has no phases
    return leakage, None if any(abs(abs(ph) - 1) > TOL for ph in phases) else phases


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
    """Diagonal logical Clifford (S-power, Z-power, global phase) turning the
    transversal T action into the exact logical T; None when the transversal
    gate leaks out of the code space, is not diagonal on it, or no diagonal
    correction exists.

    Reads the memoized transversal-T action that diagonal_gate_action(
    code_space, OMEGA) shares (code spaces hash by their states' identity,
    so the spaces that logical_codewords caches hit)."""
    from .states import TOL

    phases = _diagonal_action(code_space, OMEGA)[1]
    if phases is None:
        return None
    lam0, lam1 = phases
    gamma = 1.0 / lam0
    target = OMEGA * lam0 / lam1
    for z in (0, 1):
        for s in range(4):
            if abs(1j**s * (-1) ** z - target) < TOL:
                return CliffordCorrection(s, z, complex(gamma))
    return None


class ResourceReport(NamedTuple):
    n: int
    q_data: int
    q_aux_phys: int
    q_tot_phys: int
    q_aux_log: int
    q_tot_log: int

    def as_dict(self) -> dict:
        return self._asdict()


def resource_report(n: int) -> ResourceReport:
    """Register cost of one teleported non-Clifford gate on an n-qubit block:
    n data qubits plus n physical Bell pairs, or one logical Bell pair of two
    n-qubit blocks; both total 3n."""
    if n < 1:
        raise ValueError("block size must be positive")
    return ResourceReport(n, n, 2 * n, 3 * n, 2 * n, 3 * n)
