"""Mask/gate compatibility checks for stabilizer and CSS codes.

Covers: the per-generator commutation criterion for transversal X/Z
masking (CLI verb `check theorem1`), the classical two-condition CSS form
of the same criterion (`check css`), the geometric even-support variant,
the logical action of transversal diagonal gates, and the search for a
diagonal logical Clifford correction that turns a transversal T into the
exact logical T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .codes import CODE_CACHE_SIZE, CodeSpace, StabilizerCode, SubcodeError
from .gf2 import ClassicalCode
from .pauli import transversal_pauli
from .states import SparseState, combine, inner, project_onto

LEAKAGE_TOL = 1e-10
PHASE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class GeneratorCheck:
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
            "generators": [
                {
                    "index": g.index,
                    "generator": g.generator,
                    "x_commutes": g.x_commutes,
                    "z_commutes": g.z_commutes,
                }
                for g in self.generator_checks
            ],
        }
        if self.css_verdict is not None:
            d["e_in_c1"] = self.e_in_c1
            d["c2_all_even"] = self.c2_all_even
            d["css_verdict"] = self.css_verdict
            d["cross_check_ok"] = self.cross_check_ok
        return d


def stabilizer_mask_check(code: StabilizerCode) -> CompatReport:
    """Transversal X/Z masking preserves the code space iff both transversal
    operators commute with every generator."""
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


def even_support_check(z_supports, x_supports) -> bool:
    """True iff every generator support has even cardinality (the geometric
    parity form of the masking criterion for CSS generator families)."""

    def weight(s) -> int:
        if isinstance(s, int):
            return s.bit_count()
        return sum(1 for b in s if b)

    return all(weight(s) % 2 == 0 for s in list(z_supports) + list(x_supports))


@dataclass(frozen=True)
class DiagonalAction:
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


def apply_diagonal(state: SparseState, phase_per_one: complex, per_qubit=None) -> SparseState:
    """Multiply each basis amplitude by phase^(number of 1 bits), or by the
    product of per-qubit phases over set bits."""
    if per_qubit is None:
        counts = np.bitwise_count(state.keys)
        amps = state.amps * np.asarray(phase_per_one, complex) ** counts
        return SparseState(state.n, state.keys, amps, True)
    if len(per_qubit) != state.n:
        raise ValueError("per-qubit phase list must match the qubit count")
    amps = state.amps.copy()
    for q, ph in enumerate(per_qubit, start=1):
        bit = (state.keys >> np.uint64(q - 1)) & np.uint64(1)
        amps *= np.where(bit == 1, complex(ph), 1.0)
    return SparseState(state.n, state.keys, amps, True)


def diagonal_gate_action(
    code_space: CodeSpace, phase_per_one: complex, per_qubit=None, label: str | None = None
) -> DiagonalAction:
    """Logical effect of a transversal diagonal gate on a code space.

    Leakage is the out-of-code-space norm for the uniform logical
    superposition input; logical phases are reported only when the gate
    preserves the code space.
    """
    if label is None:
        if per_qubit is None:
            label = f"diag({complex(phase_per_one):.4g})^x{code_space.code.n}"
        else:
            label = f"diag(per-qubit)^x{code_space.code.n}"
    basis = code_space.basis
    ref = combine(basis, [1 / np.sqrt(2)] * 2)
    out = apply_diagonal(ref, phase_per_one, per_qubit)
    proj, _ = project_onto(list(basis), out)
    # sqrt(1 - weight) computed as the residual norm: cancellation-free, so
    # an exactly code-space-preserving gate reports leakage 0, not sqrt(eps)
    if proj is None:
        leakage = 1.0
    else:
        leakage = combine([out, proj], [1.0, -1.0]).norm()
    phases = None
    if leakage < LEAKAGE_TOL:
        phases = []
        for b in basis:
            ph = inner(b, apply_diagonal(b, phase_per_one, per_qubit))
            if abs(abs(ph) - 1) > 1e-9:
                raise ValueError("diagonal action is not a pure phase on a basis state")
            phases.append(ph)
        phases = tuple(phases)
    return DiagonalAction(label, leakage, phases)


@dataclass(frozen=True)
class CliffordCorrection:
    logical_s_power: int
    logical_z_power: int
    global_phase: complex

    def as_dict(self) -> dict:
        return {
            "logical_s_power": self.logical_s_power,
            "logical_z_power": self.logical_z_power,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
        }


@lru_cache(maxsize=CODE_CACHE_SIZE)
def clifford_correction_for_t(code_space: CodeSpace) -> CliffordCorrection | None:
    """Diagonal logical Clifford (S-power, Z-power, global phase) turning the
    transversal T action into the exact logical T; None when the transversal
    gate leaks out of the code space or no diagonal correction exists.

    Memoized by code space (its states compare by identity, so the spaces
    that logical_codewords caches hit); the result is frozen."""
    omega = np.exp(1j * np.pi / 4)
    action = diagonal_gate_action(code_space, omega, label="T-transversal")
    if action.logical_phases is None:
        return None
    lam0, lam1 = action.logical_phases
    gamma = 1.0 / lam0
    target = omega * lam0 / lam1
    for z in (0, 1):
        for s in range(4):
            if abs(1j**s * (-1) ** z - target) < PHASE_MATCH_TOL:
                return CliffordCorrection(s, z, complex(gamma))
    return None
