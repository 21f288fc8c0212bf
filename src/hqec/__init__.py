"""Stabilizer-code compatibility checks for transversal Pauli masking and
exact sparse simulation of the masked storage and computation protocols.

The names below, and the submodules that define them, resolve lazily
(PEP 562): ``import hqec`` loads no submodule, and ``hqec.<name>`` or
``from hqec import <name>`` imports the submodule that defines the name on
first use.  ``BUILTIN_NAMES`` (the builtin code names) and ``resource_report``
are defined here and re-exported by ``codes`` and ``compat``, and the demo
circuit's text ``DEMO_CIRCUIT_TEXT`` is defined here and parsed by
``protocol``, so the CLI refuses an unknown name or a wrong-length
``run a1 --force-outcomes`` and answers ``report resources`` without
loading a submodule.  No module imports numpy: the sparse states are
Python ints and tuples, and the GF(2) and Pauli algebra (``gf2``,
``pauli``, ``codes``, ``compat``) runs without loading them.
"""

from importlib import import_module
from typing import NamedTuple

BUILTIN_NAMES = ("bit_flip", "phase_flip", "shor", "steane", "rm15", "synthetic_incompatible")
DEMO_CIRCUIT_TEXT = "H1 T1 Td2 S2"  # run a1's circuit, parsed by protocol


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


_EXPORTS = {
    "codes": (
        "CodeSpace",
        "StabilizerCode",
        "builtin_code",
        "css_from_classical",
        "decode_single_error",
        "logical_codewords",
        "syndrome",
        "validate_code",
    ),
    "compat": (
        "CompatReport",
        "DiagonalAction",
        "clifford_correction_for_t",
        "css_mask_check",
        "diagonal_gate_action",
        "stabilizer_mask_check",
    ),
    "gf2": (
        "BitMatrix",
        "ClassicalCode",
        "all_even_weight",
        "code_from_rows",
        "code_from_strings",
        "contains",
        "triorthogonality_check",
    ),
    "pauli": ("PauliOperator", "parse_pauli", "transversal_pauli"),
    "protocol": (
        "CircuitGate",
        "KeyRegister",
        "Transcript",
        "clifford_key_update",
        "encrypt",
        "parse_circuit",
        "run_circuit",
        "run_demo_circuit",
        "run_logical_t_protocol",
        "run_storage_protocol",
        "run_transversal_t_protocol",
    ),
    "rng": ("SplitMix64",),
    "states": (
        "SparseState",
        "apply_cnot",
        "apply_pauli",
        "apply_single",
        "fidelity_up_to_phase",
        "gate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "BUILTIN_NAMES", "resource_report"])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
