"""Stabilizer-code compatibility checks for transversal Pauli masking and
exact sparse simulation of the masked storage and computation protocols."""

from .codes import (
    BUILTIN_NAMES,
    CodeSpace,
    StabilizerCode,
    builtin_code,
    css_from_classical,
    decode_single_error,
    logical_codewords,
    syndrome,
    validate_code,
)
from .compat import (
    CompatReport,
    DiagonalAction,
    clifford_correction_for_t,
    css_mask_check,
    diagonal_gate_action,
    even_support_check,
    stabilizer_mask_check,
)
from .gf2 import (
    BitMatrix,
    ClassicalCode,
    all_even_weight,
    code_from_rows,
    code_from_strings,
    contains,
    coset_state,
    enumerate_codewords,
    triorthogonality_check,
    weight_mod,
)
from .pauli import PauliOperator, parse_pauli, transversal_pauli
from .protocol import (
    CircuitGate,
    KeyRegister,
    Transcript,
    clifford_key_update,
    encrypt,
    parse_circuit,
    resource_report,
    run_circuit,
    run_demo_circuit,
    run_logical_t_protocol,
    run_storage_protocol,
    run_transversal_t_protocol,
    t_byproduct,
)
from .rng import SplitMix64
from .states import (
    SparseState,
    apply_cnot,
    apply_pauli,
    apply_single,
    bell_pair,
    fidelity_up_to_phase,
    gate,
    project_onto,
    swap_qubits,
    teleport,
    tensor,
)

__version__ = "0.1.0"
