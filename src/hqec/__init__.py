"""Stabilizer-code compatibility checks for transversal Pauli masking and
exact sparse simulation of the masked storage and computation protocols.

Each public name is imported from the submodule that defines it.  The
submodules resolve lazily (PEP 562): ``import hqec`` loads none.  The
builtin code names, the demo circuit's text (parsed by ``protocol``) and
the register-cost report are defined here, so the CLI refuses an unknown
name or a wrong-length ``run a1 --force-outcomes`` and answers ``report
resources`` without loading a submodule.  No module imports numpy: the
sparse states are Python ints and tuples.
"""

from importlib import import_module
from typing import NamedTuple

BUILTIN_NAMES = ("bit_flip", "phase_flip", "shor", "steane", "rm15", "synthetic_incompatible")
DEMO_CIRCUIT_TEXT = "H1 T1 Td2 S2"  # run a1's circuit, parsed by protocol
__version__ = "0.1.0"
_SUBMODULES = ("codes", "compat", "gf2", "pauli", "protocol", "rng", "states")  # resolved lazily


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


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(f"{__name__}.{name}")
