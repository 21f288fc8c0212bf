"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of hqec where their callers look them up:
every hqec module attribute bound to the original function, and the class
attribute for methods.  Each wrapper counts calls and self time (its span
minus the spans of wrapped functions it called), and the states-layer
wrappers also record the largest state seen at their boundaries.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions traced in it; "_kernels" is reported as "kernels"
# because metric names start with a letter
LAYERS = {
    "pauli": ("parse_pauli", "PauliOperator.commutes", "PauliOperator.multiply",
              "PauliOperator.to_string"),
    "gf2": ("rref", "coset_state", "triorthogonality_check"),
    "codes": ("builtin_code", "parse_code_text", "validate_code", "logical_codewords",
              "decode_single_error", "syndrome"),
    "compat": ("stabilizer_mask_check", "css_mask_check", "diagonal_gate_action",
               "clifford_correction_for_t"),
    "states": ("tensor", "swap_qubits", "apply_single", "apply_pauli", "combine", "inner",
               "rotated_bell_measure"),
    "protocol": ("run_demo_circuit", "run_storage_protocol", "run_transversal_t_protocol",
                 "run_logical_t_protocol", "evaluate_circuit", "decrypt", "measured_syndrome"),
    "_kernels": ("coalesce64", "popcount64", "and_popcount64"),
}


def metric_prefixes() -> list[str]:
    return [f"{layer.lstrip('_')}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self, state_type):
        self.state_type = state_type
        self.active = False
        # name -> [calls, scaled self seconds, raw self seconds of the open operation]
        self.stats: dict[str, list] = {p: [0, 0.0, 0.0] for p in metric_prefixes()}
        self.skipped: list[str] = []
        self.peak_terms = 0
        self.peak_qubits = 0
        self._children: list[float] = []  # child span time of each open wrapped call

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hqec" or name.startswith("hqec."))]
        for layer, fns in LAYERS.items():
            owner_module = sys.modules.get(f"hqec.{layer}")
            for fn in fns:
                key = f"{layer.lstrip('_')}.{fn}"
                owner, attr = owner_module, fn
                if "." in fn:
                    cls, attr = fn.split(".")
                    owner = getattr(owner_module, cls, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.skipped.append(key)
                    continue
                wrapper = self._wrap(key, original, watch=layer == "states")
                if owner is not owner_module:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def settle(self, factor: float) -> None:
        """Fold the operation just traced into the totals, scaled like its wall time."""
        for stat in self.stats.values():
            stat[1] += stat[2] * factor
            stat[2] = 0.0

    def _watch(self, values) -> None:
        for v in values:
            if isinstance(v, tuple):
                self._watch(v)
            elif isinstance(v, self.state_type):
                self.peak_terms = max(self.peak_terms, v.num_terms)
                self.peak_qubits = max(self.peak_qubits, v.n)

    def _wrap(self, key: str, fn, watch: bool):
        stat = self.stats[key]
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                stat[0] += 1
                stat[2] += span - children.pop()
                if children:
                    children[-1] += span
            if watch:
                self._watch(args)
                self._watch((out,))
            return out

        return wrapper
