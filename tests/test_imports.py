"""What each entry point imports: the lazy `hqec` exports, which CLI verbs
load numpy, and how many OpenBLAS threads a CLI call leaves running.

The static checks (code listing and validation, the mask criterion, the
CSS criterion, triorthogonality) and every input error must run without
numpy; only the verbs that build states load it.  The CLI calls run in a
fresh interpreter, since this process has numpy loaded already.
"""

import importlib
import json
import subprocess
import sys

import pytest

import hqec
from hqec.codes import builtin_code
from oracles import format_code_text

# the public names of `hqec`, by the submodule that defines each
EXPORTS = {
    "codes": ("BUILTIN_NAMES", "CodeSpace", "StabilizerCode", "builtin_code", "css_from_classical",
              "decode_single_error", "logical_codewords", "syndrome", "validate_code"),
    "compat": ("CompatReport", "DiagonalAction", "clifford_correction_for_t", "css_mask_check",
               "diagonal_gate_action", "resource_report", "stabilizer_mask_check"),
    "gf2": ("BitMatrix", "ClassicalCode", "all_even_weight", "code_from_rows", "code_from_strings",
            "contains", "triorthogonality_check"),
    "pauli": ("PauliOperator", "parse_pauli", "transversal_pauli"),
    "protocol": ("CircuitGate", "KeyRegister", "Transcript", "clifford_key_update", "encrypt",
                 "parse_circuit", "run_circuit", "run_demo_circuit",
                 "run_logical_t_protocol", "run_storage_protocol", "run_transversal_t_protocol"),
    "rng": ("SplitMix64",),
    "states": ("SparseState", "apply_cnot", "apply_pauli", "apply_single",
               "fidelity_up_to_phase", "gate", "swap_qubits", "teleport", "tensor"),
}
HEAVY = ("numpy", "hqec.states", "hqec.protocol")

# runs `prelude`, then each argv through hqec.cli.main in turn, and reports,
# after each, the exit code and which of HEAVY are loaded; at the end, the
# thread count (None without /proc), OPENBLAS_NUM_THREADS and whether the
# environment changed.  The argv lists arrive on stdin
_CHILD = """
import contextlib, io, json, os, sys
{prelude}
import hqec
heavy = {heavy!r}
environ = dict(os.environ)
report = {{"after_import": [m for m in heavy if m in sys.modules]}}
from hqec.cli import main
report["after_cli_import"] = [m for m in heavy if m in sys.modules]
report["calls"] = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    report["calls"].append([rc, [m for m in heavy if m in sys.modules]])
tasks = "/proc/self/task"
report["threads"] = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
report["openblas"] = os.environ.get("OPENBLAS_NUM_THREADS")
report["environ_unchanged"] = dict(os.environ) == environ
print(json.dumps(report))
"""


def _run_child(calls, prelude=""):
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(heavy=HEAVY, prelude=prelude)],
                          input=json.dumps(calls), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestLazyExports:
    @pytest.mark.parametrize("module, name",
                             [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_name_resolves_to_submodule_object(self, module, name):
        want = getattr(importlib.import_module(f"hqec.{module}"), name)
        assert getattr(hqec, name) is want
        namespace = {}
        exec(f"from hqec import {name}", namespace)
        assert namespace[name] is want

    def test_dir_and_all_list_every_export(self):
        names = {n for names in EXPORTS.values() for n in names}
        assert names | set(EXPORTS) <= set(dir(hqec))
        assert set(hqec.__all__) == names

    @pytest.mark.parametrize("module", EXPORTS)
    def test_submodule_attribute(self, module):
        assert getattr(hqec, module) is importlib.import_module(f"hqec.{module}")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hqec.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from hqec import no_such_name", {})

    def test_version(self):
        assert hqec.__version__ == "0.1.0"


def test_static_verbs_and_input_errors_load_no_numpy(tmp_path):
    valid = tmp_path / "shor.code"
    valid.write_text(format_code_text(builtin_code("shor")))
    invalid = tmp_path / "invalid.code"
    invalid.write_text("3 1\nZZI\nIZZ\nXXX\nZZI\n")  # logical Z inside the stabilizer
    c1, c2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    c1.write_text("1000011\n0100101\n0010110\n0001111\n")
    c2.write_text("0001111\n0110011\n1010101\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("11\n1x\n")
    tri = tmp_path / "tri.txt"
    tri.write_text("111111111111111\n000000011111111\n000111100001111\n"
                   "011001100110011\n101010101010101\n")
    calls = [
        (["codes", "list"], 0),
        (["codes", "validate", str(valid)], 0),
        (["codes", "validate", str(invalid)], 1),
        (["check", "theorem1", "--code", "steane"], 0),
        (["check", "theorem1", "--code", "synthetic_incompatible"], 1),
        (["check", "theorem1", "--code", "no_such_code"], 2),
        (["check", "css", "--c1", str(c1), "--c2", str(c2)], 0),
        (["check", "css", "--c1", str(bad), "--c2", str(c2)], 2),
        (["check", "triortho", "--matrix", str(tri)], 0),
        (["check", "triortho", "--matrix", str(tmp_path / "missing.txt")], 2),
        (["report", "resources", "--n", "9"], 0),
        (["frobnicate"], 2),
        (["run", "storage", "--code", "shor", "--keys", "2,0"], 2),
        (["run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8",
          "--force-outcomes", "00"], 2),
    ]
    argvs = [argv + ["--json"] if argv != ["frobnicate"] else argv for argv, _ in calls]
    report = _run_child(argvs + [["run", "a1", "--seed", "3", "--json"]])
    assert report["after_import"] == []
    assert report["after_cli_import"] == []
    for (argv, want_rc), (rc, loaded) in zip(calls, report["calls"]):
        assert (rc, loaded) == (want_rc, []), argv
    # the check is not vacuous: a verb that builds states does load them
    assert report["calls"][-1] == [0, list(HEAVY)]


def test_import_hqec_loads_no_submodule():
    code = ("import json, sys, hqec; print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('hqec.'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == []


class TestOpenblasCap:
    """main() caps OpenBLAS at one thread before a verb loads numpy, unless
    the user set OPENBLAS_NUM_THREADS or numpy was loaded first."""

    A1 = [["run", "a1", "--seed", "3", "--json"]]

    def test_run_verb_ends_with_one_thread(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        report = _run_child(self.A1)
        assert report["calls"] == [[0, list(HEAVY)]]
        assert report["openblas"] == "1"
        if report["threads"] is None:
            pytest.skip("no /proc/self/task to count threads")
        assert report["threads"] == 1

    def test_user_setting_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        report = _run_child(self.A1)
        assert report["calls"] == [[0, list(HEAVY)]]
        assert report["openblas"] == "2" and report["environ_unchanged"]

    def test_numpy_loaded_first_is_left_alone(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        report = _run_child(self.A1, prelude="import numpy")
        assert report["after_import"] == ["numpy"]
        assert report["calls"] == [[0, list(HEAVY)]]
        assert report["openblas"] is None and report["environ_unchanged"]
