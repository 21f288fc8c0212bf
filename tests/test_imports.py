"""What each entry point imports: the `hqec` package, whose submodules
resolve lazily and which resolves no name of theirs, and which modules
each CLI verb loads.

No verb loads numpy.  The static checks (code listing and validation, the
mask criterion, the CSS criterion, triorthogonality) and every input error
run without the sparse-state layer too; only the verbs that build states
load it.  `import hqec.cli` loads no library module, a verb loads the ones
it uses, and an input error caught before a code or matrix is read loads
none.  The CLI calls run in a fresh interpreter, since this process has
numpy loaded already, and the per-call pins run each call in its own.
"""

import importlib
import json
import subprocess
import sys

import pytest

import hqec
from hqec.codes import builtin_code
from oracles import format_code_text

SUBMODULES = ("codes", "compat", "gf2", "pauli", "protocol", "rng", "states")
HEAVY = ("numpy", "hqec.states", "hqec.protocol")

# imports hqec, then runs each argv through hqec.cli.main in turn, and
# reports, after each, the exit code and which of HEAVY are loaded.  The
# argv lists arrive on stdin
_CHILD = """
import contextlib, io, json, sys
import hqec
heavy = {heavy!r}
report = {{"after_import": [m for m in heavy if m in sys.modules]}}
from hqec.cli import main
report["after_cli_import"] = [m for m in heavy if m in sys.modules]
report["calls"] = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    report["calls"].append([rc, [m for m in heavy if m in sys.modules]])
print(json.dumps(report))
"""


def _run_child(calls):
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(heavy=HEAVY)],
                          input=json.dumps(calls), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestLazyExports:
    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodule_attribute(self, module):
        assert getattr(hqec, module) is importlib.import_module(f"hqec.{module}")

    def test_unknown_attribute_raises(self):
        # a submodule's public name is imported from that submodule alone
        assert hqec.protocol.run_circuit
        for name in ("no_such_name", "run_circuit"):
            with pytest.raises(AttributeError, match=f"^module 'hqec' has no attribute '{name}'$"):
                getattr(hqec, name)
            with pytest.raises(ImportError, match=f"^cannot import name '{name}' from 'hqec'"):
                exec(f"from hqec import {name}", {})

    def test_version(self):
        assert hqec.__version__ == "0.1.0"


@pytest.fixture
def static_calls(tmp_path):
    """(argv, exit code) of the static verbs and of input errors."""
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
    return [
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


# the verbs that build states, each with an outcome of every exit code they give
STATE_CALLS = [
    (["run", "a1", "--seed", "3"], 0),
    (["run", "storage", "--code", "shor", "--keys", "1,0", "--error", "IIIIZIIII"], 0),
    (["run", "storage", "--code", "synthetic_incompatible", "--keys", "1,1"], 1),
    (["run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8", "--seed", "3"], 0),
    (["run", "logical-t", "--keys", "1,0", "--amps", "0.6,0,0,0.8", "--seed", "3"], 0),
    (["check", "diagonal", "--code", "rm15", "--gate", "T"], 0),
    (["check", "diagonal", "--code", "shor", "--gate", "T"], 1),
]


def _json_argvs(calls):
    return [argv + ["--json"] if argv != ["frobnicate"] else argv for argv, _ in calls]


def test_static_verbs_and_input_errors_load_no_numpy(static_calls):
    report = _run_child(_json_argvs(static_calls + STATE_CALLS[:1]))
    assert report["after_import"] == []
    assert report["after_cli_import"] == []
    for (argv, want_rc), (rc, loaded) in zip(static_calls, report["calls"]):
        assert (rc, loaded) == (want_rc, []), argv
    # the check is not vacuous: a verb that builds states does load them
    assert report["calls"][-1] == [0, ["hqec.states", "hqec.protocol"]]


def test_every_verb_loads_no_numpy(static_calls):
    calls = static_calls + STATE_CALLS
    report = _run_child(_json_argvs(calls))
    for (argv, want_rc), (rc, loaded) in zip(calls, report["calls"]):
        assert rc == want_rc and "numpy" not in loaded, argv
    assert len(report["calls"]) == len(calls)


def test_import_hqec_loads_no_submodule():
    code = ("import json, sys, hqec; print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('hqec.'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == []


# runs hqec.cli.main on its arguments and prints, as its last line, the exit
# code and the loaded hqec submodules, dataclasses and json
_FRESH = """
import sys
from hqec.cli import main
rc = main(sys.argv[1:])
print(rc, *sorted(m for m in sys.modules if m.startswith("hqec.") or m in ("dataclasses", "json")))
"""


def _fresh_call(argv):
    """(exit code, loaded modules, stderr) of one CLI call in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _FRESH, *argv], capture_output=True, text=True,
                          check=True)
    rc, *loaded = proc.stdout.splitlines()[-1].split()
    return int(rc), set(loaded), proc.stderr


@pytest.fixture
def files(tmp_path):
    """Input files by name; `missing` names no file."""
    paths = {name: tmp_path / f"{name}.txt" for name in ("missing", "bad", "tri", "valid")}
    paths["bad"].write_text("11\n1x\n")
    paths["tri"].write_text("111111111111111\n000000011111111\n000111100001111\n"
                            "011001100110011\n101010101010101\n")
    paths["valid"].write_text(format_code_text(builtin_code("shor")))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["check", "triortho", "--matrix", "{missing}", "--json"],
    ["run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8", "--force-outcomes", "00",
     "--json"],
    ["run", "storage", "--code", "shor", "--keys", "2,0", "--json"],
    ["run", "a1", "--seed", "-1", "--json"],
    ["run", "a1", "--force-outcomes", "0", "--json"],
    ["check", "theorem1", "--code", "no_such_code", "--json"],
    ["check", "diagonal", "--code", "{missing}", "--gate", "T", "--json"],
    ["run", "storage", "--code", "{missing}", "--keys", "1,0", "--json"],
    ["codes", "validate", "{missing}", "--json"],
])
def test_input_errors_before_a_code_load_no_library_module(argv, files):
    # nor dataclasses: the seed is checked first, and its generator is
    # built only once every argument has passed; an unknown code name is
    # refused from hqec.BUILTIN_NAMES, without the codes module, and run
    # a1's --force-outcomes length comes from hqec.DEMO_CIRCUIT_TEXT,
    # without protocol
    rc, loaded, err = _fresh_call([a.format(**files) for a in argv])
    assert (rc, loaded) == (2, {"hqec.cli"})
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["report", "resources", "--n", "9"],
                                  ["report", "resources", "--n", "9", "--json"]])
def test_report_resources_loads_no_library_module(argv):
    # resource_report is the package's: arithmetic on n, with no code,
    # state or compat module behind it; json only for the JSON report
    rc, loaded, _ = _fresh_call(argv)
    assert (rc, loaded) == (0, {"hqec.cli"} | ({"json"} if "--json" in argv else set()))


@pytest.mark.parametrize("argv, want_rc", [
    (["check", "triortho", "--matrix", "{tri}"], 0),
    (["check", "triortho", "--matrix", "{tri}", "--json"], 0),
    (["check", "triortho", "--matrix", "{bad}", "--json"], 2),
    (["check", "css", "--c1", "{bad}", "--c2", "{tri}", "--json"], 2),
])
def test_matrix_verbs_load_gf2_alone(argv, want_rc, files):
    # and json only when a report is printed as JSON
    rc, loaded, _ = _fresh_call([a.format(**files) for a in argv])
    want = {"hqec.cli", "hqec.gf2", "dataclasses"} | ({"json"} if rc == 0 and "--json" in argv else set())
    assert (rc, loaded) == (want_rc, want)


@pytest.mark.parametrize("argv", [["codes", "list", "--json"], ["codes", "validate", "{valid}"]])
def test_codes_verbs_load_no_compat_or_rng(argv, files):
    rc, loaded, _ = _fresh_call([a.format(**files) for a in argv])
    assert rc == 0 and "hqec.codes" in loaded
    assert not loaded & {"hqec.compat", "hqec.rng", "hqec.states", "hqec.protocol"}


def test_protocol_error_still_exits_one():
    # main matches ValueError and OSError first, and reaches compat's
    # ProtocolError only for an error that is neither
    rc, loaded, err = _fresh_call(["run", "storage", "--code", "synthetic_incompatible",
                                   "--keys", "1,1"])
    assert rc == 1 and "hqec.compat" in loaded
    assert err.startswith("error: synthetic_incompatible is not mask-compatible")
    assert "Traceback" not in err


def test_import_cli_loads_no_library_module():
    code = ("import sys, hqec.cli; print(*sorted(m for m in sys.modules "
            "if m.startswith('hqec.') or m in ('dataclasses', 'json', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["hqec.cli"]
