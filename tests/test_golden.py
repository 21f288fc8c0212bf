"""Golden CLI calls: argv, exit code, stdout and stderr, pinned byte for byte.

The calls cover `run storage` on every mask-compatible builtin over all four
keys, with and without a single error, plus the refusal of the incompatible
code; `check theorem1` and `check diagonal --gate T` on every builtin; and
`run a1`, `transversal-t` and `logical-t` at two fixed seeds.  Each call runs
in-process through `hqec.cli.main` with `--json`.

    PYTHONPATH=src python tests/test_golden.py

rewrites tests/data/cli_golden.json from the current sources.  Do that only
for a change that is meant to alter the output, and say so with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from hqec.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

BUILTINS = ("bit_flip", "phase_flip", "shor", "steane", "rm15", "synthetic_incompatible")
KEYS = ("0,0", "0,1", "1,0", "1,1")
# one single-qubit error per compatible code, of a kind that code corrects
STORAGE_ERRORS = {
    "bit_flip": "IXI",
    "phase_flip": "IYI",
    "shor": "IIIIZIIII",
    "steane": "IIYIIII",
    "rm15": "IIIIIIIIIIXIIII",
}
SEEDS = ("5", "11")
AMPS = "0.6,0,0,0.8"


def calls() -> list[list[str]]:
    out = []
    for name, error in STORAGE_ERRORS.items():
        for keys in KEYS:
            for err in ("none", error):
                out.append(["run", "storage", "--code", name, "--keys", keys, "--error", err])
    out.append(["run", "storage", "--code", "synthetic_incompatible", "--keys", "1,1"])
    for name in BUILTINS:
        out.append(["check", "theorem1", "--code", name])
        out.append(["check", "diagonal", "--code", name, "--gate", "T"])
    for seed in SEEDS:
        out.append(["run", "a1", "--seed", seed])
        for keys in KEYS:
            for verb in ("transversal-t", "logical-t"):
                out.append(["run", verb, "--keys", keys, "--amps", AMPS, "--seed", seed])
    return [argv + ["--json"] for argv in out]


def run_call(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def test_cli_output_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == calls()
    differing = [" ".join(entry["argv"]) for entry in golden if run_call(entry["argv"]) != entry]
    assert not differing, f"{len(differing)} of {len(golden)} calls differ, first: {differing[:3]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run_call(argv) for argv in calls()], indent=1) + "\n")
    print(f"wrote {GOLDEN}")
