"""Write BENCH_<PR>.json: a snapshot of where hqec spends its time.

    python tools/bench_snapshot.py --pr 27 [--label TEXT] [--out PATH]
        [--repeat 5] [--number 200] [--cli-runs 11] [--profile-calls 500]

The snapshot has three parts:

* ``runners``: each protocol runner called in-process, and the cold
  code analysis (``codes_analysis``: parse, validate, mask check,
  codewords, T action and T correction of qubit-permuted steane, rm15 and
  shor texts, with the per-code caches cleared first), the best of
  ``repeat`` timeit calls of ``number`` runs each, in microseconds per run,
  with ``yardstick_us`` beside it: the best time of a fixed pure-Python
  loop (``yardstick``) timed the same way just before that runner, so a
  runner's time can be read relative to the host's speed at that moment;
* ``cli``: the median wall time of fresh ``python -m hqec.cli`` processes,
  with ``python -c pass`` beside them as the host's interpreter start-up;
* ``profile``: per runner, the cProfile self time of every function under
  src/hqec as a share of all profiled time, with its calls per run.
  Comprehension and lambda frames (``<listcomp>``, ``<genexpr>``, ...)
  count as self time of the function whose body holds them.

Plain timings and profiled shares come from separate runs and are never
mixed: profiling makes each run two to three times slower.  The hqec
measured is the one in the src/ directory beside this script's tools/, so a
copy of the script in another checkout measures that checkout.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import json
import os
import platform
import pstats
import random
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "hqec"

# (argv after "python -m hqec.cli"); each must exit 0
CLI_CALLS = {
    "codes list": ["codes", "list", "--json"],
    "run storage rm15": ["run", "storage", "--code", "rm15", "--keys", "1,1", "--error", "IIIIIIIIIIXIIII",
                         "--json"],
    "run transversal-t": ["run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8", "--seed", "3",
                          "--json"],
    "run logical-t": ["run", "logical-t", "--keys", "1,0", "--amps", "0.6,0,0,0.8", "--seed", "3", "--json"],
    "run a1": ["run", "a1", "--seed", "5", "--json"],
}


def permuted_code_text(name: str) -> str:
    """A builtin code as code-file text, its qubits in an order shuffled by
    a generator seeded with n."""
    from hqec.codes import builtin_code

    code = builtin_code(name)
    order = list(range(code.n))
    random.Random(code.n).shuffle(order)
    lines = [f"{code.n} {code.k}"]
    for p in code.generators + code.logical_x + code.logical_z:
        text = p.to_string()
        cut = len(text) - p.n  # the sign prefix comes before the letters
        lines.append(text[:cut] + "".join(text[cut + q] for q in order))
    return "\n".join(lines) + "\n"


def codes_analysis():
    """A call that analyses permuted steane, rm15 and shor texts from
    parsing to the T correction, with every per-code cache on that path
    cleared first, so no call reuses another's work."""
    from hqec import codes, compat

    texts = [permuted_code_text(name) for name in ("steane", "rm15", "shor")]
    caches = (codes.validate_code, compat.stabilizer_mask_check, codes.logical_codewords,
              compat._diagonal_action)

    def call():
        for cache in caches:
            cache.cache_clear()
        for text in texts:
            code = codes.parse_code_text(text)
            codes.validate_code(code)
            compat.stabilizer_mask_check(code)
            space = codes.logical_codewords(code)
            compat.diagonal_gate_action(space, compat.OMEGA, label="T")
            compat.clifford_correction_for_t(space)

    return call


def runners() -> dict:
    """name -> a call of one runner on fixed inputs, each with its own seed;
    codes_analysis comes last, as it empties the caches the others fill."""
    from hqec.protocol import (
        run_demo_circuit,
        run_logical_t_protocol,
        run_storage_protocol,
        run_transversal_t_protocol,
    )
    from hqec.rng import SplitMix64

    return {
        "transversal_t": lambda: run_transversal_t_protocol((0.6, 0.8j), (1, 1), SplitMix64(3)),
        "logical_t": lambda: run_logical_t_protocol((0.6, 0.8j), (1, 0), SplitMix64(3)),
        "demo": lambda: run_demo_circuit(SplitMix64(5)),
        "storage_shor": lambda: run_storage_protocol("shor", (0.6, 0.8), (0, 1), "IIIIZIIII"),
        "storage_rm15": lambda: run_storage_protocol("rm15", (0.6, 0.8j), (1, 1), "IIIIIIIIIIXIIII"),
        "codes_analysis": codes_analysis(),
    }


def yardstick() -> int:
    """A fixed pure-Python loop (int arithmetic, a dict and a list) that no
    hqec change touches, timed beside each runner as the host's speed."""
    acc, seen = 0, {}
    for i in range(400):
        acc = (acc * 31 + i) & 0xFFFF
        seen[acc & 63] = seen.get(acc & 63, 0) + 1
    return acc + len(sorted(seen.values()))


def time_runners(calls: dict, repeat: int, number: int) -> dict:
    out = {}
    for name, call in calls.items():
        call()  # fill the per-code caches first
        stick = min(timeit.repeat(yardstick, repeat=repeat, number=number))
        runs = timeit.repeat(call, repeat=repeat, number=number)
        out[name] = {"best_us": min(runs) / number * 1e6, "all_us": [r / number * 1e6 for r in runs],
                     "yardstick_us": stick / number * 1e6}
    return out


def time_cli(runs: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argvs = {"python -c pass": [sys.executable, "-c", "pass"]}
    argvs.update({name: [sys.executable, "-m", "hqec.cli", *argv] for name, argv in CLI_CALLS.items()})
    wall = {name: [] for name in argvs}
    for _ in range(runs):  # round robin, so drift on the host hits every call alike
        for name, argv in argvs.items():
            start = timeit.default_timer()
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
            wall[name].append((timeit.default_timer() - start) * 1e3)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
    return {
        "runs": runs,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "median_ms": {name: statistics.median(ms) for name, ms in wall.items()},
    }


def function_spans() -> dict:
    """path -> [(first line, last line, dotted name)] of every def under
    src/hqec, decorators included, the dotted name as module.Class.function."""
    spans = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = []

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found.append((first, child.end_lineno, name))
                    walk(child, name)

        walk(ast.parse(path.read_text()), path.stem)
        spans[str(path.resolve())] = found
    return spans


def enclosing(spans: list, line: int) -> str | None:
    """The innermost def whose lines hold `line`."""
    best = None
    for first, last, name in spans:
        if first <= line <= last and (best is None or first >= best[0]):
            best = (first, name)
    return None if best is None else best[1]


def profile_runners(calls: dict, number: int) -> dict:
    spans = function_spans()
    out = {}
    for name, call in calls.items():
        call()
        prof = cProfile.Profile()
        prof.enable()
        for _ in range(number):
            call()
        prof.disable()
        stats = pstats.Stats(prof).stats
        total = sum(tt for _, _, tt, _, _ in stats.values())
        funcs = {}
        for (path, line, func), (_, calls_, tt, _, _) in stats.items():
            file_spans = spans.get(str(Path(path).resolve())) if path.endswith(".py") else None
            if file_spans is None:
                continue
            owner = enclosing(file_spans, line)
            if owner is None:  # module-level code, run only at import
                continue
            entry = funcs.setdefault(owner, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += tt
            if not func.startswith("<"):
                entry["calls"] += calls_
        src = sum(e["self_s"] for e in funcs.values())
        out[name] = {
            "profiled_ms_per_run": total / number * 1e3,
            "src_share": src / total,
            "functions": {
                f: {"self_share": e["self_s"] / total, "calls_per_run": e["calls"] / number}
                for f, e in sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])
            },
        }
    return out


def git_commit() -> str | None:
    """The checkout's commit, with "-dirty" when its tracked files differ from it."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number for the file name BENCH_<PR>.json")
    ap.add_argument("--label", default="", help="free text saying which tree was measured")
    ap.add_argument("--out", type=Path, help="output path (default: BENCH_<PR>.json at the repo root)")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=200)
    ap.add_argument("--cli-runs", type=int, default=11)
    ap.add_argument("--profile-calls", type=int, default=500)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    calls = runners()
    snapshot = {
        "pr": args.pr,
        "label": args.label,
        "commit": git_commit(),
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "runners": {"repeat": args.repeat, "number": args.number,
                    "us_per_run": time_runners(calls, args.repeat, args.number)},
        "cli": time_cli(args.cli_runs),
        "profile": {"runs": args.profile_calls, "runners": profile_runners(calls, args.profile_calls)},
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
