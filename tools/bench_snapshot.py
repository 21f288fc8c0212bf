"""Write BENCH_<PR>.json: a snapshot of where hqec spends its time.

    python tools/bench_snapshot.py --pr 27 [--label TEXT] [--out PATH]
        [--repeat 5] [--number 200] [--cli-runs 11] [--profile-calls 500]
        [--base REV]

The snapshot has three parts, and a fourth with ``--base``:

* ``runners``: each protocol runner called in-process, and the cold
  code analysis (``codes_analysis``: parse, validate, mask check,
  codewords, T action and T correction of qubit-permuted steane, rm15 and
  shor texts, with the per-code caches cleared first), the best of
  ``repeat`` timeit calls of ``number`` runs each, in microseconds per run,
  with ``yardstick_us`` beside it: the best time of a fixed pure-Python
  loop (``yardstick``) timed the same way just before that runner, so a
  runner's time can be read relative to the host's speed at that moment;
* ``cli``: the median wall time of fresh ``python -m hqec.cli`` processes
  (five verbs and two input errors, each held to its exit code in
  ``CLI_CALLS``), with ``python -c pass`` beside them as the host's
  interpreter start-up;
* ``profile``: per runner, the cProfile self time of every function under
  src/hqec as a share of all profiled time, with its calls per run.
  Comprehension and lambda frames (``<listcomp>``, ``<genexpr>``, ...)
  count as self time of the function whose body holds them;
* ``base`` (with ``--base REV``): an interleaved A/B run of the same
  runners against the commit REV.  REV is checked out with ``git worktree
  add`` into a temporary directory (local, no network) and removed at the
  end.  One worker process per tree, each importing its own src/, times
  batches of ``number`` calls (each batch after one untimed call), runner
  by runner, over AB_ROUNDS rounds, the two trees in the order A B in even
  rounds and B A in odd ones.  Per runner it records every batch's
  microseconds per call and the change/base time ratio of each round: its
  median and quartiles, and the rounds the change won (ratio below 1).
  The same summary is printed.

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
import shutil
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "hqec"
AB_ROUNDS = 20  # interleaved rounds of the --base run

# name -> (argv after "python -m hqec.cli", the exit code it must give); the
# input errors time a call that stops before it reads a code
CLI_CALLS = {
    "codes list": (["codes", "list", "--json"], 0),
    "run storage rm15": (["run", "storage", "--code", "rm15", "--keys", "1,1", "--error", "IIIIIIIIIIXIIII",
                          "--json"], 0),
    "run transversal-t": (["run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8", "--seed", "3",
                           "--json"], 0),
    "run logical-t": (["run", "logical-t", "--keys", "1,0", "--amps", "0.6,0,0,0.8", "--seed", "3",
                       "--json"], 0),
    "run a1": (["run", "a1", "--seed", "5", "--json"], 0),
    "frobnicate": (["frobnicate"], 2),
    "run storage --keys 2,0": (["run", "storage", "--code", "shor", "--keys", "2,0", "--json"], 2),
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
        "storage_bit_flip": lambda: run_storage_protocol("bit_flip", (0.6, 0.8), (1, 0), "IXI"),
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
    calls = {"python -c pass": ([sys.executable, "-c", "pass"], 0)}
    calls.update({name: ([sys.executable, "-m", "hqec.cli", *argv], rc) for name, (argv, rc) in CLI_CALLS.items()})
    wall = {name: [] for name in calls}
    for _ in range(runs):  # round robin, so drift on the host hits every call alike
        for name, (argv, want_rc) in calls.items():
            start = timeit.default_timer()
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
            wall[name].append((timeit.default_timer() - start) * 1e3)
            if proc.returncode != want_rc:
                raise RuntimeError(f"{name} exited {proc.returncode}, not {want_rc}: {proc.stderr.strip()}")
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


def start_worker(tree: Path) -> tuple:
    """(process, hello) of a worker serving the runners of tree/src; the
    hello names its pid and the hqec it imported."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # only tree/src on the path
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--worker", str(tree / "src")],
                            cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    return proc, read_reply(proc, tree)


def read_reply(proc, tree: Path):
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"the worker for {tree} exited {proc.wait()}")
    return json.loads(line)


def serve(src: str) -> int:
    """The worker's loop: each stdin line "NAME NUMBER" is answered with the
    seconds that NUMBER calls of runner NAME took, after one untimed call."""
    sys.path.insert(0, src)
    calls = runners()
    import hqec

    print(json.dumps({"pid": os.getpid(), "hqec": hqec.__file__, "runners": list(calls)}), flush=True)
    for line in sys.stdin:
        name, number = line.split()
        calls[name]()
        print(json.dumps(timeit.timeit(calls[name], number=int(number))), flush=True)
    return 0


def ab_compare(rev: str, number: int) -> dict:
    """The ``base`` part: this checkout (the change) against a worktree of rev."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
    tree = tmp / "tree"
    workers = {}
    try:
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), rev], cwd=ROOT, check=True)
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True,
                                check=True).stdout.strip()
        trees = {"base": tree, "change": ROOT}
        for side in trees:
            workers[side] = start_worker(trees[side])
        names = workers["change"][1]["runners"]
        us = {side: {name: [] for name in names} for side in trees}
        for r in range(AB_ROUNDS):
            for name in names:
                for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
                    proc = workers[side][0]
                    proc.stdin.write(f"{name} {number}\n")
                    proc.stdin.flush()
                    us[side][name].append(read_reply(proc, trees[side]) / number * 1e6)
    finally:
        for proc, _ in workers.values():
            proc.stdin.close()
            proc.wait(timeout=60)
        if tree.exists():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True)
        shutil.rmtree(tmp, ignore_errors=True)
    out = {}
    for name in names:
        base_us, change_us = us["base"][name], us["change"][name]
        ratios = [c / b for b, c in zip(base_us, change_us)]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        out[name] = {"ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
                     "won": sum(r < 1 for r in ratios), "base_us": base_us, "change_us": change_us}
    return {"rev": rev, "commit": commit, "rounds": AB_ROUNDS, "number": number,
            "workers": {side: {k: hello[k] for k in ("pid", "hqec")} for side, (_, hello) in workers.items()},
            "ratio": "change time / base time per round", "runners": out}


def print_ab(ab: dict) -> None:
    print(f"A/B against {ab['rev']} ({ab['commit'][:12]}): {ab['rounds']} rounds of {ab['number']} calls, "
          f"time ratio change/base")
    print(f"  {'runner':<16}{'median':>8}{'q1':>8}{'q3':>8}  won")
    for name, r in ab["runners"].items():
        print(f"  {name:<16}{r['ratio_median']:8.3f}{r['ratio_q1']:8.3f}{r['ratio_q3']:8.3f}  "
              f"{r['won']}/{ab['rounds']}")


def git_commit() -> str | None:
    """The checkout's commit, with "-dirty" when src/ or tools/ differ from
    it: the code measured and the script measuring it.  Other files, notes
    at the root included, leave a snapshot clean."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--abbrev=12"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip()
        if not commit:
            return None
        diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src", "tools"], cwd=ROOT)
    except OSError:
        return None
    return commit + ("-dirty" if diff.returncode else "")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # started by start_worker, not by hand
        return serve(argv[1])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number for the file name BENCH_<PR>.json")
    ap.add_argument("--label", default="", help="free text saying which tree was measured")
    ap.add_argument("--out", type=Path, help="output path (default: BENCH_<PR>.json at the repo root)")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=200)
    ap.add_argument("--cli-runs", type=int, default=11)
    ap.add_argument("--profile-calls", type=int, default=500)
    ap.add_argument("--base", metavar="REV", help="also time the runners A/B against commit REV")
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
    if args.base:
        snapshot["base"] = ab_compare(args.base, args.number)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    if args.base:
        print_ab(snapshot["base"])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
