"""hqec benchmark: one closed-loop client per workload, every output checked.

    python3 perfbench/run.py --workload teleport --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; hqec is imported from its ``src``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones from a run with
wrapped hqec functions.  A run attempts a fixed number of whole rounds,
sized from --seconds, so attempted and failed never vary.

Times are scaled to the host's nominal speed: a fixed yardstick runs
between operations, and each operation's time is multiplied by the
yardstick's nominal time over its time around it.  In-process work is
scaled by a short interpreter-and-numpy loop; fresh interpreters (the cli
calls and the set-up probes) by starting a bare one.  README.md says why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from reference import CheckFailed
from tracer import Tracer
from workloads import OpFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
LAYER_MODULES = ("pauli", "gf2", "codes", "compat", "states", "protocol", "cli", "rng", "_kernels")
DETAILS = {0: "perfbench-result.json", 1: "perfbench-trace.json"}
# the yardsticks' times in a fast phase of the reference machine (README)
YARDSTICK_NOMINAL_S = 0.8e-3
SPAWN_YARDSTICK_NOMINAL_S = 15e-3
_YARD_KEYS = np.arange(64, dtype=np.uint64)


class Program:
    """The hqec modules, imported from the checkout's src."""

    def __init__(self):
        if not (SRC / "hqec" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no hqec sources under {SRC}")
        sys.path.insert(0, str(SRC))
        for name in LAYER_MODULES:
            setattr(self, name.lstrip("_"), importlib.import_module(f"hqec.{name}"))


def yardstick() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work,
    the kind of work hqec does; it tracks the host's momentary speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += (i * i) & 0xFF
    a = _YARD_KEYS
    for i in range(30):
        order = np.argsort(a ^ np.uint64(i), kind="stable")
        a = np.concatenate([a[order][:32], a[:32]])
        acc += int(np.sum(np.abs(a.astype(complex)) ** 2) > 0)
    return time.perf_counter() - t0


def spawn_yardstick() -> float:
    """Seconds to start and end a bare interpreter (no site, no imports):
    the exec, page-fault and file work that a fresh hqec process also pays,
    which the in-process yardstick does not track."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, cwd=ROOT)
    return time.perf_counter() - t0


class Clock:
    """Scale factors for consecutive intervals, each from the yardstick
    times measured just before and just after it."""

    def __init__(self, spawn: bool = False):
        self.measure = spawn_yardstick if spawn else yardstick
        self.nominal = SPAWN_YARDSTICK_NOMINAL_S if spawn else YARDSTICK_NOMINAL_S
        self.last = self.measure()
        self.factors: list[float] = []

    def factor(self) -> float:
        nxt = self.measure()
        f = 2 * self.nominal / (self.last + nxt)
        self.last = nxt
        self.factors.append(f)
        return f


def probe(workload: str) -> None:
    """Set-up as a fresh interpreter pays it: import the program, then run
    the workload's warm-up (one operation; the CLI's parser for cli)."""
    hq = Program()
    if workload == "cli":
        hq.cli.build_parser()
    else:
        wl = workloads.WORKLOADS[workload](hq, 0, ROOT)
        wl.op(wl.make(0))
    print("ready", flush=True)


def spawn_until_ready(args: list[str]) -> float:
    """Seconds from starting a fresh interpreter to its first line of stdout."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe {args} exited with {proc.returncode}")
    return ready


def setup_times(workload: str) -> tuple[float, float]:
    """Median set-up seconds over fresh interpreters: (scaled, raw)."""
    clock = Clock(spawn=True)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t = spawn_until_ready([str(Path(__file__)), "--probe", workload])
        raw.append(t)
        scaled.append(t * clock.factor())
    return statistics.median(scaled), statistics.median(raw)


def import_ms() -> float:
    """Median scaled time for a fresh interpreter to import hqec.cli, timed inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hqec.cli; print(time.perf_counter() - t)")
    clock = Clock(spawn=True)
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, cwd=ROOT).stdout
        times.append(float(out) * 1e3 * clock.factor())
    return statistics.median(times)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


class Loop:
    """The closed loop: make inputs, time one operation, check it."""

    def __init__(self, wl, n_ops: int, tracer: Tracer | None):
        self.wl, self.n_ops, self.tracer = wl, n_ops, tracer
        self.wall: list[float] = []  # scaled seconds of each completed operation
        self.raw_wall: list[float] = []
        self.cpu = self.raw_cpu = 0.0
        self.rss_kb = 0.0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, clock: Clock) -> None:
        wl = self.wl
        wl.op(wl.make(0))  # warm-up, untimed
        clock.factor()
        for i in range(self.n_ops):
            inp = wl.make(i)
            if self.tracer:
                self.tracer.active = True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = wl.op(inp)
                failure = None
            except Exception:
                out = None
                failure = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            t1, c1 = time.perf_counter(), time.process_time()
            if self.tracer:
                self.tracer.active = False
            f = clock.factor()
            if self.tracer:
                self.tracer.settle(f)
            if out is not None:
                failure = self._check(inp, out)
            if failure is not None:
                self.failed += 1
                if self.failed == 1:
                    print(f"perfbench: operation {i} failed: {failure}", file=sys.stderr)
                continue
            self.raw_wall.append(t1 - t0)
            self.wall.append((t1 - t0) * f)
            cpu = c1 - c0
            if wl.child_processes and not wl.in_process:
                cpu, rss = wl.child_cost(out)
                self.rss_kb = max(self.rss_kb, rss)
            self.raw_cpu += cpu
            self.cpu += cpu * f
        try:
            wl.finish()
        except CheckFailed as exc:
            self.wrong.append(str(exc))
        for msg in self.wrong[:5]:
            print(f"perfbench: wrong output: {msg}", file=sys.stderr)
        if not wl.child_processes or wl.in_process:
            self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _check(self, inp, out) -> str | None:
        """The failure message, or None; wrong outputs go to self.wrong."""
        try:
            self.wl.check(inp, out)
        except OpFailed as exc:
            return str(exc)
        except CheckFailed as exc:
            self.wrong.append(str(exc))
        return None


def end_to_end(loop: Loop, setup: tuple[float, float]) -> tuple[dict, dict]:
    done = len(loop.wall)
    lat = [t * 1e3 for t in loop.wall] or [0.0]
    raw = [t * 1e3 for t in loop.raw_wall] or [0.0]
    metrics = {
        "ops_per_s": (done / sum(loop.wall) if done else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (p90(lat), "ms"),
        "cpu_ms_per_op": (loop.cpu * 1e3 / max(done, 1), "ms"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (loop.rss_kb / 1024, "MB"),
    }
    unscaled = {
        "ops_per_s": done / sum(loop.raw_wall) if done else 0.0,
        "latency_p50_ms": statistics.median(raw),
        "latency_p90_ms": p90(raw),
        "cpu_ms_per_op": loop.raw_cpu * 1e3 / max(done, 1),
        "setup_s": setup[1],
    }
    return metrics, {"samples": done, "unscaled": unscaled}


def per_layer(loop: Loop, tracer: Tracer, workload: str) -> tuple[dict, dict]:
    n = loop.n_ops
    metrics = {}
    for key, (calls, self_s, _) in tracer.stats.items():
        metrics[f"{key}.calls_per_op"] = (calls / n, "count")
        metrics[f"{key}.self_ms_per_op"] = (self_s * 1e3 / n, "ms")
    metrics["states.peak_terms"] = (tracer.peak_terms, "count")
    metrics["states.peak_qubits"] = (tracer.peak_qubits, "count")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    busy = sum(loop.wall)
    metrics["cli.main_ms"] = (busy * 1e3 / n if workload == "cli" else 0.0, "ms")
    return metrics, {"skipped": tracer.skipped,
                     "traced_ops_per_s": len(loop.wall) / busy if busy else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe:
        probe(args.probe)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    hq = Program()
    wl = workloads.WORKLOADS[args.workload](hq, args.seed, ROOT)
    n_ops = wl.round_size * wl.rounds(args.seconds)
    tracer = None
    if args.trace:
        tracer = Tracer(hq.states.SparseState)
        tracer.install()
        wl.in_process = True
    if not args.trace:
        setup = setup_times(args.workload)
    clock = Clock(spawn=wl.child_processes and not wl.in_process)
    loop = Loop(wl, n_ops, tracer)
    try:
        wl.prepare()
        loop.run(clock)
    finally:
        wl.close()

    if args.trace:
        metrics, extra = per_layer(loop, tracer, args.workload)
    else:
        metrics, extra = end_to_end(loop, setup)
    result = {
        "correct": not loop.wrong,
        "attempted": n_ops,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   speed_factor_median=statistics.median(clock.factors), **extra)
    (ROOT / DETAILS[args.trace]).write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
