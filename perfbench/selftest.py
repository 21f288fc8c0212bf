"""Show that each output check accepts a real output and rejects a wrong one.

    python3 perfbench/selftest.py

Runs one operation of every workload, checks it as the benchmark does, then
corrupts it (a dropped omega, a flipped verdict, a wrong syndrome bit, a
mismatched exit code, ...) and requires the check to refuse it.  Exits 1 if
any check accepts a wrong output or refuses a right one.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

import reference as R
from reference import CheckFailed
from run import ROOT, Program
from workloads import WORKLOADS, OpFailed


def _state(hq, vec: np.ndarray):
    n = vec.size.bit_length() - 1
    keys = np.flatnonzero(np.abs(vec) > 1e-14).astype(np.uint64)
    return hq.states.SparseState(n, keys, vec[keys.astype(np.int64)])


def teleport_cases(hq, wl, inp, out):
    tt, lt, demo, dec = out
    (c0, c1), _, _ = inp["t"]
    no_omega = R.logical_state(*wl.rm15, c0, c1)
    yield "dropped omega (transversal T)", (dataclasses.replace(tt, final_state=_state(hq, no_omega)),
                                           lt, demo, dec)
    (c0, c1), _, _ = inp["l"]
    swapped = R.logical_state(*wl.shor, c1, R.OMEGA * c0)
    yield "swapped amplitudes (logical T)", (tt, dataclasses.replace(lt, final_state=_state(hq, swapped)),
                                            demo, dec)
    wrong = R.dense(2, dec.keys, dec.amps)[[1, 0, 2, 3]]
    yield "permuted demo output", (tt, lt, demo, _state(hq, wrong))


def storage_cases(hq, wl, inp, out):
    for k, rep in enumerate(out[:-1]):
        syn = list(rep.syndrome)
        syn[0] ^= 1
        yield f"wrong syndrome bit ({rep.code_name})", (
            out[:k] + [dataclasses.replace(rep, syndrome=tuple(syn))] + out[k + 1:])
    yield "unrefused incompatible code", out[:-1] + [out[0]]
    rm = out[-2]
    (c0, c1) = inp[-2][1]
    yield "decoded to the wrong logical state", out[:-2] + [dataclasses.replace(
        rm, final_state=_state(hq, R.logical_state(*wl.ref["rm15"], c0, -c1)))] + out[-1:]


def codes_cold_cases(hq, wl, inp, out):
    results, css, tri = out
    for k, (valid, mask, space, action, corr) in enumerate(results):
        flipped = dataclasses.replace(mask, verdict=not mask.verdict)
        yield f"flipped mask verdict (code {k})", (
            results[:k] + [(valid, flipped, space, action, corr)] + results[k + 1:], css, tri)
    valid, mask, space, action, corr = results[0]
    swapped = dataclasses.replace(space, basis=(space.one, space.zero))
    yield "swapped logical basis", ([(valid, mask, swapped, action, corr)] + results[1:], css, tri)
    yield "flipped css verdict", (results, dataclasses.replace(css, verdict=not css.verdict), tri)
    yield "flipped triorthogonality verdict", (
        results, css, dataclasses.replace(tri, pairwise_ok=not tri.pairwise_ok))


def run_selftest() -> int:
    hq = Program()
    bad = 0
    for name, cases in (("teleport", teleport_cases), ("storage", storage_cases),
                        ("codes_cold", codes_cold_cases), ("cli", None)):
        wl = WORKLOADS[name](hq, 7, ROOT)
        wl.prepare()
        try:
            trials = []
            if cases is None:
                for i in range(wl.round_size):
                    inp = wl.make(i)
                    out = wl.op(inp)
                    if inp[0][:2] == ("check", "diagonal"):
                        rc, stdout, stderr, usage = out
                        traceback = b"Traceback (most recent call last):"
                        trials.append((inp, out, [
                            ("mismatched exit code", (1 - rc, stdout, stderr, usage)),
                            ("traceback on stderr", (rc, stdout, traceback, usage))]))
                    elif inp[0][:2] == ("codes", "list"):
                        trials.append((inp, out, [("truncated JSON", (out[0], out[1][:-3], out[2], out[3]))]))
            else:
                inp = wl.make(0)
                out = wl.op(inp)
                trials.append((inp, out, list(cases(hq, wl, inp, out))))
            for inp, out, corrupted in trials:
                try:
                    wl.check(inp, out)
                    print(f"{name}: accepts a right output: ok")
                except (CheckFailed, OpFailed) as exc:
                    print(f"{name}: REFUSES a right output: {exc}")
                    bad += 1
                for label, wrong in corrupted:
                    try:
                        wl.check(inp, wrong)
                        print(f"{name}: ACCEPTS {label}")
                        bad += 1
                    except (CheckFailed, OpFailed) as exc:
                        print(f"{name}: rejects {label}: ok ({type(exc).__name__})")
        finally:
            wl.close()
    tele = WORKLOADS["teleport"](hq, 7, ROOT)
    tele.prepare()
    tele.outcomes = [400, 100, 100, 100]
    try:
        tele.finish()
        print("teleport: ACCEPTS skewed rotated-Bell outcome frequencies")
        bad += 1
    except CheckFailed:
        print("teleport: rejects skewed rotated-Bell outcome frequencies: ok")
    print("selftest:", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run_selftest())
