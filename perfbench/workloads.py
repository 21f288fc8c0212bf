"""The benchmark's four workloads: inputs, one operation, and its checks.

Each workload draws its inputs from a numpy generator seeded by --seed and
hands the program only those inputs.  ``op`` is the timed call; ``check``
runs outside the timed region against the references in reference.py;
``finish`` holds the checks that need the whole run.  An operation fails
(``OpFailed`` or any exception from the program) when the program crashes;
it is incorrect (``CheckFailed``) when it completes with a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as R
from reference import CheckFailed, require

COMPATIBLE = ("bit_flip", "phase_flip", "steane", "shor", "rm15")
SIZES = {"bit_flip": 3, "phase_flip": 3, "shor": 9, "steane": 7, "rm15": 15,
         "synthetic_incompatible": 3}
# the single-qubit errors each code corrects.  On phase_flip the decoder's
# X < Y < Z tie-break answers a Z error's syndrome with Y, so Z errors are
# left out there (a known fault, see CHANGES.md)
CORRECTABLE = {"bit_flip": "X", "phase_flip": "Y"}


def _error(rng, name: str, allow_none: bool) -> str:
    """A seeded weight-one error the code corrects, or (allow_none) the identity."""
    kinds = CORRECTABLE.get(name, "XYZ")
    n = SIZES[name]
    pick = int(rng.integers(0 if allow_none else 1, len(kinds) * n + 1))
    letters = ["I"] * n
    if pick:
        letters[(pick - 1) // len(kinds)] = kinds[(pick - 1) % len(kinds)]
    return "".join(letters)


class OpFailed(RuntimeError):
    """The program crashed on an input it should have handled."""


def _unit_pair(rng) -> tuple[complex, complex]:
    v = rng.normal(size=4)
    c0, c1 = complex(v[0], v[1]), complex(v[2], v[3])
    norm = math.hypot(abs(c0), abs(c1))
    return c0 / norm, c1 / norm


def _bits(rng, k: int) -> tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, k))


def _u64(rng) -> int:
    return int(rng.integers(0, 2**63))


def _program_generators(hq, name: str, ref) -> list[str]:
    """The program's generator strings for a builtin code, in its order,
    after checking that each one fixes the reference code space."""
    gens = [g.to_string() for g in hq.codes.builtin_code(name).generators]
    zero, one = ref
    for g in gens:
        for v in (zero, one):
            require(np.abs(R.apply(g, v) - v).max() < R.STATE_TOL,
                    f"{name}: generator {g} does not fix the reference code space")
    return gens


class Workload:
    name = ""
    round_size = 1  # operations per round; a run attempts whole rounds
    rounds_per_second = 1.0  # sized on the reference machine, see README
    child_processes = False  # True: cpu and memory are the children's
    in_process = False  # the traced run calls the CLI in-process

    def __init__(self, hq, seed: int, root: Path):
        self.hq = hq
        self.root = root
        stream = list(WORKLOADS).index(self.name)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.rounds_per_second))

    def prepare(self) -> None:
        """Reference computations, outside set-up and the timed region."""

    def make(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        pass

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


# -- teleport -------------------------------------------------------------------


def _demo_reference(psi: np.ndarray) -> np.ndarray:
    for label, q in (("H", 1), ("T", 1), ("Td", 2), ("S", 2)):
        psi = R.apply_gate(label, q, psi)
    return psi


class Teleport(Workload):
    """Transversal T on rm15, logical-mask T on shor, and the demo circuit."""

    name = "teleport"
    rounds_per_second = 30.0

    def prepare(self):
        codes = R.builtin_codes()
        self.rm15 = R.codewords(*codes["rm15"])
        self.shor = R.codewords(*codes["shor"])
        self.outcomes = [0, 0, 0, 0]

    def make(self, i):
        hq = self.hq
        v = self.rng.normal(size=8)
        psi = (v[:4] + 1j * v[4:]) / R.norm(v)
        return {
            "t": (_unit_pair(self.rng), _bits(self.rng, 2), hq.rng.SplitMix64(_u64(self.rng))),
            "l": (_unit_pair(self.rng), _bits(self.rng, 2), hq.rng.SplitMix64(_u64(self.rng))),
            "psi": psi,
            "demo": (
                hq.rng.SplitMix64(_u64(self.rng)),
                hq.protocol.KeyRegister.of([_bits(self.rng, 2), _bits(self.rng, 2)]),
                hq.states.SparseState(2, np.arange(4, dtype=np.uint64), psi),
            ),
        }

    def op(self, inp):
        p = self.hq.protocol
        tt = p.run_transversal_t_protocol(*inp["t"])
        lt = p.run_logical_t_protocol(*inp["l"])
        rng, keys, psi = inp["demo"]
        demo, dec, _ = p.run_demo_circuit(rng, keys=keys, state=psi)
        return tt, lt, demo, dec

    def check(self, inp, out):
        tt, lt, demo, dec = out
        for rep, (zero, one), key, what in ((tt, self.rm15, "t", "transversal T on rm15"),
                                             (lt, self.shor, "l", "logical T on shor")):
            (c0, c1), _, _ = inp[key]
            st = rep.final_state
            R.check_state(R.dense(st.n, st.keys, st.amps),
                          R.logical_state(zero, one, c0, R.OMEGA * c1), what)
        R.check_state(R.dense(dec.n, dec.keys, dec.amps), _demo_reference(inp["psi"]), "demo circuit")
        measured = list(tt.outcomes) + [lt.outcome]
        measured += [ev["outcome"] for ev in demo.transcript.events if ev["kind"] == "measurement"]
        for r_a, r_b in measured:
            self.outcomes[2 * r_a + r_b] += 1

    def finish(self):
        total = sum(self.outcomes)
        slack = 6 * math.sqrt(total * 3 / 16)  # six standard deviations
        for idx, count in enumerate(self.outcomes):
            require(abs(count - total / 4) <= slack,
                    f"rotated-Bell outcome {idx:02b}: {count} of {total}, expected about 1/4")


# -- storage ------------------------------------------------------------------------


class Storage(Workload):
    """One masked storage round trip per mask-compatible builtin code, plus
    the refusal of the incompatible one."""

    name = "storage"
    rounds_per_second = 27.0

    def prepare(self):
        codes = R.builtin_codes()
        self.ref = {name: R.codewords(*codes[name]) for name in COMPATIBLE}
        self.gens = {name: _program_generators(self.hq, name, self.ref[name]) for name in COMPATIBLE}
        for name in COMPATIBLE:
            require(R.mask_verdict(codes[name][0]), f"{name}: reference says incompatible")
        require(not R.mask_verdict(codes["synthetic_incompatible"][0]),
                "synthetic_incompatible: reference says compatible")

    def make(self, i):
        trips = []
        for name in COMPATIBLE + ("synthetic_incompatible",):
            trips.append((name, _unit_pair(self.rng), _bits(self.rng, 2),
                          _error(self.rng, name, allow_none=True),
                          self.hq.rng.SplitMix64(_u64(self.rng))))
        return trips

    def op(self, inp):
        p = self.hq.protocol
        reports = [p.run_storage_protocol(*trip) for trip in inp[:-1]]
        try:
            reports.append(p.run_storage_protocol(*inp[-1]))
        except p.IncompatibleCodeError:
            reports.append(None)
        return reports

    def check(self, inp, out):
        for (name, (c0, c1), _, error, _), rep in zip(inp, out):
            if name == "synthetic_incompatible":
                require(rep is None, "synthetic_incompatible was not refused")
                continue
            require(tuple(rep.syndrome) == R.syndrome(self.gens[name], error),
                    f"{name}: syndrome {rep.syndrome} for error {error}")
            st = rep.final_state
            R.check_state(R.dense(st.n, st.keys, st.amps), R.logical_state(*self.ref[name], c0, c1),
                          f"storage on {name}")


# -- codes_cold -------------------------------------------------------------------------


def _same_type(a: str, b: str) -> bool:
    return set(a) | set(b) <= set("IX") or set(a) | set(b) <= set("IZ")


def _product(a: tuple[str, str], b: tuple[str, str]) -> tuple[str, str]:
    """Product of two X-only or two Z-only signed strings."""
    sign = "-" if (a[0] == "-") != (b[0] == "-") else ""
    return sign, "".join("I" if p == q else (p if q == "I" else q) for p, q in zip(a[1], b[1]))


def _fresh_generators(rng, gens: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Another generating set of the same group: each generator times a random
    subset of the later ones of its own type (a unitriangular change of basis)."""
    out = list(gens)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _same_type(gens[i][1], gens[j][1]) and rng.random() < 0.5:
                out[i] = _product(out[i], gens[j])
    return out


def _permute(text: str, perm) -> str:
    out = [""] * len(text)
    for q, ch in enumerate(text):
        out[perm[q]] = ch
    return "".join(out)


def _hadamard(text: str, q: int) -> str:
    swap = {"X": "Z", "Z": "X"}
    return text[:q] + swap.get(text[q], text[q]) + text[q + 1:]


def _code_text(gens, lx: str, lz: str) -> str:
    lines = [f"{len(lx)} 1"] + [sign + body for sign, body in gens] + [lx, lz]
    return "\n".join(lines) + "\n"


def _code_parts(text: str) -> tuple[list[str], str, str]:
    """(generators, logical X, logical Z) of a code text made by _code_text."""
    lines = text.splitlines()
    return lines[1:-2], lines[-2], lines[-1]


def _classical(rng, n: int, triorthogonal: bool) -> tuple[list[int], list[int], list[int]]:
    """Rows of C1 containing C2 (with the all-ones word half the time) and a
    five-row matrix: column-permuted Reed-Muller rows when ``triorthogonal``."""
    c2 = [int(r) for r in rng.integers(1, 1 << n, 3)]
    c1 = c2 + [int(r) for r in rng.integers(1, 1 << n, 2)]
    if rng.random() < 0.5:
        c1.append((1 << n) - 1)
    if triorthogonal:
        perm = rng.permutation(n)
        tri = [R.row(_permute(r, perm)) for r in R.RM_ROWS]
    else:
        tri = [int(r) for r in rng.integers(1, 1 << n, len(R.RM_ROWS))]
    return c1, c2, tri


def _matrix_text(rows, n: int) -> str:
    return "\n".join(R.row_text(r, n) for r in rows) + "\n"


def permuted_code(rng, gens, lx: str, lz: str, hadamard: bool = False, lz_in_group=False) -> str:
    """Code text of a qubit-permuted copy with a fresh generating set;
    ``hadamard`` conjugates one random qubit by H, ``lz_in_group`` replaces
    the logical Z by a stabilizer (an invalid code)."""
    n = len(lx)
    perm = rng.permutation(n)
    signed = _fresh_generators(rng, [("", _permute(g, perm)) for g in gens])
    lx, lz = _permute(lx, perm), _permute(lz, perm)
    if hadamard:
        q = int(rng.integers(0, n))
        signed = [(s, _hadamard(g, q)) for s, g in signed]
        lx, lz = _hadamard(lx, q), _hadamard(lz, q)
    if lz_in_group:
        lz = "".join(signed[0])
    return _code_text(signed, lx, lz)


class CodesCold(Workload):
    """A batch of code texts and classical matrices never seen before in the
    run, each analysed from parsing to the T correction."""

    name = "codes_cold"
    rounds_per_second = 5.0
    PERMUTED = ("steane", "rm15", "shor")
    INCOMPATIBLE = ("steane", "shor")  # one qubit conjugated by H
    SIGN_FLIPPED = (8, 10)  # ZZ chains, first link negated: the codeword seed is 2^n - 2
    CLASSICAL_N = 15

    def __init__(self, hq, seed, root):
        super().__init__(hq, seed, root)
        self.seen: set[str] = set()
        self.defs = R.builtin_codes()

    def _unique(self, build) -> str:
        while True:
            text = build()
            if text not in self.seen:
                self.seen.add(text)
                return text

    def _sign_flipped(self, n: int) -> str:
        chain = [("-" if i == 0 else "", "I" * i + "ZZ" + "I" * (n - i - 2)) for i in range(n - 1)]
        return _code_text(_fresh_generators(self.rng, chain), "X" * n, "Z" + "I" * (n - 1))

    def make(self, i):
        texts = [self._unique(lambda: permuted_code(self.rng, *self.defs[name]))
                 for name in self.PERMUTED]
        texts += [self._unique(lambda: permuted_code(self.rng, *self.defs[name], hadamard=True))
                  for name in self.INCOMPATIBLE]
        texts += [self._unique(lambda: self._sign_flipped(n)) for n in self.SIGN_FLIPPED]
        n = self.CLASSICAL_N
        c1, c2, tri = _classical(self.rng, n, triorthogonal=self.rng.random() < 0.5)
        return {"codes": texts, "c1": c1, "c2": c2, "tri": tri, "c1_text": _matrix_text(c1, n),
                "c2_text": _matrix_text(c2, n), "tri_text": _matrix_text(tri, n)}

    def op(self, inp):
        hq = self.hq
        codes, compat, gf2 = hq.codes, hq.compat, hq.gf2
        results = []
        for text in inp["codes"]:
            code = codes.parse_code_text(text)
            valid = codes.validate_code(code)
            mask = compat.stabilizer_mask_check(code)
            space = codes.logical_codewords(code)
            action = compat.diagonal_gate_action(space, R.OMEGA, label="T")
            results.append((valid, mask, space, action, compat.clifford_correction_for_t(space)))
        c1 = gf2.code_from_rows(gf2.BitMatrix.from_text(inp["c1_text"]))
        c2 = gf2.code_from_rows(gf2.BitMatrix.from_text(inp["c2_text"]))
        css = compat.css_mask_check(c1, c2)
        tri = gf2.triorthogonality_check(gf2.BitMatrix.from_text(inp["tri_text"]))
        return results, css, tri

    def check(self, inp, out):
        results, css, tri = out
        for text, (valid, mask, space, action, corr) in zip(inp["codes"], results):
            gens, lx, lz = _code_parts(text)
            what = f"code {gens + [lx, lz]}"
            require(valid.ok, f"{what}: reported invalid: {valid.violations}")
            flags = [R.mask_flags(g) for g in gens]
            require(mask.verdict == all(all(f) for f in flags), f"{what}: mask verdict")
            require([(g.x_commutes, g.z_commutes) for g in mask.generator_checks] == flags,
                    f"{what}: per-generator mask flags")
            zero, one = R.codewords(gens, lx, lz)
            got0 = R.dense(space.zero.n, space.zero.keys, space.zero.amps)
            got1 = R.dense(space.one.n, space.one.keys, space.one.amps)
            R.check_state(got0, zero, f"{what}: |0L>")
            phase = R.vdot(zero, got0)
            R.check_state(got1, phase * one, f"{what}: |1L> = logical X |0L>")
            leak, phases = R.diagonal_action(zero, one, R.OMEGA)
            require(abs(action.leakage - leak) < R.PHASE_TOL, f"{what}: leakage {action.leakage}")
            stays = leak < R.STATE_TOL
            require((action.logical_phases is not None) == stays, f"{what}: logical phases reported")
            want = R.t_correction(phases) if stays else None
            if stays:
                require(np.allclose(action.logical_phases, phases, atol=R.PHASE_TOL),
                        f"{what}: logical phases")
            require((corr is None) == (want is None), f"{what}: T correction existence")
            if want is not None:
                require((corr.logical_s_power, corr.logical_z_power) == want[:2]
                        and abs(corr.global_phase - want[2]) < R.PHASE_TOL, f"{what}: T correction")
        e_in_c1, c2_even = R.css_verdict(inp["c1"], inp["c2"], self.CLASSICAL_N)
        require((css.e_in_c1, css.c2_all_even, css.verdict) == (e_in_c1, c2_even, e_in_c1 and c2_even),
                "css mask check")
        pair_ok, triple_ok, sets = R.triortho(inp["tri"])
        require((tri.pairwise_ok, tri.triple_ok) == (pair_ok, triple_ok)
                and [tuple(s) for s in tri.violating_index_sets] == sets, "triorthogonality check")


# -- cli -------------------------------------------------------------------------------

FAULT_ARGV = ("run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8",
              "--force-outcomes", "00")
DETERMINISM_VERBS = ("a1", "storage", "transversal-t", "logical-t")


def _amps_arg(rng) -> str:
    c0, c1 = _unit_pair(rng)
    return ",".join(repr(v) for v in (c0.real, c0.imag, c1.real, c1.imag))


def _want(doc: dict, expected: dict, what: str) -> None:
    for key, value in expected.items():
        require(doc.get(key) == value, f"{what}: {key} = {doc.get(key)!r}, expected {value!r}")


class Cli(Workload):
    """One `python -m hqec.cli ... --json` process per operation, from a fixed
    rotation over every verb plus input errors that must exit 2."""

    name = "cli"
    round_size = 20
    rounds_per_second = 0.25
    child_processes = True

    def __init__(self, hq, seed, root):
        super().__init__(hq, seed, root)
        self.tmp: Path | None = None
        self.first_stdout: dict[tuple[str, ...], bytes] = {}
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def prepare(self):
        defs = R.builtin_codes()
        self.defs = defs
        ref = {name: R.codewords(*defs[name]) for name in COMPATIBLE}
        self.gens = {name: _program_generators(self.hq, name, ref[name]) for name in COMPATIBLE}
        self.rm15_phases = {gate: R.diagonal_action(*ref["rm15"], ph)[1]
                            for gate, ph in (("T", R.OMEGA), ("Td", np.conj(R.OMEGA)), ("Sd", -1j))}

    def close(self):
        if self.tmp is not None:
            for f in self.tmp.iterdir():
                f.unlink()
            self.tmp.rmdir()

    def _write(self, name: str, text: str) -> str:
        path = self.tmp / name
        path.write_text(text)
        return str(path)

    def _rotation(self) -> list[tuple[tuple[str, ...], int, object]]:
        """The 20 calls of one rotation: (argv, expected exit code, check of
        the parsed --json stdout, or None where no stdout is expected)."""
        if self.tmp is None:
            self.tmp = self.root / f".perfbench-tmp-{os.getpid()}"
            self.tmp.mkdir()
        rng = self.rng
        name = COMPATIBLE[int(rng.integers(0, len(COMPATIBLE)))]
        valid = self._write("valid.code", permuted_code(rng, *self.defs["shor"]))
        invalid = self._write("invalid.code", permuted_code(rng, *self.defs["steane"], lz_in_group=True))
        n = CodesCold.CLASSICAL_N
        c1, c2, tri = _classical(rng, n, triorthogonal=False)
        c1_path, c2_path = self._write("c1.txt", _matrix_text(c1, n)), self._write("c2.txt", _matrix_text(c2, n))
        tri_path = self._write("tri.txt", _matrix_text(tri, n))
        bad = self._write("bad.txt", "11\n1x\n")
        e_in_c1, c2_even = R.css_verdict(c1, c2, n)
        pair_ok, triple_ok, sets = R.triortho(tri)
        gate = ("T", "Td", "Sd")[int(rng.integers(0, 3))]
        keys = [",".join(map(str, _bits(rng, 2))) for _ in range(4)]
        err_name = COMPATIBLE[int(rng.integers(0, len(COMPATIBLE)))]
        error = _error(rng, err_name, allow_none=False)
        seeds = [str(_u64(rng)) for _ in range(4)]
        size = int(rng.integers(1, 65))

        def theorem1(doc):
            flags = [R.mask_flags(g["generator"]) for g in doc["generators"]]
            require([(g["x_commutes"], g["z_commutes"]) for g in doc["generators"]] == flags,
                    "theorem1 flags")
            require(doc["verdict"] == all(all(f) for f in flags), "theorem1 verdict")

        def diagonal(doc):
            want = self.rm15_phases[gate]
            got = [complex(re, im) for re, im in doc["logical_phases"]]
            require(np.allclose(got, want, atol=R.PHASE_TOL), "diagonal logical phases")
            if gate == "T":
                s, z, _ = R.t_correction(want)
                _want(doc["correction"], {"logical_s_power": s, "logical_z_power": z}, "diagonal")

        def a1(doc):
            require(doc["fidelity"] >= 1 - R.STATE_TOL, f"a1 fidelity {doc['fidelity']}")
            outs = [ev["outcome"] for ev in doc["transcript"]["events"] if ev["kind"] == "measurement"]
            require(len(outs) == 2 and all(b in (0, 1) for o in outs for b in o), "a1 outcomes")

        def storage(doc):
            _want(doc, {"syndrome": list(R.syndrome(self.gens[err_name], error)),
                        "injected_error": error, "recovered": True}, "storage")
            corr = doc["correction"]
            require(len(corr) - corr.count("I") <= 1
                    and R.syndrome(self.gens[err_name], corr) == R.syndrome(self.gens[err_name], error),
                    f"storage correction {corr}")

        def transversal(doc):
            _want(doc, {"data_qubits": 15, "bell_pairs_used": 15, "max_live_qubits": 17}, "transversal-t")
            require(len(doc["outcomes"]) == 15 and doc["fidelity"] >= 1 - R.STATE_TOL,
                    "transversal-t outcomes and fidelity")
            s, z, _ = R.t_correction(self.rm15_phases["T"])
            _want(doc["correction"], {"logical_s_power": s, "logical_z_power": z}, "transversal-t")

        def logical(doc):
            require(doc["fidelity"] >= 1 - R.STATE_TOL, "logical-t fidelity")
            _want(doc["resources"], {"n": 9, "q_tot_phys": 27, "q_tot_log": 27}, "logical-t")

        resources = {"n": size, "q_data": size, "q_aux_phys": 2 * size, "q_tot_phys": 3 * size,
                     "q_aux_log": 2 * size, "q_tot_log": 3 * size}
        css_doc = {"e_in_c1": e_in_c1, "c2_all_even": c2_even, "verdict": e_in_c1 and c2_even}
        tri_doc = {"pairwise_ok": pair_ok, "triple_ok": triple_ok,
                   "violating_index_sets": [list(s) for s in sets]}
        return [
            (("codes", "list"), 0, lambda d: require(
                [(c["name"], c["n"]) for c in d["codes"]] == list(SIZES.items()), "codes list")),
            (("codes", "validate", valid), 0, lambda d: require(d["ok"], "valid code reported invalid")),
            (("codes", "validate", invalid), 1, lambda d: require(
                not d["ok"] and any("stabilizer group" in v for v in d["violations"]), "invalid code")),
            (("check", "theorem1", "--code", name), 0, theorem1),
            (("check", "theorem1", "--code", "synthetic_incompatible"), 1, theorem1),
            (("check", "css", "--c1", c1_path, "--c2", c2_path), 0 if css_doc["verdict"] else 1,
             lambda d: _want(d, css_doc, "css")),
            (("check", "triortho", "--matrix", tri_path), 0 if pair_ok and triple_ok else 1,
             lambda d: _want(d, tri_doc, "triortho")),
            (("check", "diagonal", "--code", "rm15", "--gate", gate), 0, diagonal),
            (("run", "a1", "--seed", seeds[0]), 0, a1),
            (("run", "storage", "--code", err_name, "--keys", keys[0], "--error", error,
              "--seed", seeds[1]), 0, storage),
            (("run", "storage", "--code", "synthetic_incompatible", "--keys", keys[1]), 1, None),
            (("run", "transversal-t", "--keys", keys[2], "--amps=" + _amps_arg(rng),
              "--seed", seeds[2]), 0, transversal),
            (("run", "logical-t", "--keys", keys[3], "--amps=" + _amps_arg(rng),
              "--seed", seeds[3]), 0, logical),
            (("report", "resources", "--n", str(size)), 0, lambda d: _want(d, resources, "resources")),
            (("run", "storage", "--code", "shor", "--keys", "2,0"), 2, None),
            (("check", "triortho", "--matrix", str(self.tmp / "missing.txt")), 2, None),
            (("check", "css", "--c1", bad, "--c2", c2_path), 2, None),
            (("check", "theorem1", "--code", "no_such_code"), 2, None),
            (("frobnicate",), 2, None),
            (FAULT_ARGV, 2, None),
        ]

    def make(self, i):
        if i % self.round_size == 0:
            self.calls = self._rotation()
        argv, rc, check = self.calls[i % self.round_size]
        return argv + ("--json",), rc, check, i

    def call(self, argv):
        """Run one CLI call: (exit code, stdout, stderr, rusage or None)."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.hq.cli.main(list(argv))
            return rc, out.getvalue().encode(), err.getvalue().encode(), None
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "hqec.cli", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage

    def op(self, inp):
        return self.call(inp[0])

    @staticmethod
    def child_cost(out) -> tuple[float, float]:
        """(cpu seconds, peak resident kB) of the child process."""
        usage = out[3]
        return usage.ru_utime + usage.ru_stime, float(usage.ru_maxrss)

    def check(self, inp, out):
        argv, want_rc, check, i = inp
        rc, stdout, stderr, _ = out
        what = "hqec " + " ".join(argv)
        if b"Traceback" in stderr or rc not in (0, 1, 2):
            raise OpFailed(f"{what}: exit {rc}: {stderr.decode(errors='replace').strip()[-200:]}")
        require(rc == want_rc, f"{what}: exit {rc}, expected {want_rc}")
        if rc == 2:
            require(b"error" in stderr and not stdout, f"{what}: no error message")
        if check is None:
            return
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            raise CheckFailed(f"{what}: stdout is not JSON: {exc}") from None
        check(doc)
        if i < self.round_size and argv[0] == "run" and argv[1] in DETERMINISM_VERBS:
            self.first_stdout[argv] = stdout

    def finish(self):
        for argv, stdout in self.first_stdout.items():
            again = self.call(argv)[1]
            require(again == stdout, f"hqec {' '.join(argv)}: stdout differs between two calls")


WORKLOADS = {w.name: w for w in (Teleport, Storage, CodesCold, Cli)}
