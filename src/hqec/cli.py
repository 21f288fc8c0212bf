"""Command-line surface.

Exit codes: 0 for success / compatible / fidelity-pass, 1 for incompatible
or failed assertions, 2 for usage and input-format errors.  Every verb
supports --json (a single JSON document mirroring the human rendering);
run verbs take --seed and --dump-state, the T verbs --force-outcomes too.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import hqec

# check diagonal's gates: the phase each puts on |1>, as printed and as a power of omega
_DIAG_GATES = {"T": ("e^(i*pi/4)", 1), "Td": ("e^(-i*pi/4)", -1), "Sd": ("-i", -2)}


class InputError(ValueError):
    """Bad file, name, or argument value; maps to exit code 2."""


def _load_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{'not a file' if p.exists() else 'no such file'}: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_code(name_or_path: str) -> hqec.codes.StabilizerCode:
    if name_or_path in hqec.BUILTIN_NAMES:
        return hqec.codes.builtin_code(name_or_path)
    text = _load_text(name_or_path)
    try:
        return hqec.codes.parse_code_text(text, name=Path(name_or_path).stem)
    except ValueError as exc:
        raise InputError(f"{name_or_path}: {exc}") from exc


def _load_valid_code(name_or_path: str) -> hqec.codes.StabilizerCode:
    code = _load_code(name_or_path)
    val = hqec.codes.validate_code(code)
    if not val.ok:
        raise InputError(f"{name_or_path} is not a valid stabilizer code: {val.violations[0]}")
    return code


def _load_classical(path: str) -> hqec.gf2.ClassicalCode:
    text = _load_text(path)
    try:
        return hqec.gf2.code_from_rows(hqec.gf2.BitMatrix.from_text(text))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_keys(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2 or any(p not in ("0", "1") for p in parts):
        raise InputError(f"--keys must be 'a,b' with bits, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_amps(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"--amps must be 're,im,re,im', got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"--amps must be numeric, got {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise InputError(f"--amps must be finite, got {text!r}")
    if not any(vals):
        raise InputError("--amps must not be all zero")
    return complex(vals[0], vals[1]), complex(vals[2], vals[3])


def _parse_forced(text: str | None, pairs: int):
    """--force-outcomes as a list of `pairs` outcome pairs, or None when absent."""
    if text is None:
        return None
    if any(ch not in "01" for ch in text) or len(text) != 2 * pairs:
        raise InputError(
            f"--force-outcomes must be {pairs} bit pair(s) ({2 * pairs} bits), got {text!r}"
        )
    bits = [int(ch) for ch in text]
    return [tuple(bits[i: i + 2]) for i in range(0, len(bits), 2)]


def _seed(args) -> int:
    """--seed, which each run verb checks before its other arguments."""
    if not 0 <= args.seed < 1 << 64:
        raise InputError(f"--seed must be in 0..2^64-1, got {args.seed}")
    return args.seed


def _emit(args, doc: dict, human_lines) -> None:
    if args.json:
        import json

        print(json.dumps(doc))
    else:
        for line in human_lines:
            print(line)


def _dump_state(args, state) -> None:
    if args.dump_state:
        Path(args.dump_state).write_text("\n".join(state.dump_lines()) + "\n")


# ---------------------------------------------------------------------------
# verb handlers: each returns (exit code, JSON document, human lines)


def _cmd_codes_list(args) -> tuple:
    rows = []
    for name in hqec.BUILTIN_NAMES:
        c = hqec.codes.builtin_code(name)
        rows.append({"name": name, "n": c.n, "k": c.k, "css": c.css_origin is not None})
    return 0, {"codes": rows}, [f"{r['name']}  [[{r['n']},{r['k']}]]" for r in rows]


def _cmd_codes_validate(args) -> tuple:
    code = _load_code(args.file)
    rep = hqec.codes.validate_code(code)
    lines = [f"code {code.name}: {'valid' if rep.ok else 'INVALID'}"]
    lines += [f"  violation: {v}" for v in rep.violations]
    return (0 if rep.ok else 1), rep.as_dict(), lines


def _cmd_check_theorem1(args) -> tuple:
    code = _load_valid_code(args.code)
    rep = hqec.compat.stabilizer_mask_check(code)
    lines = [f"code {code.name}: {'compatible' if rep.verdict else 'INCOMPATIBLE'}"]
    for g in rep.generator_checks:
        lines.append(
            f"  g{g.index} {g.generator}: X-mask {'ok' if g.x_commutes else 'ANTICOMMUTES'}, "
            f"Z-mask {'ok' if g.z_commutes else 'ANTICOMMUTES'}"
        )
    if rep.css_verdict is not None:
        lines.append(f"  css check: e in C1 = {rep.e_in_c1}, C2 all even = {rep.c2_all_even}, "
                     f"agrees = {rep.cross_check_ok}")
    return (0 if rep.verdict else 1), rep.as_dict(), lines


def _cmd_check_css(args) -> tuple:
    c1 = _load_classical(args.c1)
    c2 = _load_classical(args.c2)
    rep = hqec.compat.css_mask_check(c1, c2)
    lines = [
        f"css pair (n={c1.length}, k1={c1.dimension}, k2={c2.dimension}): "
        f"{'compatible' if rep.verdict else 'INCOMPATIBLE'}",
        f"  all-ones word in C1: {rep.e_in_c1}",
        f"  C2 all even weight:  {rep.c2_all_even}",
    ]
    return (0 if rep.verdict else 1), rep.as_dict(), lines


def _cmd_check_triortho(args) -> tuple:
    text = _load_text(args.matrix)
    try:
        matrix = hqec.gf2.BitMatrix.from_text(text)
        rep = hqec.gf2.triorthogonality_check(matrix)
    except ValueError as exc:
        raise InputError(f"{args.matrix}: {exc}") from exc
    lines = [
        f"matrix {len(matrix.rows)}x{matrix.cols}: "
        f"{'triorthogonal' if rep.ok else 'NOT triorthogonal'}",
        f"  pairwise ok: {rep.pairwise_ok}   triple ok: {rep.triple_ok}",
        f"  odd rows:  {list(rep.odd_rows)}",
        f"  even rows: {list(rep.even_rows)}",
    ]
    for (i, j), v in rep.pair_overlaps.items():
        lines.append(f"  |r{i} & r{j}| = {v}")
    for (i, j, k), v in rep.triple_overlaps.items():
        lines.append(f"  |r{i} & r{j} & r{k}| = {v}")
    return (0 if rep.ok else 1), rep.as_dict(), lines


def _cmd_check_diagonal(args) -> tuple:
    code = _load_valid_code(args.code)
    cs = hqec.codes.logical_codewords(code)
    shown, power = _DIAG_GATES[args.gate]
    rep = hqec.compat.diagonal_gate_action(cs, hqec.compat.OMEGA ** power, label=f"{args.gate}^x{code.n}")
    doc = rep.as_dict()
    lines = [f"code {code.name}, transversal {args.gate} (phase {shown}):",
             f"  leakage: {rep.leakage:.12g}"]
    if rep.logical_phases is None:
        lines.append("  preserves the code space but is not diagonal on it" if rep.preserves_code_space
                     else "  does not preserve the code space")
    else:
        for i, p in enumerate(rep.logical_phases):
            lines.append(f"  logical phase on |{i}>: {p.real:+.12f}{p.imag:+.12f}i")
        corr = hqec.compat.clifford_correction_for_t(cs) if args.gate == "T" else None
        if corr is not None:
            lines.append(f"  logical correction: S-power {corr.logical_s_power}, "
                         f"Z-power {corr.logical_z_power}")
            doc["correction"] = corr.as_dict()
    return (1 if rep.logical_phases is None else 0), doc, lines


def _cmd_run_a1(args) -> tuple:
    seed = _seed(args)
    t_gates = sum(tok[0] == "T" for tok in hqec.DEMO_CIRCUIT_TEXT.split())  # T and Td set the length
    forced = _parse_forced(args.force_outcomes, t_gates)
    protocol = hqec.protocol
    rep, dec, _ = protocol.run_demo_circuit(hqec.rng.SplitMix64(seed), forced_outcomes=forced)
    _dump_state(args, dec)
    lines = [f"demo circuit {hqec.DEMO_CIRCUIT_TEXT}",
             f"keys initial: {rep.keys_initial}",
             f"keys final:   {rep.keys_final}",
             f"final fidelity {rep.fidelity:.10f}"]
    return (0 if rep.fidelity >= 1 - protocol.TOL else 1), rep.as_dict(), lines


def _cmd_run_storage(args) -> tuple:
    seed = _seed(args)
    keys = _parse_keys(args.keys)
    code = _load_valid_code(args.code)
    error = None
    if args.error.lower() != "none":
        try:
            error = hqec.pauli.parse_pauli(args.error)
        except ValueError as exc:
            raise InputError(f"--error: {exc}") from exc
        if error.n != code.n:
            raise InputError(f"--error acts on {error.n} qubits, {code.name} has {code.n}")
    rep = hqec.protocol.run_storage_protocol(code, (0.6, 0.8), keys, error, hqec.rng.SplitMix64(seed))
    _dump_state(args, rep.final_state)
    lines = [f"storage on {rep.code_name}, keys {rep.keys}, error {rep.injected_error or 'none'}",
             f"syndrome: {list(rep.syndrome)}",
             f"correction applied: {rep.correction}",
             f"final fidelity {rep.fidelity:.10f} ({'recovered' if rep.recovered else 'FAILED'})"]
    return (0 if rep.recovered else 1), rep.as_dict(), lines


def _cmd_run_transversal_t(args) -> tuple:
    seed = _seed(args)
    keys = _parse_keys(args.keys)
    amps = _parse_amps(args.amps)
    forced = _parse_forced(args.force_outcomes, 15)  # one pair per rm15 qubit
    rep = hqec.protocol.run_transversal_t_protocol(amps, keys, hqec.rng.SplitMix64(seed), forced)
    _dump_state(args, rep.final_state)
    lines = [f"transversal T on {rep.code_name}, keys {rep.keys}",
             f"teleportation outcomes: {[list(o) for o in rep.outcomes]}",
             f"correction: S-power {rep.correction['logical_s_power']}",
             f"register peak {rep.max_live_qubits} qubits, {rep.max_terms} terms",
             f"final fidelity {rep.fidelity:.10f}"]
    return 0, rep.as_dict(), lines


def _cmd_run_logical_t(args) -> tuple:
    seed = _seed(args)
    keys = _parse_keys(args.keys)
    amps = _parse_amps(args.amps)
    forced = _parse_forced(args.force_outcomes, 1)
    rep = hqec.protocol.run_logical_t_protocol(amps, keys, hqec.rng.SplitMix64(seed),
                                               forced[0] if forced else None)
    _dump_state(args, rep.final_state)
    lines = [f"logical T on {rep.code_name}, keys {rep.keys}",
             f"logical Bell outcome: {list(rep.outcome)}",
             f"register {rep.register_qubits} qubits, peak {rep.max_terms} stored terms",
             f"final fidelity {rep.fidelity:.10f}"]
    return 0, rep.as_dict(), lines


def _cmd_report_resources(args) -> tuple:
    if args.n < 1:
        raise InputError(f"--n must be positive, got {args.n}")
    rep = hqec.resource_report(args.n)
    lines = [f"block size n = {rep.n}",
             f"data qubits:          {rep.q_data}",
             f"physical aux qubits:  {rep.q_aux_phys} (n Bell pairs)",
             f"physical total:       {rep.q_tot_phys}",
             f"logical aux qubits:   {rep.q_aux_log} (one encoded Bell pair)",
             f"logical total:        {rep.q_tot_log}"]
    return 0, rep.as_dict(), lines


# ---------------------------------------------------------------------------
# parser


# the options that several verbs take, each declared once; a verb row names
# an option, or gives (name, keywords) to add to or override these
_OPTIONS = {
    "--code": {"required": True, "help": "builtin name or code file"},
    "--keys": {"required": True, "help": "a,b"},
    "--amps": {"required": True, "help": "re,im,re,im for c0,c1"},
    "--json": {"action": "store_true", "help": "emit a single JSON document"},
    "--seed": {"type": int, "default": 0, "help": "RNG seed (u64)"},
    "--dump-state": {"help": "write the final state dump here"},
    "--force-outcomes": {"help": "bit string consumed pairwise as measurement outcomes"},
}
_RUN = ("--json", "--seed", "--dump-state")  # every run verb, after its own arguments

# (group, help, its verbs as (name, help, handler, arguments))
_VERBS = (
    ("codes", "builtin code listing and validation", (
        ("list", "list builtin codes", _cmd_codes_list, ("--json",)),
        ("validate", "validate a code-definition file", _cmd_codes_validate, ("file", "--json")),
    )),
    ("check", "compatibility checks", (
        ("theorem1", "transversal-mask criterion for a stabilizer code", _cmd_check_theorem1,
         ("--code", "--json")),
        ("css", "classical two-condition criterion for a CSS pair", _cmd_check_css,
         (("--c1", {"required": True, "help": "matrix file for C1"}),
          ("--c2", {"required": True, "help": "matrix file for C2"}), "--json")),
        ("triortho", "pairwise/triple row-overlap parity of a matrix", _cmd_check_triortho,
         (("--matrix", {"required": True, "help": "matrix file"}), "--json")),
        ("diagonal", "logical action of a transversal diagonal gate", _cmd_check_diagonal,
         (("--code", {"help": None}), ("--gate", {"required": True, "choices": tuple(_DIAG_GATES)}), "--json")),
    )),
    ("run", "protocol runners", (
        ("a1", "two-qubit encrypted demo circuit", _cmd_run_a1, (*_RUN, "--force-outcomes")),
        ("storage", "masked storage with error correction", _cmd_run_storage,
         ("--code", "--keys", ("--error", {"default": "none", "help": "Pauli string or 'none'"}), *_RUN)),
        ("transversal-t", "transversal T on the masked rm15 block", _cmd_run_transversal_t,
         ("--keys", "--amps", *_RUN, "--force-outcomes")),
        ("logical-t", "logical-mask T on the nine-qubit code", _cmd_run_logical_t,
         ("--keys", "--amps", *_RUN, "--force-outcomes")),
    )),
    ("report", "derived reports", (
        ("resources", "register cost of one teleported gate", _cmd_report_resources,
         (("--n", {"type": int, "required": True}), "--json")),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hqec", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)
    for group, group_help, verbs in _VERBS:
        verb_sub = sub.add_parser(group, help=group_help).add_subparsers(dest="sub", required=True)
        for verb, verb_help, handler, arguments in verbs:
            p = verb_sub.add_parser(verb, help=verb_help)
            for arg in arguments:
                name, keywords = arg if isinstance(arg, tuple) else (arg, {})
                p.add_argument(name, **{**_OPTIONS.get(name, {}), **keywords})
            p.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, doc, lines = args.func(args)
        _emit(args, doc, lines)  # in the try: a failed write exits 2 too
        return code
    except (ValueError, OSError) as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except hqec.compat.ProtocolError as exc:  # IncompatibleCodeError included; not a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
