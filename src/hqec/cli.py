"""Command-line surface.

Exit codes: 0 for success / compatible / fidelity-pass, 1 for incompatible
or failed assertions, 2 for usage and input-format errors.  Every verb
supports --json (a single JSON document mirroring the human rendering);
run verbs take --seed and --dump-state, the T verbs --force-outcomes too.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import codes as codes_mod
from . import compat as compat_mod
from . import gf2
from .pauli import parse_pauli
from .rng import SplitMix64

# `protocol` and `states` load only with `check diagonal` and the run verbs,
# each after checking its arguments: the other verbs and every input error
# run without them.  No verb loads numpy.

_DIAG_PHASES = {"T": "e^(i*pi/4)", "Td": "e^(-i*pi/4)", "Sd": "-i"}


class InputError(ValueError):
    """Bad file, name, or argument value; maps to exit code 2."""


def _load_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {path}")
    return p.read_text()


def _load_code(name_or_path: str) -> codes_mod.StabilizerCode:
    if name_or_path in codes_mod.BUILTIN_NAMES:
        return codes_mod.builtin_code(name_or_path)
    text = _load_text(name_or_path)
    try:
        return codes_mod.parse_code_text(text, name=Path(name_or_path).stem)
    except ValueError as exc:
        raise InputError(f"{name_or_path}: {exc}") from exc


def _load_valid_code(name_or_path: str) -> codes_mod.StabilizerCode:
    code = _load_code(name_or_path)
    val = codes_mod.validate_code(code)
    if not val.ok:
        raise InputError(f"{name_or_path} is not a valid stabilizer code: {val.violations[0]}")
    return code


def _load_classical(path: str) -> gf2.ClassicalCode:
    try:
        return gf2.code_from_rows(gf2.BitMatrix.from_text(_load_text(path)))
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


def _rng(seed: int) -> SplitMix64:
    if not 0 <= seed < 1 << 64:
        raise InputError(f"--seed must be in 0..2^64-1, got {seed}")
    return SplitMix64(seed)


def _emit(args, doc: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(doc))
    else:
        for line in human_lines:
            print(line)


def _dump_state(args, state) -> None:
    if args.dump_state:
        Path(args.dump_state).write_text("\n".join(state.dump_lines()) + "\n")


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_codes_list(args) -> int:
    rows = []
    for name in codes_mod.BUILTIN_NAMES:
        c = codes_mod.builtin_code(name)
        rows.append({"name": name, "n": c.n, "k": c.k, "css": c.css_origin is not None})
    _emit(args, {"codes": rows}, [f"{r['name']}  [[{r['n']},{r['k']}]]" for r in rows])
    return 0


def _cmd_codes_validate(args) -> int:
    code = _load_code(args.file)
    rep = codes_mod.validate_code(code)
    lines = [f"code {code.name}: {'valid' if rep.ok else 'INVALID'}"]
    lines += [f"  violation: {v}" for v in rep.violations]
    _emit(args, rep.as_dict(), lines)
    return 0 if rep.ok else 1


def _cmd_check_theorem1(args) -> int:
    code = _load_valid_code(args.code)
    rep = compat_mod.stabilizer_mask_check(code)
    lines = [f"code {code.name}: {'compatible' if rep.verdict else 'INCOMPATIBLE'}"]
    for g in rep.generator_checks:
        lines.append(
            f"  g{g.index} {g.generator}: X-mask {'ok' if g.x_commutes else 'ANTICOMMUTES'}, "
            f"Z-mask {'ok' if g.z_commutes else 'ANTICOMMUTES'}"
        )
    if rep.css_verdict is not None:
        lines.append(f"  css check: e in C1 = {rep.e_in_c1}, C2 all even = {rep.c2_all_even}, "
                     f"agrees = {rep.cross_check_ok}")
    _emit(args, rep.as_dict(), lines)
    return 0 if rep.verdict else 1


def _cmd_check_css(args) -> int:
    c1 = _load_classical(args.c1)
    c2 = _load_classical(args.c2)
    try:
        rep = compat_mod.css_mask_check(c1, c2)
    except codes_mod.SubcodeError as exc:
        raise InputError(str(exc)) from exc
    lines = [
        f"css pair (n={c1.length}, k1={c1.dimension}, k2={c2.dimension}): "
        f"{'compatible' if rep.verdict else 'INCOMPATIBLE'}",
        f"  all-ones word in C1: {rep.e_in_c1}",
        f"  C2 all even weight:  {rep.c2_all_even}",
    ]
    _emit(args, rep.as_dict(), lines)
    return 0 if rep.verdict else 1


def _cmd_check_triortho(args) -> int:
    try:
        matrix = gf2.BitMatrix.from_text(_load_text(args.matrix))
        rep = gf2.triorthogonality_check(matrix)
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
    _emit(args, rep.as_dict(), lines)
    return 0 if rep.ok else 1


def _cmd_check_diagonal(args) -> int:
    code = _load_valid_code(args.code)
    cs = codes_mod.logical_codewords(code)
    omega = compat_mod.OMEGA
    phase = {"T": omega, "Td": omega.conjugate(), "Sd": -1j}[args.gate]
    rep = compat_mod.diagonal_gate_action(cs, phase, label=f"{args.gate}^x{code.n}")
    lines = [f"code {code.name}, transversal {args.gate} (phase {_DIAG_PHASES[args.gate]}):",
             f"  leakage: {rep.leakage:.12g}"]
    if rep.logical_phases is None:
        from .states import TOL

        stays = rep.leakage < TOL
        lines.append("  preserves the code space but is not diagonal on it" if stays
                     else "  does not preserve the code space")
        _emit(args, rep.as_dict(), lines)
        return 1
    for i, p in enumerate(rep.logical_phases):
        lines.append(f"  logical phase on |{i}>: {p.real:+.12f}{p.imag:+.12f}i")
    if args.gate == "T":
        corr = compat_mod.clifford_correction_for_t(cs)
        if corr is not None:
            lines.append(
                f"  logical correction: S-power {corr.logical_s_power}, "
                f"Z-power {corr.logical_z_power}"
            )
            doc = rep.as_dict()
            doc["correction"] = corr.as_dict()
            _emit(args, doc, lines)
            return 0
    _emit(args, rep.as_dict(), lines)
    return 0


def _cmd_run_a1(args) -> int:
    rng = _rng(args.seed)
    from . import protocol  # the demo circuit sets the --force-outcomes length

    t_gates = sum(1 for g in protocol.DEMO_CIRCUIT if not g.is_clifford)
    forced = _parse_forced(args.force_outcomes, t_gates)
    rep, dec, _ = protocol.run_demo_circuit(rng, forced_outcomes=forced)
    _dump_state(args, dec)
    lines = [f"demo circuit {protocol.format_circuit(protocol.DEMO_CIRCUIT)}",
             f"keys initial: {rep.keys_initial}",
             f"keys final:   {rep.keys_final}",
             f"final fidelity {rep.fidelity:.10f}"]
    _emit(args, rep.as_dict(), lines)
    return 0 if rep.fidelity >= 1 - protocol.TOL else 1


def _cmd_run_storage(args) -> int:
    rng = _rng(args.seed)
    keys = _parse_keys(args.keys)
    error = None
    if args.error.lower() != "none":
        try:
            error = parse_pauli(args.error)
        except ValueError as exc:
            raise InputError(f"--error: {exc}") from exc
    from . import protocol

    rep = protocol.run_storage_protocol(args.code_name, (0.6, 0.8), keys, error, rng)
    _dump_state(args, rep.final_state)
    lines = [f"storage on {rep.code_name}, keys {rep.keys}, error {rep.injected_error or 'none'}",
             f"syndrome: {list(rep.syndrome)}",
             f"correction applied: {rep.correction}",
             f"final fidelity {rep.fidelity:.10f} ({'recovered' if rep.recovered else 'FAILED'})"]
    _emit(args, rep.as_dict(), lines)
    return 0 if rep.recovered else 1


def _cmd_run_transversal_t(args) -> int:
    rng = _rng(args.seed)
    keys = _parse_keys(args.keys)
    amps = _parse_amps(args.amps)
    forced = _parse_forced(args.force_outcomes, 15)  # one pair per rm15 qubit
    from . import protocol

    rep = protocol.run_transversal_t_protocol(amps, keys, rng, forced)
    _dump_state(args, rep.final_state)
    lines = [f"transversal T on rm15, keys {rep.keys}",
             f"teleportation outcomes: {[list(o) for o in rep.outcomes]}",
             f"correction: S-power {rep.correction['logical_s_power']}",
             f"register peak {rep.max_live_qubits} qubits, {rep.max_terms} terms",
             f"final fidelity {rep.fidelity:.10f}"]
    _emit(args, rep.as_dict(), lines)
    return 0


def _cmd_run_logical_t(args) -> int:
    rng = _rng(args.seed)
    keys = _parse_keys(args.keys)
    amps = _parse_amps(args.amps)
    forced = _parse_forced(args.force_outcomes, 1)
    from . import protocol

    rep = protocol.run_logical_t_protocol(amps, keys, rng, forced[0] if forced else None)
    _dump_state(args, rep.final_state)
    lines = [f"logical T on shor, keys {rep.keys}",
             f"logical Bell outcome: {list(rep.outcome)}",
             f"register {rep.register_qubits} qubits, peak {rep.max_terms} stored terms",
             f"final fidelity {rep.fidelity:.10f}"]
    _emit(args, rep.as_dict(), lines)
    return 0


def _cmd_report_resources(args) -> int:
    if args.n < 1:
        raise InputError(f"--n must be positive, got {args.n}")
    rep = compat_mod.resource_report(args.n)
    lines = [f"block size n = {rep.n}",
             f"data qubits:          {rep.q_data}",
             f"physical aux qubits:  {rep.q_aux_phys} (n Bell pairs)",
             f"physical total:       {rep.q_tot_phys}",
             f"logical aux qubits:   {rep.q_aux_log} (one encoded Bell pair)",
             f"logical total:        {rep.q_tot_log}"]
    _emit(args, rep.as_dict(), lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, runner: bool = False, forced: bool = False):
    p.add_argument("--json", action="store_true", help="emit a single JSON document")
    if runner:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
        p.add_argument("--dump-state", default=None, help="write the final state dump here")
    if forced:
        p.add_argument("--force-outcomes", default=None,
                       help="bit string consumed pairwise as measurement outcomes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hqec", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    codes_p = sub.add_parser("codes", help="builtin code listing and validation")
    codes_sub = codes_p.add_subparsers(dest="sub", required=True)
    p = codes_sub.add_parser("list", help="list builtin codes")
    _add_common(p)
    p.set_defaults(func=_cmd_codes_list)
    p = codes_sub.add_parser("validate", help="validate a code-definition file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_codes_validate)

    check_p = sub.add_parser("check", help="compatibility checks")
    check_sub = check_p.add_subparsers(dest="sub", required=True)
    p = check_sub.add_parser("theorem1", help="transversal-mask criterion for a stabilizer code")
    p.add_argument("--code", required=True, help="builtin name or code file")
    _add_common(p)
    p.set_defaults(func=_cmd_check_theorem1)
    p = check_sub.add_parser("css", help="classical two-condition criterion for a CSS pair")
    p.add_argument("--c1", required=True, help="matrix file for C1")
    p.add_argument("--c2", required=True, help="matrix file for C2")
    _add_common(p)
    p.set_defaults(func=_cmd_check_css)
    p = check_sub.add_parser("triortho", help="pairwise/triple row-overlap parity of a matrix")
    p.add_argument("--matrix", required=True, help="matrix file")
    _add_common(p)
    p.set_defaults(func=_cmd_check_triortho)
    p = check_sub.add_parser("diagonal", help="logical action of a transversal diagonal gate")
    p.add_argument("--code", required=True)
    p.add_argument("--gate", required=True, choices=("T", "Td", "Sd"))
    _add_common(p)
    p.set_defaults(func=_cmd_check_diagonal)

    run_p = sub.add_parser("run", help="protocol runners")
    run_sub = run_p.add_subparsers(dest="sub", required=True)
    p = run_sub.add_parser("a1", help="two-qubit encrypted demo circuit")
    _add_common(p, runner=True, forced=True)
    p.set_defaults(func=_cmd_run_a1)
    p = run_sub.add_parser("storage", help="masked storage with error correction")
    p.add_argument("--code", dest="code_name", required=True)
    p.add_argument("--keys", required=True, help="a,b")
    p.add_argument("--error", default="none", help="Pauli string or 'none'")
    _add_common(p, runner=True)
    p.set_defaults(func=_cmd_run_storage)
    p = run_sub.add_parser("transversal-t", help="transversal T on the masked rm15 block")
    p.add_argument("--keys", required=True, help="a,b")
    p.add_argument("--amps", required=True, help="re,im,re,im for c0,c1")
    _add_common(p, runner=True, forced=True)
    p.set_defaults(func=_cmd_run_transversal_t)
    p = run_sub.add_parser("logical-t", help="logical-mask T on the nine-qubit code")
    p.add_argument("--keys", required=True, help="a,b")
    p.add_argument("--amps", required=True, help="re,im,re,im for c0,c1")
    _add_common(p, runner=True, forced=True)
    p.set_defaults(func=_cmd_run_logical_t)

    report_p = sub.add_parser("report", help="derived reports")
    report_sub = report_p.add_subparsers(dest="sub", required=True)
    p = report_sub.add_parser("resources", help="register cost of one teleported gate")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_report_resources)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except compat_mod.ProtocolError as exc:  # IncompatibleCodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
