import contextlib
import io
import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import BUILTIN_NAMES, gf2, protocol
from hqec.cli import main
from hqec.codes import builtin_code
from hqec.pauli import parse_pauli
from hqec.rng import SplitMix64
from hqec.states import TOL
from oracles import UnreadRows, format_code_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_theorem1_compatible(self, capsys):
        code, out, _ = run_cli(capsys, "check", "theorem1", "--code", "shor")
        assert code == 0
        assert "compatible" in out

    def test_theorem1_incompatible(self, capsys):
        code, out, _ = run_cli(capsys, "check", "theorem1", "--code", "synthetic_incompatible")
        assert code == 1
        assert "ZZZ" in out

    def test_unknown_verb(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "triortho", "--matrix", "/definitely/missing.txt")
        assert code == 2
        assert "missing.txt" in err

    def test_missing_matrix_file_named_once(self, capsys, tmp_path):
        present = tmp_path / "present.txt"
        present.write_text("11\n")
        missing = str(tmp_path / "nope.txt")
        for argv in (("css", "--c1", missing, "--c2", str(present)),
                     ("triortho", "--matrix", missing)):
            assert run_cli(capsys, "check", *argv) == (2, "", f"error: no such file: {missing}\n")

    def test_directory_is_not_a_file(self, capsys, tmp_path):
        d = str(tmp_path)
        for argv in (("codes", "validate", d), ("check", "theorem1", "--code", d),
                     ("check", "triortho", "--matrix", d)):
            assert run_cli(capsys, *argv) == (2, "", f"error: not a file: {d}\n")

    @pytest.mark.parametrize("argv", [("codes", "validate", "{f}"), ("check", "theorem1", "--code", "{f}"),
                                      ("check", "triortho", "--matrix", "{f}"),
                                      ("check", "css", "--c1", "{f}", "--c2", "{f}")],
                             ids=["codes-validate", "theorem1", "triortho", "css"])
    def test_file_that_is_not_utf8_text(self, capsys, tmp_path, argv):
        # the message names the file, as every other input error does
        f = tmp_path / "bad.txt"
        f.write_bytes(b"\xff\xfe\x00bad")
        argv = [a.format(f=f) for a in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {f}: not UTF-8 text (invalid start byte at byte 0)\n")

    def test_non_hermitian_logical_is_invalid(self, capsys, tmp_path):
        # logical Z = iZZZ squares to -I: every verb that reads the code refuses it
        f = tmp_path / "izzz.code"
        f.write_text("3 1\nZZI\nIZZ\nXXX\niZZZ\n")
        violation = "logical Z[1] (iZZZ) is not Hermitian"
        code, out, err = run_cli(capsys, "codes", "validate", str(f))
        assert (code, err) == (1, "") and f"  violation: {violation}\n" in out
        for argv in (("theorem1",), ("diagonal", "--gate", "T")):
            code, out, err = run_cli(capsys, "check", *argv, "--code", str(f))
            assert (code, out) == (2, "")
            assert err == f"error: {f} is not a valid stabilizer code: {violation}\n"

    def test_malformed_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("11\n1x\n")
        code, _, err = run_cli(capsys, "check", "triortho", "--matrix", str(bad))
        assert code == 2
        assert "bad.txt" in err

    def test_storage_incompatible_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "storage", "--code", "synthetic_incompatible", "--keys", "0,0",
        )
        assert code == 1
        assert "ZZZ" in err

    @pytest.mark.parametrize("error, recovered, want_err", [
        ("XZIIIII", None, "error: syndrome (0, 1, 0, 1, 0, 0) matches no weight-<=1 error\n"),
        ("XXIIIII", False, ""),
    ], ids=["no-weight-1-match", "weight-2-misread"])
    def test_storage_unrecovered_exit_one(self, capsys, error, recovered, want_err):
        # a syndrome no weight-1 error explains, and a weight-2 error that
        # the decoder misreads: exit 1 with no traceback either way
        code, out, err = run_cli(capsys, "run", "storage", "--code", "steane", "--keys", "1,0",
                                 "--error", error, "--json")
        assert (code, err) == (1, want_err)
        assert (json.loads(out)["recovered"] if out else None) is recovered

    def test_bad_keys(self, capsys):
        code, _, err = run_cli(capsys, "run", "storage", "--code", "shor", "--keys", "2,0")
        assert code == 2

    def test_storage_reads_a_code_file(self, capsys, tmp_path):
        # a file copy of bit_flip stores as the builtin does, under the file's name
        f = tmp_path / "copy.code"
        f.write_text(format_code_text(builtin_code("bit_flip")))
        argv = ("run", "storage", "--keys", "0,1", "--error", "IXI", "--json")
        _, builtin, _ = run_cli(capsys, *argv, "--code", "bit_flip")
        code, out, err = run_cli(capsys, *argv, "--code", str(f))
        assert (code, err) == (0, "")
        assert json.loads(out) == {**json.loads(builtin), "code": "copy"}

    def test_storage_error_length(self, capsys):
        argv = ("run", "storage", "--code", "rm15", "--keys", "1,1", "--error", "XX")
        assert run_cli(capsys, *argv) == (2, "", "error: --error acts on 2 qubits, rm15 has 15\n")

    def test_storage_needs_one_logical_qubit(self, capsys, tmp_path):
        f = tmp_path / "k0.code"
        f.write_text("2 0\nZZ\nXX\n")
        code, out, err = run_cli(capsys, "run", "storage", "--code", str(f), "--keys", "1,1")
        assert (code, out) == (2, "")
        assert err == "error: codeword construction supports k=1, got k=0\n"

    @pytest.mark.parametrize("verb", [("codes", "validate"), ("check", "theorem1", "--code")])
    @pytest.mark.parametrize("text", ["0 0\n", "3 5\nZZI\nIZZ\nXXX\nZZZ\nXXX\nZZZ\n",
                                      "2 -1\nZZ\n"])
    def test_impossible_code_header(self, capsys, tmp_path, verb, text):
        f = tmp_path / "impossible.code"
        f.write_text(text)
        code, out, err = run_cli(capsys, *verb, str(f))
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "header needs" in err

    @pytest.mark.parametrize("argv", [("codes", "validate", "{}"), ("check", "theorem1", "--code", "{}"),
                                      ("run", "storage", "--code", "{}", "--keys", "0,0")],
                             ids=["validate", "theorem1", "storage"])
    def test_operator_on_the_wrong_qubit_count(self, capsys, tmp_path, argv):
        # the first generator acts on 2 qubits of a 3-qubit code
        f = tmp_path / "narrow.code"
        f.write_text("3 1\nZZ\nIZZ\nXXX\nZZZ\n")
        want = f"error: {f}: operator ZZ acts on 2 qubits, expected 3\n"
        assert run_cli(capsys, *(a.format(f) for a in argv)) == (2, "", want)

    @pytest.mark.parametrize(
        "argv, pairs",
        [
            (("run", "a1"), 2),
            (("run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8"), 15),
            (("run", "logical-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8"), 1),
        ],
    )
    def test_forced_outcome_count(self, capsys, argv, pairs):
        too_few, too_many = "00" * (pairs - 1), "00" * (pairs + 1)
        for bits in filter(None, (too_few, too_many)):
            code, out, err = run_cli(capsys, *argv, "--force-outcomes", bits)
            assert code == 2 and out == ""
            assert err.count("error:") == 1 and f"{pairs} bit pair" in err
        code, _, _ = run_cli(capsys, *argv, "--force-outcomes", "00" * pairs)
        assert code == 0

    def test_storage_takes_no_forced_outcomes(self, capsys):
        code, out, err = run_cli(capsys, "run", "storage", "--code", "steane", "--keys", "1,1",
                                 "--force-outcomes", "0101")
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "--force-outcomes" in err

    def test_transversal_t_one_forced_pair(self, capsys):
        code, out, err = run_cli(capsys, "run", "transversal-t", "--keys", "1,1",
                                 "--amps", "0.6,0,0,0.8", "--force-outcomes", "00")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("amps", ["nan,0,0,0.8", "0.6,inf,0,0.8", "0.6,0,-inf,0.8"])
    @pytest.mark.parametrize("verb", ["transversal-t", "logical-t"])
    def test_non_finite_amps(self, capsys, verb, amps):
        code, out, err = run_cli(capsys, "run", verb, "--keys", "1,1", "--amps", amps)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_out_of_u64_range(self, capsys, seed):
        code, out, err = run_cli(capsys, "run", "a1", "--seed", seed)
        assert code == 2 and out == ""
        assert "--seed" in err

    def test_largest_u64_seed(self, capsys):
        code, _, _ = run_cli(capsys, "run", "a1", "--seed", str((1 << 64) - 1))
        assert code == 0

    def test_check_diagonal_validates_code_first(self, capsys, tmp_path):
        # ZZ chain with the first link negated: logical Z = Z^14 is a product
        # of generators, so the code is invalid; without validation the
        # codeword search scans every one of the 2^14 basis seeds first
        n = 14
        chain = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
        f = tmp_path / "signed_chain.code"
        f.write_text("\n".join([f"{n} 1", "-" + chain[0], *chain[1:], "X" * n, "Z" * n]) + "\n")
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "check", "diagonal", "--code", str(f), "--gate", "T")
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == ""
        assert "logical Z[1] lies in the stabilizer group" in err
        assert elapsed < 1.0

    def test_check_diagonal_guards_codeword_size(self, capsys, tmp_path):
        # phase-flip repetition code on 21 qubits: a valid code whose
        # codewords would hold 2^21 terms each
        n = 21
        gens = ["I" * i + "XX" + "I" * (n - i - 2) for i in range(n - 1)]
        f = tmp_path / "phase_flip21.code"
        f.write_text("\n".join([f"{n} 1", *gens, "Z" * n, "X" * n]) + "\n")
        code, out, err = run_cli(capsys, "check", "diagonal", "--code", str(f), "--gate", "T")
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "guard" in err
        assert "Traceback" not in err

    def test_check_diagonal_valid_signed_chain(self, capsys, tmp_path):
        # the first codeword seed that survives the projectors is 2^14 - 2
        n = 14
        chain = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
        f = tmp_path / "signed_chain.code"
        lz = "Z" + "I" * (n - 1)
        f.write_text("\n".join([f"{n} 1", "-" + chain[0], *chain[1:], "X" * n, lz]) + "\n")
        code, out, _ = run_cli(capsys, "check", "diagonal", "--code", str(f), "--gate", "T",
                               "--json")
        assert code == 0
        assert json.loads(out)["leakage"] < 1e-12

    def test_check_diagonal_past_64_qubits(self, capsys, tmp_path):
        # ZZ chain on 65 qubits, logical X = X^65 and Z = Z1: transversal T
        # is logical T, omega^65 = omega on |1_L> = |1...1>
        n = 65
        chain = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
        f = tmp_path / "chain65.code"
        f.write_text("\n".join([f"{n} 1", *chain, "X" * n, "Z" + "I" * (n - 1)]) + "\n")
        assert run_cli(capsys, "codes", "validate", str(f))[0] == 0
        code, out, err = run_cli(capsys, "check", "diagonal", "--code", str(f), "--gate", "T", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        phases = [complex(*p) for p in doc["logical_phases"]]
        assert max(abs(phases[0] - 1), abs(phases[1] - (1 + 1j) / 2**0.5)) < 1e-12
        correction = doc["correction"]
        assert (correction["logical_s_power"], correction["logical_z_power"]) == (0, 0)


class TestVerbs:
    def test_codes_list(self, capsys):
        code, out, _ = run_cli(capsys, "codes", "list")
        assert code == 0
        for name in ("bit_flip", "shor", "steane", "rm15"):
            assert name in out

    def test_codes_validate(self, capsys, tmp_path):
        f = tmp_path / "bitflip.code"
        f.write_text("3 1\nZZI\nIZZ\nXXX\nZZZ\n")
        code, out, _ = run_cli(capsys, "codes", "validate", str(f))
        assert code == 0 and "valid" in out

    def test_codes_validate_invalid(self, capsys, tmp_path):
        f = tmp_path / "bad.code"
        f.write_text("3 1\nZZI\nIZZ\nXXX\nZZI\n")  # logical Z inside the stabilizer
        code, out, _ = run_cli(capsys, "codes", "validate", str(f))
        assert code == 1
        assert "INVALID" in out

    def test_check_css(self, capsys, tmp_path):
        c1 = tmp_path / "c1.txt"
        c1.write_text("1000011\n0100101\n0010110\n0001111\n")
        c2 = tmp_path / "c2.txt"
        c2.write_text("0001111\n0110011\n1010101\n")
        code, out, _ = run_cli(capsys, "check", "css", "--c1", str(c1), "--c2", str(c2))
        assert code == 0
        assert "compatible" in out

    def test_check_css_not_a_subcode(self, capsys, tmp_path):
        c1 = tmp_path / "c1.txt"
        c1.write_text("1100\n")
        c2 = tmp_path / "c2.txt"
        c2.write_text("0011\n")
        code, out, err = run_cli(capsys, "check", "css", "--c1", str(c1), "--c2", str(c2))
        assert (code, out, err) == (2, "", "error: C2 is not a subcode of C1\n")

    def test_check_css_dimension_above_enumeration_guard(self, capsys, tmp_path):
        # C1: the 25 unit rows; C2: the 24 adjacent pairs, all of even weight
        n = 25
        c1 = tmp_path / "c1.txt"
        c1.write_text("".join("0" * i + "1" + "0" * (n - 1 - i) + "\n" for i in range(n)))
        c2 = tmp_path / "c2.txt"
        c2.write_text("".join("0" * i + "11" + "0" * (n - 2 - i) + "\n" for i in range(n - 1)))
        code, out, err = run_cli(capsys, "check", "css", "--c1", str(c1), "--c2", str(c2), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verdict"] and doc["e_in_c1"] and doc["c2_all_even"]

    def test_check_triortho(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(
            "111111111111111\n000000011111111\n000111100001111\n"
            "011001100110011\n101010101010101\n"
        )
        code, out, _ = run_cli(capsys, "check", "triortho", "--matrix", str(f))
        assert code == 0
        assert "triorthogonal" in out

    def test_check_triortho_refuses_too_many_triples(self, capsys, tmp_path, monkeypatch):
        # 186 single-1 rows: C(186, 3) = 1 055 240 triples, past 2^20; no row
        # is looked up, so none is enumerated
        f = tmp_path / "rows.txt"
        f.write_text("1\n" * 186)
        parse = gf2.BitMatrix.from_text
        monkeypatch.setattr(gf2.BitMatrix, "from_text",
                            lambda text: gf2.BitMatrix(UnreadRows(parse(text).rows), 1))
        code, out, err = run_cli(capsys, "check", "triortho", "--matrix", str(f), "--json")
        assert (code, out) == (2, "")
        assert err == (f"error: {f}: 186 rows: 1055240 row triples exceed the enumeration guard 2^20\n")

    def test_check_diagonal_rm15(self, capsys):
        code, out, _ = run_cli(capsys, "check", "diagonal", "--code", "rm15", "--gate", "T")
        assert code == 0
        assert "S-power 1" in out

    @pytest.mark.parametrize("gate", ["T", "Sd"])
    def test_check_diagonal_not_diagonal_on_code_space(self, capsys, tmp_path, gate):
        # |0_L> = |+>: the gate keeps the one-qubit code space but is no logical phase
        f = tmp_path / "plus.code"
        f.write_text("1 1\nZ\nX\n")
        code, out, err = run_cli(capsys, "check", "diagonal", "--code", str(f), "--gate", gate)
        assert (code, err) == (1, "")
        assert "  preserves the code space but is not diagonal on it" in out.splitlines()

    def test_check_diagonal_shor_leaks(self, capsys):
        code, out, _ = run_cli(capsys, "check", "diagonal", "--code", "shor", "--gate", "T")
        assert code == 1
        assert "does not preserve" in out

    def test_run_a1(self, capsys):
        code, out, _ = run_cli(capsys, "run", "a1", "--seed", "7")
        assert code == 0
        assert "final fidelity 1.0000000000" in out

    def test_run_storage(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "storage", "--code", "shor", "--keys", "1,1", "--error", "IIIIZIIII",
        )
        assert code == 0
        assert "recovered" in out

    # the human lines of run storage, exactly as the CLI printed them when
    # the report still held its error and correction as strings
    @pytest.mark.parametrize("argv, want_code, want", [
        (("--code", "steane", "--keys", "1,1", "--error", "IIYIIII"), 0,
         "storage on steane, keys (1, 1), error IIYIIII\n"
         "syndrome: [1, 1, 0, 1, 1, 0]\n"
         "correction applied: IIYIIII\n"
         "final fidelity 1.0000000000 (recovered)\n"),
        (("--code", "bit_flip", "--keys", "0,1", "--error", "none"), 0,
         "storage on bit_flip, keys (0, 1), error none\n"
         "syndrome: [0, 0]\n"
         "correction applied: III\n"
         "final fidelity 1.0000000000 (recovered)\n"),
        (("--code", "steane", "--keys", "1,1", "--error", "XXIIIII"), 1,
         "storage on steane, keys (1, 1), error XXIIIII\n"
         "syndrome: [0, 0, 0, 1, 1, 0]\n"
         "correction applied: IIXIIII\n"
         "final fidelity 0.9600000000 (FAILED)\n"),
    ], ids=["steane-y", "bit-flip-none", "steane-xx-failed"])
    def test_run_storage_human_lines(self, capsys, argv, want_code, want):
        assert run_cli(capsys, "run", "storage", *argv) == (want_code, want, "")

    def test_run_transversal_t(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "transversal-t", "--keys", "1,0", "--amps", "0.6,0,0,0.8", "--seed", "5",
        )
        assert code == 0
        assert "final fidelity 1.0000000000" in out

    def test_run_logical_t(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "logical-t", "--keys", "0,1", "--amps", "0.6,0,0.8,0", "--seed", "5",
        )
        assert code == 0
        assert "27 qubits" in out

    @pytest.mark.parametrize("verb", ["transversal-t", "logical-t"])
    @pytest.mark.parametrize("amps", ["1e308,0,1e308,0", "1e-320,0,0,0", "5e-324,0,5e-324,0",
                                      "1.7e308,0,1.7e308,0"])
    def test_extreme_amplitudes(self, capsys, verb, amps):
        # their squared norms overflow or underflow; the runners normalize without squaring
        code, out, err = run_cli(capsys, "run", verb, "--keys", "1,1", f"--amps={amps}", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["fidelity"] >= 1 - TOL

    def test_report_resources(self, capsys):
        code, out, _ = run_cli(capsys, "report", "resources", "--n", "9")
        assert code == 0
        assert "27" in out

    def test_force_outcomes(self, capsys):
        code, out, _ = run_cli(capsys, "run", "a1", "--seed", "1", "--force-outcomes", "1001")
        assert code == 0
        assert "final fidelity 1.0000000000" in out


class TestJsonAndDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("codes", "list"),
            ("check", "theorem1", "--code", "steane"),
            ("check", "diagonal", "--code", "rm15", "--gate", "T"),
            ("run", "a1", "--seed", "3"),
            ("run", "storage", "--code", "bit_flip", "--keys", "1,0", "--error", "XII"),
            ("run", "transversal-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8", "--seed", "2"),
            ("run", "logical-t", "--keys", "1,1", "--amps", "0.6,0,0,0.8", "--seed", "2"),
            ("report", "resources", "--n", "15"),
        ],
    )
    def test_json_parses_single_document(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert isinstance(doc, dict)

    def test_json_matches_human_fields(self, capsys):
        _, human, _ = run_cli(capsys, "report", "resources", "--n", "9")
        _, raw, _ = run_cli(capsys, "report", "resources", "--n", "9", "--json")
        doc = json.loads(raw)
        # every numeric field of the document appears in the human rendering
        for key in ("q_data", "q_aux_phys", "q_tot_phys"):
            assert str(doc[key]) in human

    def test_same_seed_same_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "a1", "--seed", "42", "--json")
        _, out2, _ = run_cli(capsys, "run", "a1", "--seed", "42", "--json")
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "run", "transversal-t", "--keys", "1,0",
                             "--amps", "1,0,1,0", "--seed", "9", "--json")
        _, out4, _ = run_cli(capsys, "run", "transversal-t", "--keys", "1,0",
                             "--amps", "1,0,1,0", "--seed", "9", "--json")
        assert out3 == out4

    def test_sampled_path_is_pinned(self, capsys):
        # literal outcomes, keys and fidelity of seeded runs.  The outcomes
        # follow the sampling probabilities; the a1 fidelity is pinned to the
        # last bit, so a one-ulp change in the amplitudes fails here too
        _, out, _ = run_cli(capsys, "run", "transversal-t", "--keys", "1,1",
                            "--amps", "0.6,0,0,0.8", "--seed", "5", "--json")
        doc = json.loads(out)
        assert doc["outcomes"] == [[0, 1], [1, 1], [0, 0], [0, 0], [0, 0], [0, 1], [1, 1], [1, 0],
                                   [0, 1], [1, 0], [0, 1], [0, 0], [1, 1], [0, 1], [1, 1]]
        assert doc["fidelity"] >= 1 - 1e-10
        _, out, _ = run_cli(capsys, "run", "a1", "--seed", "7", "--json")
        doc = json.loads(out)
        assert doc["keys_initial"] == [[1, 1], [1, 0]]
        assert doc["keys_final"] == [[0, 1], [0, 0]]
        assert doc["fidelity"] == 0.9999999999999999
        events = doc["transcript"]["events"]
        meas = [(e["rotation"], e["outcome"]) for e in events if e["kind"] == "measurement"]
        assert meas == [("S^1", [1, 1]), ("Sd^1", [1, 1])]
        assert events[-1] == {"kind": "final_correction", "pauli": "ZI"}

    def test_same_seed_same_bytes_across_processes(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "hqec.cli", "run", "a1", "--seed", "42", "--json"]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_dump_state(self, capsys, tmp_path):
        dump = tmp_path / "state.txt"
        code, _, _ = run_cli(capsys, "run", "a1", "--seed", "4", "--dump-state", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines
        bitstrings = [ln.split()[0] for ln in lines]
        assert bitstrings == sorted(bitstrings)
        for ln in lines:
            bits, re_s, im_s = ln.split()
            assert set(bits) <= {"0", "1"}
            float(re_s), float(im_s)


    @pytest.mark.parametrize("argv, runner, args", [
        (("run", "storage", "--code", "steane", "--keys", "1,1", "--error", "IIYIIII"),
         "run_storage_protocol", ("steane", (0.6, 0.8), (1, 1), parse_pauli("IIYIIII"))),
        (("run", "transversal-t", "--keys", "1,0", "--amps", "0.6,0,0,0.8"),
         "run_transversal_t_protocol", ((0.6, 0.8j), (1, 0))),
        (("run", "logical-t", "--keys", "0,1", "--amps", "0.6,0,0,0.8"),
         "run_logical_t_protocol", ((0.6, 0.8j), (0, 1))),
    ])
    def test_dump_state_every_run_verb(self, capsys, tmp_path, argv, runner, args):
        dump = tmp_path / "state.txt"
        code, out, _ = run_cli(capsys, *argv, "--seed", "4", "--dump-state", str(dump))
        assert code == 0 and out
        rep = getattr(protocol, runner)(*args, rng=SplitMix64(4))
        assert dump.read_text() == "\n".join(rep.final_state.dump_lines()) + "\n"
        code, out, err = run_cli(capsys, *argv, "--dump-state", str(tmp_path))
        assert code == 2 and out == "" and err.count("error:") == 1

# -- random argv from the verb grammar ---------------------------------------

CODE_TEXTS = [format_code_text(builtin_code(n)) for n in ("bit_flip", "steane", "shor",
                                                          "synthetic_incompatible")]
CODE_TEXTS += ["3 1\nZZI\nIZZ\nXXX\nZZI\n", "2 1\n-ZZ\nXX\nZI\n", "2 0\nZZ\nXX\n"]
MATRIX_TEXTS = ["1000011\n0100101\n0010110\n0001111\n", "0001111\n0110011\n1010101\n",
                "111111111111111\n000000011111111\n000111100001111\n011001100110011\n",
                "11\n1x\n", "# only a comment\n"]
JUNK = "01IXYZ-+i# \n2"
_file_ids = itertools.count()


def _text(data, texts) -> str:
    """One of `texts`, kept, replaced by junk, or with one character or line changed."""
    text = data.draw(st.sampled_from(texts))
    how = data.draw(st.sampled_from(("keep", "junk", "char", "line")))
    if how == "junk":
        return data.draw(st.text(alphabet=JUNK, max_size=40))
    if how == "char":
        pos = data.draw(st.integers(0, len(text)))
        return text[:pos] + data.draw(st.sampled_from(JUNK)) + text[pos + 1:]
    if how == "line":
        lines = text.splitlines()
        del lines[data.draw(st.integers(0, len(lines) - 1))]
        return "\n".join(lines)
    return text


def _path(data, root, texts) -> str:
    kind = data.draw(st.sampled_from(("file", "file", "file", "missing", "directory")))
    if kind == "missing":
        return str(root / "missing.txt")
    if kind == "directory":
        return str(root)
    path = root / f"input{next(_file_ids)}.txt"
    path.write_text(_text(data, texts))
    return str(path)


def _argv(data, root) -> list[str]:
    def pick(*options):
        return data.draw(st.sampled_from(options))

    def code():
        name = pick(*BUILTIN_NAMES, "no_such_code", "file")
        return _path(data, root, CODE_TEXTS) if name == "file" else name

    def keys():
        return pick("0,0", "0,1", "1,0", "1,1", "2,0", "1", "a,b", "")

    def amps():
        # the fixed extremes overflow and underflow a plain norm; four finite
        # doubles reach them too, and any doubles the input errors
        parts = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
                                   max_size=4) | st.lists(st.floats(), min_size=3, max_size=5))
        return pick("0.6,0,0,0.8", "1,0,1,0", "0,0,0,0", "x,0,0,1", "1e308,0,1e308,0",
                    "5e-324,0,0,5e-324", ",".join(map(repr, parts)))

    def runner_options():
        argv = []
        if data.draw(st.booleans()):
            argv += ["--seed", str(data.draw(st.integers(-1, 1 << 64)))]
        if data.draw(st.booleans()):
            argv += ["--force-outcomes", pick("00", "0110", "00" * 15, "0x", "")]
        if data.draw(st.booleans()):
            argv += ["--dump-state", pick(str(root / "dump.txt"), str(root))]
        return argv

    verb = pick("codes list", "codes validate", "check theorem1", "check css", "check triortho",
                "check diagonal", "run a1", "run storage", "run transversal-t", "run logical-t",
                "report resources", "frobnicate")
    argv = verb.split()
    if verb == "codes validate":
        argv.append(_path(data, root, CODE_TEXTS))
    elif verb == "check theorem1":
        argv += ["--code", code()]
    elif verb == "check css":
        argv += ["--c1", _path(data, root, MATRIX_TEXTS), "--c2", _path(data, root, MATRIX_TEXTS)]
    elif verb == "check triortho":
        argv += ["--matrix", _path(data, root, MATRIX_TEXTS)]
    elif verb == "check diagonal":
        argv += ["--code", code(), "--gate", pick("T", "Td", "Sd", "X")]
    elif verb == "run a1":
        argv += runner_options()
    elif verb == "run storage":
        argv += ["--code", code(), "--keys", keys(),
                 "--error", pick("none", "XII", "IYI", "IIIIZIIII", "ZZ", "Q", "")]
        argv += runner_options()
    elif verb in ("run transversal-t", "run logical-t"):
        argv += ["--keys", keys(), "--amps=" + amps()] + runner_options()
    elif verb == "report resources":
        argv += ["--n", pick("9", "1", "0", "-3", "x")]
    if data.draw(st.booleans()):
        argv.append("--json")
    if data.draw(st.integers(0, 9)) == 0 and len(argv) > 1:  # drop one word
        del argv[data.draw(st.integers(0, len(argv) - 1))]
    return argv


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_inputs")


class TestRandomInput:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_exit_code_and_one_error_line(self, input_dir, data):
        argv = _argv(data, input_dir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) <= 1
        if code == 2:
            assert out == "" and len(errors) == 1
        elif "--json" in argv and out:
            json.loads(out)
