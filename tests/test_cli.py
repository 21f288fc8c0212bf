import json
import time

import pytest

from hqec.cli import main


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

    def test_bad_keys(self, capsys):
        code, _, err = run_cli(capsys, "run", "storage", "--code", "shor", "--keys", "2,0")
        assert code == 2

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

    def test_check_triortho(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(
            "111111111111111\n000000011111111\n000111100001111\n"
            "011001100110011\n101010101010101\n"
        )
        code, out, _ = run_cli(capsys, "check", "triortho", "--matrix", str(f))
        assert code == 0
        assert "triorthogonal" in out

    def test_check_diagonal_rm15(self, capsys):
        code, out, _ = run_cli(capsys, "check", "diagonal", "--code", "rm15", "--gate", "T")
        assert code == 0
        assert "S-power 1" in out

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
        # last bit, so a one-ulp change in those probabilities fails here too
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
        assert doc["fidelity"] == 1.0000000000000002
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
