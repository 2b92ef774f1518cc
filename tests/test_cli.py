import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from braidhomotopy.cli import main, run_command
from braidhomotopy.presentations import presentation_from_json, presentation_to_json


def run(argv, stdin=b""):
    code, out, err = run_command(argv, stdin)
    return code, out.decode(), err.decode()


def test_pres_json_roundtrips_bit_exactly():
    code, out, err = run(["pres", "--family", "homotopy", "-n", "3", "-g", "1",
                          "--closed", "--lh-bound", "1", "--format", "json"])
    assert code == 0 and err == ""
    assert presentation_to_json(presentation_from_json(out)) == out


def test_pres_is_deterministic():
    argv = ["pres", "--family", "pure", "-n", "2", "-g", "1", "--punctured",
            "--lh-bound", "2", "--format", "json"]
    assert run(argv) == run(argv)


def test_pres_requires_explicit_bound():
    code, _, err = run(["pres", "--family", "homotopy", "-n", "3", "-g", "1", "--closed"])
    assert code == 2 and "lh-bound" in err
    code, _, err = run(["pres", "--family", "goldsmith", "-n", "3"])
    assert code == 2


def test_pres_text_format():
    code, out, _ = run(["pres", "--family", "surface", "-n", "2", "-g", "1"])
    assert code == 0
    assert "a1.1 a1.2 a1.1^-1 a1.2^-1 s1^-2" in out.splitlines()


def test_pres_usage_errors_exit_two():
    code, _, _ = run(["pres", "--family", "surface", "-n", "2"])
    assert code == 2
    code, _, _ = run(["pres", "--family", "nonsense", "-n", "2"])
    assert code == 2
    code, _, _ = run(["frobnicate"])
    assert code == 2


def test_verify_purity_pass():
    code, out, _ = run(["verify", "purity", "--family", "homotopy", "-n", "3",
                        "-g", "1", "--closed", "--lh-bound", "2"])
    assert code == 0 and "PASS" in out


def test_verify_purity_fault_exit_one_with_witness():
    code, out, _ = run(["verify", "purity", "--family", "homotopy", "-n", "3",
                        "-g", "1", "--closed", "--lh-bound", "1", "--inject-fault"])
    assert code == 1
    assert "witness: (1 2)" in out


def test_verify_json_format():
    code, out, _ = run(["verify", "eq31", "-n", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failures"] == 0


def test_verify_from_input_file(tmp_path):
    code, out, _ = run(["pres", "--family", "homotopy", "-n", "3", "-g", "1",
                        "--closed", "--lh-bound", "1", "--format", "json"])
    path = tmp_path / "p.json"
    path.write_text(out)
    code, out2, _ = run(["verify", "purity", "--input", str(path)])
    assert code == 0 and "PASS" in out2
    # corrupt one relator: permutation purity must fail with exit 1
    doc = json.loads(out)
    doc["relators"][0]["word"] += " s1"
    path.write_text(json.dumps(doc))
    code, out3, _ = run(["verify", "purity", "--input", str(path)])
    assert code == 1 and "FAIL" in out3


def test_reduce_dehornoy_trivial():
    code, out, _ = run(["reduce", "--oracle", "dehornoy", "s1 s1^-1", "-n", "2"])
    assert (code, out) == (0, "trivial\n")


def test_reduce_free_and_magnus():
    code, out, _ = run(["reduce", "--oracle", "free", "s1 s2 s2^-1", "-n", "3"])
    assert (code, out) == (0, "s1\n")
    code, out, _ = run(["reduce", "--oracle", "magnus", "x y x^-1 y^-1"])
    assert (code, out) == (0, "nontrivial\n")
    code, out, _ = run(["reduce", "--oracle", "magnus", "x y x y^-1 x^-1 y x^-1 y^-1"])
    assert (code, out) == (0, "trivial\n")


def test_reduce_compare():
    code, out, _ = run(["reduce", "--oracle", "dehornoy", "--compare", "", "s1", "-n", "2"])
    assert (code, out) == (0, "<\n")
    code, out, _ = run(["reduce", "--oracle", "dehornoy", "--compare", "s1", "s1", "-n", "2"])
    assert (code, out) == (0, "=\n")


def test_reduce_from_stdin():
    code, out, _ = run(["reduce", "--oracle", "dehornoy", "-n", "3"],
                       b"s1 s2 s1 s2^-1 s1^-1 s2^-1\ns2^-1\n")
    assert (code, out) == (0, "trivial\nnegative\n")


def test_reduce_step_cap_exit_three():
    code, _, err = run(["reduce", "--oracle", "dehornoy", "--step-cap", "1",
                        "s3 s1 s2^2 s1^-1 s3^-1 s1 s2^-2 s1^-1", "-n", "4"])
    assert code == 3 and "resource" in err


def test_tc_counts_and_overflow():
    code, out, _ = run(["tc", "--family", "symmetric", "-n", "4"])
    assert (code, out) == (0, "24\n")
    code, out, _ = run(["tc", "--family", "surface", "-n", "2", "-g", "1",
                        "--subgroup", "pure"])
    assert (code, out) == (0, "2\n")
    code, _, err = run(["tc", "--family", "symmetric", "-n", "5", "--max-cosets", "10"])
    assert code == 3 and "overflow" in err


def test_tc_csv_output(tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run(["tc", "--family", "symmetric", "-n", "3",
                        "--table-out", str(path)])
    assert code == 0 and out == "6\n"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "coset,d1,d1^-1,d2,d2^-1"
    assert len(lines) == 7


def test_h1_expectations():
    code, out, _ = run(["h1", "--family", "homotopy", "-n", "3", "-g", "2",
                        "--closed", "--lh-bound", "1", "--expect", "Z^4 + Z/2"])
    assert (code, out) == (0, "Z^4 + Z/2\n")
    code, _, err = run(["h1", "--family", "goldsmith", "-n", "4", "--lh-bound", "0",
                        "--expect", "Z^2"])
    assert code == 1 and "expected" in err


def test_output_flag_writes_file(tmp_path):
    path = tmp_path / "pres.json"
    code, out, _ = run(["pres", "--family", "symmetric", "-n", "3",
                        "--format", "json", "--output", str(path)])
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["family"] == "symmetric"


def test_pres_with_auxiliary_generators():
    code, out, _ = run(["pres", "--family", "homotopy", "-n", "3", "-g", "1",
                        "--closed", "--lh-bound", "0", "--format", "json",
                        "--with-auxiliary"])
    assert code == 0
    doc = json.loads(out)
    assert "t1.3" in doc["generators"] and "a3.2" in doc["generators"]
    labels = {entry["label"].split("[")[0] for entry in doc["relators"]}
    assert {"R7", "R8", "R9"} <= labels


def test_tc_overflow_reports_live_cosets():
    code, out, err = run(["tc", "--family", "surface", "-n", "2", "-g", "1",
                          "--max-cosets", "500"])
    match = re.fullmatch(r"overflow after 500 cosets \((\d+) live\)\n", err)
    assert code == 3 and out == "" and match and 1 <= int(match.group(1)) <= 500


def test_reduce_with_words_does_not_wait_for_stdin():
    import braidhomotopy

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "braidhomotopy", "reduce", "s1", "-n", "2"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    try:
        code = proc.wait(timeout=10)
        assert (code, proc.stdout.read()) == (0, b"s1\n")
    finally:
        proc.kill()
        proc.stdin.close()
        proc.stdout.close()


def test_tc_uses_the_coincidence_a_deduction_finds():
    # This enumeration defines exactly 164 cosets.  When the gap's first
    # definition has already filled the back entry, the deduction finds a
    # coincidence.  Skipping it still closes the table, because later scans
    # rediscover the coincidence, but only after 170 definitions.  So at this
    # cap the skip shows up as an overflow (exit 3).
    code, out, err = run(["tc", "--family", "surface", "-n", "4", "-g", "2",
                          "--subgroup", "pure", "--max-cosets", "164"])
    assert (code, out, err) == (0, "24\n", "")


@pytest.mark.parametrize("n,bound", [(n, bound) for n in (3, 4, 5) for bound in (1, 2)])
def test_tc_pure_subgroup_of_goldsmith_has_index_n_factorial(n, bound):
    # the disk case: P_n is spelled through the bands t_{i,j} alone
    code, out, err = run(["tc", "--family", "goldsmith", "-n", str(n), "--lh-bound", str(bound),
                          "--subgroup", "pure"])
    assert (code, out, err) == (0, f"{math.factorial(n)}\n", "")


@pytest.mark.parametrize("flags", [["symmetric", "-n", "3"],
                                   ["pure", "-n", "2", "-g", "1", "--punctured", "--lh-bound", "1"]])
def test_tc_pure_subgroup_needs_crossing_letters(flags):
    assert run(["tc", "--family", *flags, "--subgroup", "pure"]) == (
        2, "", "usage error: --subgroup pure is spelled in crossings, "
               "which symmetric and pure lack\n")


def test_verify_genus_flag():
    code, out, _ = run(["verify", "eq32", "-n", "3", "-g", "0", "--lh-bound", "2"])
    assert code == 0 and out.startswith("# eq32 n=3 g=0 bound=2: PASS (51 checks, 0 failures)")
    code, out, _ = run(["verify", "eq32", "-n", "3", "--lh-bound", "1"])
    assert code == 0 and out.startswith("# eq32 n=3 g=1 bound=1: PASS")
    for argv in (["eq31", "-n", "3", "-g", "-1"], ["eq32", "-n", "3", "-g", "-1"],
                 ["transport", "-n", "3", "-g", "-2"], ["a-expansion", "-n", "3", "-g", "0"],
                 ["a-expansion", "-n", "3", "-g", "-1"]):
        code, out, err = run(["verify", *argv])
        assert (code, out) == (2, "") and "genus" in err, argv


def test_verify_a_expansion_fault_fails_one_record():
    code, out, _ = run(["verify", "a-expansion", "-n", "3", "-g", "2", "--inject-fault"])
    assert code == 1
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")] == [
        "A-expansion[s=1]"]
    code, out, _ = run(["verify", "a-expansion", "-n", "3", "-g", "2"])
    assert code == 0 and "FAIL" not in out


def test_h1_input_on_a_matrix_prone_to_entry_growth(tmp_path):
    # Integer elimination can double the entry sizes of this 7x8 exponent-sum
    # matrix (entries at most 9) on every pass.  A child process with a
    # timeout turns such a hang into a failure.
    import braidhomotopy

    rows = [[4, 1, -3, 0, -7, 0, 8, -5], [0, 6, 0, 0, 7, 0, -4, 0], [0, 0, -8, 1, 0, 0, 0, 0],
            [3, 9, 0, 9, 8, 0, 7, 0], [0, -2, 0, -9, 0, 9, 0, 0],
            [-3, -1, -6, 1, -4, -7, 1, 8], [-8, 6, 0, -8, 1, -5, 0, 4]]
    doc = {"family": "matrix", "n": 1, "g": 0, "closed": None, "lh_bound": None,
           "generators": [f"x{j}" for j in range(1, 9)],
           "relators": [{"label": f"r{i}",
                         "word": " ".join(f"x{j}^{k}" for j, k in enumerate(row, 1) if k)}
                        for i, row in enumerate(rows, 1)],
           "families": []}
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "braidhomotopy", "h1", "--input", str(path)],
                          capture_output=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"Z + Z/2 + Z/6\n", b"")


def test_h1_expect_rejects_invariants_no_group_has():
    # Z/0 would divide by zero in the divisor-chain check, Z^-1 is a negative
    # free rank, and Z/1 can never match: computed torsion is always >= 2.
    for expect in ("Z/0 + Z/2", "Z^-1", "Z/1", "Z/-2 + Z/4", "Z + Z^-2"):
        code, out, err = run(["h1", "--family", "symmetric", "-n", "3", "--expect", expect])
        assert (code, out) == (2, ""), expect
        assert err.startswith("error: ") and err.count("\n") == 1, expect


def test_reduce_refuses_a_negative_step_cap():
    # like --max-cosets 0, a negative cap is a usage error, whatever the word
    for argv in (["s1 s2 s1^-1"], ["s1"], ["--compare", "s1", "s2"]):
        code, out, err = run(["reduce", "--oracle", "dehornoy", "--step-cap", "-1", *argv,
                              "-n", "3"])
        assert (code, out, err) == (2, "", "error: step_cap must be >= 0, got -1\n")
    code, out, _ = run(["reduce", "--oracle", "dehornoy", "--step-cap", "0", "s1", "-n", "3"])
    assert (code, out) == (0, "positive\n")
    code, _, err = run(["reduce", "--oracle", "dehornoy", "--step-cap", "0",
                        "s1 s2 s1^-1", "-n", "3"])
    assert code == 3 and "exceeded 0 steps" in err


def test_verify_transport_refuses_to_pass_vacuously():
    # no strand-i letter to check (n = 1; n = 2 with g = 0), or a fault that
    # only touches loop letters on a surface without them (g = 0)
    for argv in (["-n", "1"], ["-n", "2", "-g", "0"], ["-n", "0"],
                 ["-n", "3", "-g", "0", "--inject-fault"]):
        code, out, err = run(["verify", "transport", *argv])
        assert code == 2 and out == "" and err.startswith("error: transport "), argv
    code, out, _ = run(["verify", "transport", "-n", "3", "-g", "0"])
    assert code == 0 and "PASS (1 checks, 0 failures)" in out
    for argv in (["-n", "3", "--inject-fault"], ["-n", "2", "-g", "1", "--inject-fault"]):
        code, out, _ = run(["verify", "transport", *argv])
        assert code == 1 and "FAIL" in out, argv


HELP = [(["-h"], "usage: braidhomotopy [-h] {pres,verify,reduce,tc,h1}"),
        (["verify", "--help"], "usage: braidhomotopy verify [-h] {purity,"),
        (["verify", "eq31", "-h"], "usage: braidhomotopy verify eq31 [-h] -n N")]


@pytest.mark.parametrize("argv,usage", HELP, ids=[" ".join(h[0]) for h in HELP])
def test_help_is_returned_as_stdout_with_exit_zero(argv, usage):
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out.startswith(usage) and "show this help message and exit" in out


def test_main_prints_the_help(capsysbinary):
    assert main(["verify", "eq31", "-h"]) == 0
    captured = capsysbinary.readouterr()
    assert (captured.out, captured.err) == run_command(["verify", "eq31", "-h"])[1:]
    assert captured.out.startswith(b"usage: braidhomotopy verify eq31")
