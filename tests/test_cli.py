"""Command-line behavior: outputs, file side effects, the exit-code contract.

Exit codes: 0 success, 1 usage, 2 invalid mathematical input, 3 internal,
4 verification or reproduction mismatch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wtdesigns import load_design
from wtdesigns.cli import main, parse_generator_text
from wtdesigns.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- generator grammar --------------------------------------------------------

def test_generator_grammar():
    gen = parse_generator_text("1,2;2,3", 5)
    assert gen.C.tolist() == [[1, 2], [2, 3]]
    with pytest.raises(InputError, match="malformed"):
        parse_generator_text("1,x", 5)
    with pytest.raises(InputError, match="width"):
        parse_generator_text("1,2;3", 5)
    with pytest.raises(InputError, match="empty"):
        parse_generator_text(";;", 5)


# --- construct ------------------------------------------------------------------

def test_construct_writes_design(tmp_path, capsys):
    out = tmp_path / "e4.txt"
    code, stdout, _ = run(
        capsys, "construct", "--q", "7", "--generators", "2,2",
        "--b", "6", "--williams", "--out", str(out),
    )
    assert code == 0
    assert "N=49 n=3 strength=2" in stdout
    assert "beta3=0.0000 beta4=0.0196" in stdout
    d = load_design(out)
    assert d.runs == 49


def test_construct_plain_regular(tmp_path, capsys):
    out = tmp_path / "d.txt"
    code, stdout, _ = run(
        capsys, "construct", "--q", "5", "--generators", "1,1", "--out", str(out),
    )
    assert code == 0
    assert "beta3=0.1250" in stdout


def test_construct_rejects_bad_level_count(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--q", "4", "--generators", "1,1",
        "--out", str(tmp_path / "x.txt"),
    )
    assert code == 2
    assert "error:" in err


def test_construct_rejects_bad_generator_text(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--q", "5", "--generators", "1,2;3",
        "--out", str(tmp_path / "x.txt"),
    )
    assert code == 2


def test_missing_out_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "--q", "5", "--generators", "1,1")
    assert code == 1


# --- beta -------------------------------------------------------------------------

def test_beta_from_file_matches_construction(tmp_path, capsys):
    out = tmp_path / "d.txt"
    run(capsys, "construct", "--q", "5", "--generators", "1,1", "--out", str(out))
    code, stdout, _ = run(capsys, "beta", "--design", str(out), "--kmax", "4")
    assert code == 0
    assert stdout.split() == ["0.0000", "0.0000", "0.1250", "0.5250"]


def test_beta_json_has_machine_precision(capsys):
    code, stdout, _ = run(
        capsys, "beta", "--q", "5", "--generators", "1,1", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["q"] == 5 and payload["n"] == 3
    assert len(payload["beta"]) == 12
    assert payload["beta"][2] == pytest.approx(0.125, abs=1e-12)


def test_beta_kmax_out_of_range_is_usage_error(capsys):
    code, _, err = run(
        capsys, "beta", "--q", "5", "--generators", "1,1", "--kmax", "99",
    )
    assert code == 1
    assert "kmax" in err


def test_beta_needs_a_design_source(capsys):
    code, _, err = run(capsys, "beta")
    assert code == 2
    assert "provide either" in err


# --- search ------------------------------------------------------------------------

def test_search_winner(capsys):
    code, stdout, _ = run(
        capsys, "search", "--q", "5", "--generators", "1,1",
        "--family", "williams",
    )
    assert code == 0
    assert "best b: 4" in stdout
    assert "evaluated=5" in stdout


def test_search_json(capsys):
    code, stdout, _ = run(
        capsys, "search", "--q", "5", "--generators", "1,1",
        "--family", "williams", "--json",
    )
    payload = json.loads(stdout)
    assert payload["b"] == [4]
    assert payload["ties"] == [[4]]


def test_search_missing_family_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--q", "5", "--generators", "1,1")
    assert code == 1
    assert "--family" in err


def test_search_large_scan_needs_force(capsys):
    code, _, err = run(
        capsys, "search", "--q", "7",
        "--generators", "1,1;1,2;1,4;1,5;2,5;2,6",
        "--family", "williams",
    )
    assert code == 2
    assert "--force" in err


# --- classify / count / searchq2 -----------------------------------------------------

def test_classify_output(capsys):
    code, stdout, _ = run(capsys, "classify", "--q", "7", "--generators", "2,2")
    assert code == 0
    assert stdout.strip() == "TypeII"


def test_count_output(capsys):
    code, stdout, _ = run(capsys, "count", "--q", "5", "--n", "3")
    assert code == 0
    assert stdout.splitlines() == ["typeI:   2", "typeII:  8", "typeIII: 8"]


def test_count_requires_n(capsys):
    code, _, _ = run(capsys, "count", "--q", "5")
    assert code == 1


def test_searchq2_json_schema_and_values(capsys):
    code, stdout, _ = run(capsys, "searchq2", "--q", "5", "--n", "3", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["standard"]["beta"] == pytest.approx([0.125, 0.525], abs=1e-9)
    assert payload["linear"]["generators"] == [[1, 2]]
    assert payload["williams"]["b"] == [4]


def test_searchq2_text_output(capsys):
    code, stdout, _ = run(capsys, "searchq2", "--q", "5", "--n", "3")
    assert code == 0
    assert "standard: beta3=0.1250 beta4=0.5250" in stdout
    assert "best williams:" in stdout


# --- model ---------------------------------------------------------------------------

def test_model_prints_matrix_and_variances(capsys):
    code, stdout, _ = run(
        capsys, "model", "--q", "5", "--generators", "1,2", "--b", "1",
    )
    assert code == 0
    assert "information matrix (3 decimals):" in stdout
    assert "variance factors:" in stdout
    assert "0.359" in stdout


def test_model_csv_written(tmp_path, capsys):
    csv_path = tmp_path / "info.csv"
    code, stdout, _ = run(
        capsys, "model", "--q", "5", "--generators", "1,1", "--b", "4",
        "--williams", "--csv", str(csv_path),
    )
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[1:4] == ["const", "x1", "x2"]


def test_model_reports_singularity(capsys):
    code, _, err = run(capsys, "model", "--q", "3", "--generators", "1,1")
    assert code == 2
    assert "singular" in err


# --- reproduce / verify -----------------------------------------------------------------

def test_reproduce_pass_exits_zero(tmp_path, capsys):
    csv_path = tmp_path / "table.txt"
    code, stdout, _ = run(
        capsys, "reproduce", "--table", "example1", "--csv", str(csv_path),
    )
    assert code == 0
    assert "PASS" in stdout
    assert csv_path.read_text() == stdout


def test_reproduce_mismatch_exits_four(capsys):
    code, stdout, _ = run(capsys, "reproduce", "--table", "recursive-counts")
    assert code == 4
    assert "FAIL" in stdout


def test_reproduce_unknown_table_is_usage_error(capsys):
    code, _, _ = run(capsys, "reproduce", "--table", "nope")
    assert code == 1


@pytest.mark.parametrize("theorem", ["1", "2", "4"])
def test_verify_passes(theorem, capsys):
    code, stdout, _ = run(capsys, "verify", "--theorem", theorem, "--q", "5")
    assert code == 0
    assert stdout.startswith("PASS")


def test_verify_rejects_unknown_theorem(capsys):
    code, _, _ = run(capsys, "verify", "--theorem", "3", "--q", "5")
    assert code == 1


def test_verify_nmax_range(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "1", "--q", "5", "--nmax", "9")
    assert code == 1
    assert "nmax" in err


def test_verify_failure_lists_the_first_twenty(monkeypatch, capsys):
    from wtdesigns import cli

    def failing(theorem, q, nmax):
        return [f"n=3 C=[[{i}]]: broken" for i in range(25)]

    monkeypatch.setattr(cli, "verify_theorem", failing)
    code, stdout, _ = run(capsys, "verify", "--theorem", "4", "--q", "7")
    assert code == 4
    lines = stdout.splitlines()
    assert lines[0] == "FAIL (mirror symmetry at the closed-form shift, q=7, n<=8):"
    assert lines[1:] == [f"  n=3 C=[[{i}]]: broken" for i in range(20)]


# recorded stdout, byte for byte: the theorem checks and the shift tables
# must print exactly this whatever path computes them
RECORDED_STDOUT = {
    ("verify", "--theorem", "1", "--q", "7"):
        "PASS (closed-form shift zeroes the degree-3 measure, q=7, n<=8)\n",
    ("verify", "--theorem", "2", "--q", "7"):
        "PASS (unique zero shift for type-II designs, q=7, n<=8)\n",
    ("verify", "--theorem", "4", "--q", "7"):
        "PASS (mirror symmetry at the closed-form shift, q=7, n<=8)\n",
    ("reproduce", "--table", "example1"):
        "table example1 (source: table: shift families of the 25-run one-generator design)\n"
        "b    linear b3/b4     williams b3/b4\n"
        "0    0.125 0.525      0.442 0.004\n"
        "1    0.125 0.525      0.168 0.021\n"
        "2    0.125 0.096      0.168 0.021\n"
        "3    0.000 0.686      0.442 0.004\n"
        "4    0.125 0.096      0.000 0.027\n"
        "PASS: 0 mismatch(es)\n",
    ("reproduce", "--table", "example5-scan"):
        "table example5-scan (source: table: degree-3 measure across all shifts, "
        "49-run one-generator design)\n"
        "b:     0  1  2  3  4  5  6\n"
        "beta3: 0.0009  0.0031  0.0047  0.0047  0.0031  0.0009  0.0000\n"
        "PASS: 0 mismatch(es)\n",
}


@pytest.mark.parametrize(
    "argv", list(RECORDED_STDOUT), ids=lambda argv: "-".join(a.lstrip("-") for a in argv)
)
def test_stdout_matches_recorded_bytes(capsys, argv):
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert stdout == RECORDED_STDOUT[argv]


# --- determinism -----------------------------------------------------------------------

def test_repeated_runs_are_identical(capsys):
    args = ("searchq2", "--q", "5", "--n", "4", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


Q2_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "q2-sweep.json"


@pytest.mark.parametrize("n", [3, 4])
def test_searchq2_json_matches_recorded_bytes(capsys, n):
    # JSON prints every digit of each measure, so a kernel that reorders
    # its floating-point reductions shows up here
    with open(Q2_REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)["outputs"][str(n)]
    code, stdout, _ = run(capsys, "searchq2", "--q", "7", "--n", str(n), "--json")
    assert code == 0
    assert stdout == want


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == 1
