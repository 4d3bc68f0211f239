"""Command-line behavior: outputs, file side effects, the exit-code contract.

Exit codes: 0 success, 1 usage, 2 invalid mathematical input or a file that
cannot be read or written, 3 internal, 4 verification or reproduction mismatch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wtdesigns import load_design
from wtdesigns.cli import build_parser, main, parse_generator_text
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


def test_construct_refuses_missing_generators(tmp_path, capsys):
    # construct reads its flags as beta and model do: invalid input, exit 2
    out = tmp_path / "x.txt"
    code, stdout, err = run(capsys, "construct", "--q", "5", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "--generators" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "beta"])
def test_non_integer_shift_is_refused(tmp_path, capsys, command):
    out = tmp_path / "x.txt"
    argv = [command, "--q", "5", "--generators", "1,1", "--b", "x"]
    if command == "construct":
        argv += ["--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert "malformed shift vector 'x'" in err
    assert not out.exists()


def test_non_integer_design_entry_is_refused(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("# q=5 N=2 n=2\n0 1\n1 x\n", encoding="utf-8")
    code, stdout, err = run(capsys, "beta", "--design", str(path))
    assert code == 2
    assert stdout == ""
    assert f"{path}:3: levels must be integers" in err


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
    for kmax in ("99", "0"):
        code, stdout, err = run(
            capsys, "beta", "--q", "5", "--generators", "1,1", "--kmax", kmax,
        )
        assert code == 1
        assert stdout == ""
        assert "--kmax must lie in 1..12" in err


def test_beta_over_the_pair_work_cap_is_refused(capsys):
    # 2,401 runs, 5 columns: N^2 * K * q = 2401^2 * 30 * 7, over
    # aberration.PAIR_WORK_CAP; --kmax 4 enumerates above 512 runs instead
    code, stdout, err = run(capsys, "beta", "--q", "7", "--generators", "1,1,1,1")
    assert code == 2
    assert stdout == ""
    assert err == "error: pair-kernel work N^2*k*q = 1210608210 exceeds the cap of 500000000\n"
    code, stdout, _ = run(capsys, "beta", "--q", "7", "--generators", "1,1,1,1", "--kmax", "4")
    assert code == 0 and len(stdout.split()) == 4


def test_search_kmax_out_of_range_is_usage_error(capsys, monkeypatch):
    # beta's rule and message, checked before any search work
    from wtdesigns import optimal

    def no_work(*args, **kwargs):
        raise AssertionError("search work started before the --kmax check")

    monkeypatch.setattr(optimal, "shift_grid_beta", no_work)
    monkeypatch.setattr(optimal, "_triple_survivors", no_work)
    for kmax in ("13", "0"):
        code, stdout, err = run(
            capsys, "search", "--q", "5", "--generators", "1,1", "--family", "williams",
            "--kmax", kmax,
        )
        assert code == 1
        assert stdout == ""
        assert "--kmax must lie in 1..12" in err
    # before the scan-size check too: 7^6 shift vectors, no --force
    code, _, err = run(
        capsys, "search", "--q", "7", "--generators", "1,1;1,2;1,4;1,5;2,5;2,6",
        "--family", "williams", "--kmax", "0",
    )
    assert code == 1
    assert "--kmax must lie in 1..48" in err


def test_beta_needs_a_design_source(capsys):
    code, _, err = run(capsys, "beta")
    assert code == 2
    assert "provide either" in err


@pytest.mark.parametrize("command", ["beta", "model"])
def test_design_file_with_generator_flags_is_usage_error(tmp_path, capsys, command):
    # --design would drop these flags; refused before the file is read, so a
    # missing file still gives the usage error
    missing = tmp_path / "missing.txt"
    for flags, named in [
        (["--williams"], "--williams"),
        (["--q", "5", "--generators", "1,1", "--b", "2"], "--q, --generators, --b"),
    ]:
        code, stdout, err = run(capsys, command, "--design", str(missing), *flags)
        assert code == 1
        assert stdout == ""
        assert err == f"error: --design cannot be combined with {named}\n"


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


def test_search_refuses_a_design_over_the_run_cap_before_the_grid(capsys, monkeypatch):
    from wtdesigns import designs, optimal

    def no_work(*args, **kwargs):
        raise AssertionError("grid work started before the run cap check")

    monkeypatch.setattr(designs, "RUN_CAP", 100)
    monkeypatch.setattr(optimal, "_support_table", no_work)
    code, stdout, err = run(
        capsys, "search", "--q", "5", "--generators", "1,1,1", "--family", "linear",
    )
    assert code == 2
    assert stdout == ""
    assert "run count 125 exceeds the cap of 100" in err


@pytest.mark.parametrize("argv", [
    ("searchq2", "--q", "13", "--n", "8"),  # C(12,6) * 6^6 = 43.1M sets
    ("verify", "--theorem", "1", "--q", "13", "--nmax", "14"),  # n = 7: 6.2M sets
    ("verify", "--theorem", "4", "--q", "11", "--nmax", "8"),  # n = 8: 3.3M sets
])
def test_oversized_q2_cells_are_refused_before_any_work(capsys, monkeypatch, argv):
    from wtdesigns import aberration, optimal

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    # an internal error would exit 3; the cell builder reads combinations
    # after its cap check, and the kernels fetch the basis through these two
    # modules
    for name in ("combinations", "beta_pattern", "orthonormal_basis"):
        monkeypatch.setattr(optimal, name, no_work)
    monkeypatch.setattr(aberration, "orthonormal_basis", no_work)
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert "over the cap of 2000000" in err


@pytest.mark.parametrize("q", [29, 31])
@pytest.mark.parametrize("argv", [
    ("construct", "--generators", "1,1", "--out", "{out}"),
    ("beta", "--generators", "1,1"),
    ("search", "--generators", "1,1", "--family", "williams"),
    ("searchq2", "--n", "4"),  # 74,088 sets at q=29, under the cell cap
    ("searchq2", "--n", "5"),  # over the cell cap: the level limit is still the message
    ("model", "--generators", "1,1"),
])
def test_float_measures_refuse_q_above_max_levels_before_any_work(
    capsys, monkeypatch, tmp_path, argv, q
):
    from wtdesigns import cli, optimal

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the level check")

    # an internal error would exit 3: the cell builder reads combinations and
    # every command but searchq2 builds its design through build_design
    monkeypatch.setattr(optimal, "combinations", no_work)
    monkeypatch.setattr(cli, "build_design", no_work)
    out = tmp_path / "design.txt"
    argv = [arg.format(out=out) for arg in argv]
    code, stdout, err = run(capsys, argv[0], "--q", str(q), *argv[1:])
    assert code == 2
    assert stdout == ""
    assert f"q={q} exceeds 23, the largest level count" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["beta", "model"])
def test_design_files_above_max_levels_are_refused(capsys, tmp_path, command):
    from wtdesigns import GeneratorSet, expand, save_design

    path = tmp_path / "q29.txt"
    save_design(expand(GeneratorSet(29, [[1, 1]])), path)
    code, stdout, err = run(capsys, command, "--design", str(path))
    assert (code, stdout) == (2, "")
    assert "q=29 exceeds 23" in err


def test_level_free_commands_run_above_max_levels(capsys):
    # classify reads no basis (nor does theorem 4, whose q=29 output is
    # recorded below); count refuses q=29 as untabulated, not by the level limit
    assert run(capsys, "classify", "--q", "29", "--generators", "1,1;1,2")[0] == 0
    code, _, err = run(capsys, "count", "--q", "29", "--n", "3")
    assert code == 2 and "tabulated" in err


def test_q2_cells_up_to_the_cap_run(capsys, monkeypatch):
    from wtdesigns import optimal

    # q=7 has C(6,2) * 3^2 = 135 reduced sets at n=4 and 540 at n=5
    monkeypatch.setattr(optimal, "SEARCH_CAP", 135)
    assert run(capsys, "searchq2", "--q", "7", "--n", "4")[0] == 0
    assert run(capsys, "verify", "--theorem", "4", "--q", "7", "--nmax", "4")[0] == 0
    assert run(capsys, "verify", "--theorem", "4", "--q", "7", "--nmax", "5")[0] == 2
    # theorem 2 builds no cell above n = 4, whatever nmax says
    assert run(capsys, "verify", "--theorem", "2", "--q", "7", "--nmax", "8")[0] == 0
    monkeypatch.setattr(optimal, "SEARCH_CAP", 134)
    assert run(capsys, "searchq2", "--q", "7", "--n", "4")[0] == 2
    assert run(capsys, "verify", "--theorem", "2", "--q", "7", "--nmax", "8")[0] == 2


@pytest.mark.slow
def test_searchq2_q13_n5_still_runs(capsys):
    code, stdout, _ = run(capsys, "searchq2", "--q", "13", "--n", "5")
    assert code == 0
    assert stdout.startswith("standard: ")


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


def test_model_reports_singularity(tmp_path, capsys):
    # refused before any output: no partial report, no CSV file
    csv_path = tmp_path / "info.csv"
    code, stdout, err = run(
        capsys, "model", "--q", "3", "--generators", "1,1", "--csv", str(csv_path),
    )
    assert code == 2
    assert "singular" in err
    assert stdout == ""
    assert not csv_path.exists()


# --- files that cannot be read or written ---------------------------------------

@pytest.mark.parametrize("argv", [
    ("beta", "--design", "{missing}"),
    ("beta", "--design", "{dir}"),
    ("construct", "--q", "5", "--generators", "1,1", "--out", "{missing}/x.txt"),
    ("reproduce", "--table", "q2-25run", "--csv", "{missing}/x.csv"),
], ids=["beta-missing", "beta-directory", "construct-out", "reproduce-csv"])
def test_unusable_files_are_input_errors(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing, dir=tmp_path) for a in argv]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and str(tmp_path) in err
    assert not missing.exists()


# --- reproduce / verify -----------------------------------------------------------------

def test_reproduce_pass_exits_zero(tmp_path, capsys):
    csv_path = tmp_path / "table.txt"
    code, stdout, _ = run(
        capsys, "reproduce", "--table", "example1", "--csv", str(csv_path),
    )
    assert code == 0
    assert "PASS" in stdout
    assert csv_path.read_text() == stdout


# stdout of the per-start closure that the stacked closure replaced
RECURSIVE_COUNTS_STDOUT = (
    "table recursive-counts (source: table: recursive-design counts, 25-run and 49-run)\n"
    "q  n  typeI  typeII  typeIII\n"
    "5  3      2       8        8\n"
    "5  4      6      24       24\n"
    "5  5     20      32       32\n"
    "5  6     16      16       16\n"
    "7  3      2      14       18\n"
    "7  4      6     133      135\n"
    "7  5     20     540      540\n"
    "7  6     70    1215     1215\n"
    "7  7    252    1458     1458\n"
    "7  8    267     729      729\n"
    "FAIL: 6 mismatch(es)\n"
    "q=5 n=3 typeII: got 8, expected 6\n"
    "q=5 n=4 typeII: got 24, expected 22\n"
    "q=7 n=3 typeII: got 14, expected 10\n"
    "q=7 n=4 typeII: got 133, expected 99\n"
    "q=7 n=5 typeII: got 540, expected 517\n"
    "q=7 n=6 typeII: got 1215, expected 1214\n"
)


def test_reproduce_mismatch_exits_four(capsys):
    code, stdout, _ = run(capsys, "reproduce", "--table", "recursive-counts")
    assert code == 4
    assert "FAIL" in stdout
    assert stdout == RECURSIVE_COUNTS_STDOUT


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
    for nmax in ("9", "0"):
        code, stdout, err = run(capsys, "verify", "--theorem", "1", "--q", "5", "--nmax", nmax)
        assert code == 1
        assert stdout == ""
        assert "--nmax must lie in 3..6" in err


def test_verify_default_nmax_stays_under_the_cap(capsys):
    # q=23 n=5 holds 2,049,740 sets, over SEARCH_CAP: the default stops at n=4
    code, stdout, _ = run(capsys, "verify", "--theorem", "1", "--q", "23")
    assert code == 0
    assert stdout == "PASS (closed-form shift zeroes the degree-3 measure, q=23, n<=4)\n"


def test_verify_failure_lists_the_first_twenty(monkeypatch, capsys):
    from wtdesigns import cli

    def failing(theorem, q, nmax):
        return [f"n=3 C=[[{i}]]: broken" for i in range(25)]

    monkeypatch.setattr(cli, "verify_theorem", failing)
    code, stdout, _ = run(capsys, "verify", "--theorem", "4", "--q", "7")
    assert code == 4
    lines = stdout.splitlines()
    assert lines[0] == "FAIL (mirror symmetry at the closed-form shift, q=7, n<=8):"
    assert lines[1:] == [f"  n=3 C=[[{i}]]: broken" for i in range(20)] + ["  ... and 5 more"]


def test_verify_failure_of_twenty_sets_lists_them_all(monkeypatch, capsys):
    from wtdesigns import cli

    monkeypatch.setattr(
        cli, "verify_theorem", lambda theorem, q, nmax: [f"set {i}" for i in range(20)]
    )
    code, stdout, _ = run(capsys, "verify", "--theorem", "4", "--q", "7")
    assert code == 4
    assert stdout.splitlines()[1:] == [f"  set {i}" for i in range(20)]


# recorded stdout, byte for byte: the theorem checks and the shift tables
# must print exactly this whatever path computes them
RECORDED_STDOUT = {
    ("verify", "--theorem", "1", "--q", "7"):
        "PASS (closed-form shift zeroes the degree-3 measure, q=7, n<=8)\n",
    ("verify", "--theorem", "2", "--q", "7"):
        "PASS (unique zero shift for type-II designs, q=7, n<=4)\n",
    ("verify", "--theorem", "2", "--q", "11"):
        "PASS (unique zero shift for type-II designs, q=11, n<=4)\n",
    ("verify", "--theorem", "4", "--q", "7"):
        "PASS (mirror symmetry at the closed-form shift, q=7, n<=8)\n",
    ("verify", "--theorem", "4", "--q", "13"):
        "PASS (mirror symmetry at the closed-form shift, q=13, n<=5)\n",
    ("verify", "--theorem", "4", "--q", "17"):
        "PASS (mirror symmetry at the closed-form shift, q=17, n<=5)\n",
    ("verify", "--theorem", "4", "--q", "19"):
        "PASS (mirror symmetry at the closed-form shift, q=19, n<=5)\n",
    ("verify", "--theorem", "4", "--q", "23"):
        "PASS (mirror symmetry at the closed-form shift, q=23, n<=4)\n",
    ("verify", "--theorem", "4", "--q", "29"):
        "PASS (mirror symmetry at the closed-form shift, q=29, n<=4)\n",
    ("verify", "--theorem", "4", "--q", "31"):
        "PASS (mirror symmetry at the closed-form shift, q=31, n<=4)\n",
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


LARGE_Q2_REFERENCE = Path(__file__).resolve().parent / "reference" / "searchq2.json"
with open(LARGE_Q2_REFERENCE, encoding="utf-8") as fh:
    LARGE_Q2_OUTPUTS = json.load(fh)["outputs"]


@pytest.mark.parametrize("cell", list(LARGE_Q2_OUTPUTS))
def test_searchq2_json_matches_recorded_bytes_on_large_cells(capsys, cell):
    # 121- to 289-run members, recorded before the search stopped building
    # their full patterns, and the q = 3 and 5 cells, recorded while the
    # winner's record still carried one
    want = LARGE_Q2_OUTPUTS[cell]
    q, n = cell.split(",")
    code, stdout, _ = run(capsys, "searchq2", "--q", q, "--n", n, "--json")
    assert code == 0
    assert stdout == want


ZERO_SET_REFERENCE = LARGE_Q2_REFERENCE.with_name("zero-sets.json")
with open(ZERO_SET_REFERENCE, encoding="utf-8") as fh:
    ZERO_SET_OUTPUTS = json.load(fh)["outputs"]


@pytest.mark.parametrize("argv", list(ZERO_SET_OUTPUTS))
def test_zero_set_calls_match_recorded_bytes(capsys, argv):
    # theorem 2 at q = 3..13 and the tables that count or check beta_3 = 0,
    # recorded while these read a 1e-9 screen on the float grid
    want = ZERO_SET_OUTPUTS[argv]
    code, stdout, stderr = run(capsys, *argv.split())
    assert (code, stdout, stderr) == (want["code"], want["stdout"], want["stderr"])


HARD_SEARCH_REFERENCE = LARGE_Q2_REFERENCE.with_name("hard-searches.json")
with open(HARD_SEARCH_REFERENCE, encoding="utf-8") as fh:
    HARD_SEARCH_OUTPUTS = json.load(fh)["outputs"]


@pytest.mark.parametrize("argv", list(HARD_SEARCH_OUTPUTS))
def test_hard_searches_match_recorded_bytes(capsys, argv):
    # recorded while search cut beta_3 on the float grid: the q=7 conic (d = 3,
    # every one of 7^5 shift vectors in the band, decided at k = 4 with 4 and
    # 8 ties) and the q = 17 and 23 sets whose band holds nonzero totals
    want = HARD_SEARCH_OUTPUTS[argv]
    code, stdout, stderr = run(capsys, *argv.split())
    assert (code, stdout, stderr) == (want["code"], want["stdout"], want["stderr"])


SHIFT_REFERENCE = Q2_REFERENCE.with_name("shift-scan.json")


def _recorded_shift_searches():
    # every pooled 125- and 625-shift set of the benchmark, and two 7^6- and
    # one 11^6-shift set, whose searches prune on shift_grid_beta
    with open(SHIFT_REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    cells = [(5, 5, 16), (5, 6, 16), (7, 8, 2), (11, 8, 1)]
    return [
        (q, gens, family, ref["outputs"][f"{q}|{n}|{family}|{gens}"])
        for q, n, count in cells
        for gens in ref["pool"][f"{q},{n}"][:count]
        for family in ("linear", "williams")
    ]


def test_search_json_matches_recorded_bytes(capsys):
    for q, gens, family, want in _recorded_shift_searches():
        code, stdout, _ = run(
            capsys, "search", "--q", str(q), "--generators", gens,
            "--family", family, "--json", "--force",
        )
        assert code == 0
        assert stdout == want, (q, gens, family)


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_shared_parser_matches_fresh_parser(capsys):
    # one process, one parser: each call gives what a newly built parser gives
    calls = [
        ("classify", "--q", "7"),  # usage error
        ("classify", "--q", "9", "--generators", "1,1"),  # InputError
        ("classify", "--q", "7", "--generators", "2,2"),
        ("count", "--q", "5", "--n", "4"),
        ("search", "--q", "5", "--generators", "1,2;1,3", "--family", "williams"),
        ("classify", "--q", "5", "--generators", "1,1"),
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [1, 2, 0, 0, 0, 0]
    parser = build_parser()
    shared = [run(capsys, *argv) for argv in calls]
    assert build_parser() is parser
    assert shared == fresh
