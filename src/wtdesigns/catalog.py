"""Golden-table reproduction.

The reproduce() operation recomputes a published reference table from
scratch and checks it against golden values embedded here at their printed
precision; goldens are never replaced by recomputed numbers.
"""

from dataclasses import dataclass

import numpy as np

from .designs import GeneratorSet, expand
from .errors import InputError
from .models import estimate_variances, information_matrix
from .optimal import (
    build_design,
    optimal_shift_linear,
    optimal_shift_williams,
    search_q2,
    shift_betas,
    shift_grid_beta,
    standard_generators,
)
from .orthopoly import orthonormal_basis


# ---------------------------------------------------------------------------
# golden tables, stored at their printed precision


def _tol_of(printed: str) -> float:
    if "." in printed:
        decimals = len(printed.split(".")[1])
    else:
        decimals = 0
    return 0.5 * 10.0**-decimals + 1e-9


GOLDEN_TABLES = {
    "example1": {
        "source": "table: shift families of the 25-run one-generator design",
        "generators": [[1, 1]],
        "q": 5,
        # per shift b = 0..4: (beta3, beta4) for the linear and williams family
        "linear": [
            ("0.125", "0.525"),
            ("0.125", "0.525"),
            ("0.125", "0.096"),
            ("0.000", "0.686"),
            ("0.125", "0.096"),
        ],
        "williams": [
            ("0.442", "0.004"),
            ("0.168", "0.021"),
            ("0.168", "0.021"),
            ("0.442", "0.004"),
            ("0.000", "0.027"),
        ],
    },
    "example5-scan": {
        "source": "table: degree-3 measure across all shifts, 49-run one-generator design",
        "generators": [[2, 2]],
        "q": 7,
        "values": ["0.0009", "0.0031", "0.0047", "0.0047", "0.0031", "0.0009", "0"],
    },
    "recursive-counts": {
        "source": "table: recursive-design counts, 25-run and 49-run",
        "rows": [
            (5, 3, (2, 6, 8)),
            (5, 4, (6, 22, 24)),
            (5, 5, (20, 32, 32)),
            (5, 6, (16, 16, 16)),
            (7, 3, (2, 10, 18)),
            (7, 4, (6, 99, 135)),
            (7, 5, (20, 517, 540)),
            (7, 6, (70, 1214, 1215)),
            (7, 7, (252, 1458, 1458)),
            (7, 8, (267, 729, 729)),
        ],
    },
    "q2-25run": {
        "source": "table: 25-run design-family comparison",
        "q": 5,
        "rows": {
            3: {"standard": ("0.125", "0.525"), "linear": "0.271", "williams": "0.027"},
            4: {"standard": ("0.375", "1.361"), "linear": "1.336", "williams": "1.037"},
            5: {"standard": ("0.750", "3.029"), "linear": "3.793", "williams": "3.768"},
            6: {"standard": ("1.250", "6.786"), "linear": "8.250", "williams": "8.250"},
        },
    },
    "q2-49run": {
        "source": "table: 49-run design-family comparison",
        "q": 7,
        "rows": {
            3: {"standard": ("0.063", "0.563"), "linear": "0.063", "williams": "0.003"},
            4: {"standard": ("0.188", "1.354"), "linear": "0.250", "williams": "0.055"},
            5: {"standard": ("0.375", "2.440"), "linear": "1.135", "williams": "0.836"},
            6: {"standard": ("0.625", "4.313"), "linear": "3.094", "williams": "2.368"},
            7: {"standard": ("0.938", "7.401"), "linear": "6.438", "williams": "4.928"},
            8: {"standard": ("1.312", "12.78"), "linear": "11.23", "williams": "9.677"},
        },
    },
    "info-matrix-D": {
        "source": "table: information matrix of the standard 25-run 3-column design",
        "tol": 5e-3,
        "matrix": [
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0, 0, -0.354],
            [0, 0, 1, 0, 0, 0, 0, 0, -0.354, 0],
            [0, 0, 0, 1, 0, 0, 0, -0.354, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0, 0, 0.418],
            [0, 0, 0, 0, 0, 1, 0, 0, 0.418, 0],
            [0, 0, 0, 0, 0, 0, 1, -0.418, 0, 0],
            [0, 0, 0, -0.354, 0, 0, -0.418, 1, 0.35, 0.35],
            [0, 0, -0.354, 0, 0, 0.418, 0, 0.35, 1, -0.35],
            [0, -0.354, 0, 0, 0.418, 0, 0, 0.35, -0.35, 1],
        ],
    },
    "info-matrix-compare": {
        "source": "table: quadratic/bilinear information blocks of the best "
        "25-run shifted and transformed designs, plus their variance factors",
        "tol": 5e-3,
        "var_tol": 5e-4,
        "linear_generators": [[1, 2]],
        "williams_generators": [[1, 1]],
        "linear_block": [
            [1, 0, 0, 0, 0, 0.359],
            [0, 1, 0, 0, -0.12, 0],
            [0, 0, 1, -0.359, 0, 0],
            [0, 0, -0.359, 1, 0.3, -0.1],
            [0, -0.12, 0, 0.3, 1, -0.3],
            [0.359, 0, 0, -0.1, -0.3, 1],
        ],
        "williams_block": [
            [1, 0, 0, 0, 0, 0.096],
            [0, 1, 0, 0, 0.096, 0],
            [0, 0, 1, -0.096, 0, 0],
            [0, 0, -0.096, 1, 0.08, 0.08],
            [0, 0.096, 0, 0.08, 1, -0.08],
            [0.096, 0, 0, 0.08, -0.08, 1],
        ],
        "linear_variances": [0.047, 0.041, 0.047, 0.051, 0.050, 0.051],
        "williams_variances": [0.040, 0.040, 0.040, 0.041, 0.041, 0.041],
    },
    "example7": {
        "source": "full shift scan of the 49-run 8-column design",
        "q": 7,
        "generators": [[1, 1], [1, 2], [1, 4], [1, 5], [2, 5], [2, 6]],
        "best_b": [2, 4, 1, 3, 5, 0],
        "beta4": "9.677",
    },
}

TABLE_IDS = tuple(GOLDEN_TABLES)


@dataclass
class TableReport:
    table_id: str
    ok: bool
    lines: list
    failures: list

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Checker:
    def __init__(self):
        self.failures = []

    def close(self, what, got, expect, tol):
        if abs(got - expect) > tol:
            self.failures.append(f"{what}: got {got:.6g}, expected {expect} (tol {tol:g})")

    def printed(self, what, got, printed: str):
        self.close(what, got, float(printed), _tol_of(printed))

    def exact(self, what, got, expect):
        if got != expect:
            self.failures.append(f"{what}: got {got}, expected {expect}")


def _reproduce_example1(g):
    gen = GeneratorSet(g["q"], g["generators"])
    basis = orthonormal_basis(g["q"])
    shifts = np.arange(g["q"])[:, None]
    linear = shift_betas(gen, "linear", shifts, (3, 4), basis).tolist()
    will = shift_betas(gen, "williams", shifts, (3, 4), basis).tolist()
    chk = _Checker()
    lines = ["b    linear b3/b4     williams b3/b4"]
    for b in range(g["q"]):
        vals = linear[b] + will[b]
        lin_gold = g["linear"][b]
        wil_gold = g["williams"][b]
        chk.printed(f"b={b} linear beta3", vals[0], lin_gold[0])
        chk.printed(f"b={b} linear beta4", vals[1], lin_gold[1])
        chk.printed(f"b={b} williams beta3", vals[2], wil_gold[0])
        chk.printed(f"b={b} williams beta4", vals[3], wil_gold[1])
        lines.append(
            f"{b}    {vals[0]:.3f} {vals[1]:.3f}      {vals[2]:.3f} {vals[3]:.3f}"
        )
    return lines, chk.failures


def _reproduce_example5(g):
    gen = GeneratorSet(g["q"], g["generators"])
    basis = orthonormal_basis(g["q"])
    shifts = np.arange(g["q"])[:, None]
    got = shift_betas(gen, "williams", shifts, (3,), basis)[:, 0].tolist()
    chk = _Checker()
    for b, v in enumerate(got):
        chk.printed(f"b={b} beta3", v, g["values"][b])
    lines = ["b:     " + "  ".join(str(b) for b in range(g["q"]))]
    lines.append("beta3: " + "  ".join(f"{v:.4f}" for v in got))
    return lines, chk.failures


def _reproduce_counts(g):
    from .recursion import count_recursive

    chk = _Checker()
    lines = ["q  n  typeI  typeII  typeIII"]
    for q, n, expect in g["rows"]:
        got = count_recursive(q, n)
        for label, gv, ev in zip(("typeI", "typeII", "typeIII"), got, expect):
            chk.exact(f"q={q} n={n} {label}", gv, ev)
        lines.append(f"{q}  {n}  {got[0]:5d}  {got[1]:6d}  {got[2]:7d}")
    return lines, chk.failures


def _reproduce_q2(g):
    chk = _Checker()
    lines = ["n  standard b3/b4   best-linear b4   best-williams b4"]
    for n, row in g["rows"].items():
        report = search_q2(g["q"], n)
        chk.printed(f"n={n} standard beta3", report.standard_beta3, row["standard"][0])
        chk.printed(f"n={n} standard beta4", report.standard_beta4, row["standard"][1])
        for fam_name, fam in (("linear", report.linear), ("williams", report.williams)):
            if fam.beta3 > 1e-9:
                chk.failures.append(
                    f"n={n} {fam_name} winner beta3 = {fam.beta3:.3g}, expected 0"
                )
            chk.printed(f"n={n} {fam_name} beta4", fam.beta4, row[fam_name])
        lines.append(
            f"{n}  {report.standard_beta3:.3f} {report.standard_beta4:.3f}"
            f"    {report.linear.beta4:.3f}            {report.williams.beta4:.3f}"
        )
    return lines, chk.failures


def _reproduce_info_d(g):
    gen = standard_generators(5, 3)
    info = information_matrix(expand(gen))
    expect = np.asarray(g["matrix"], dtype=float)
    chk = _Checker()
    diff = np.abs(info.matrix - expect)
    worst = np.unravel_index(np.argmax(diff), diff.shape)
    if diff.max() > g["tol"]:
        chk.failures.append(
            f"entry {worst}: got {info.matrix[worst]:.4f}, expected {expect[worst]}"
        )
    lines = [" ".join(f"{v:6.3f}" for v in row) for row in info.matrix]
    return lines, chk.failures


def _quad_bilinear_block(matrix: np.ndarray, n: int) -> np.ndarray:
    lo = 1 + n
    return matrix[lo:, lo:]


def _reproduce_info_compare(g):
    chk = _Checker()
    lines = []
    cases = (
        ("linear", GeneratorSet(5, g["linear_generators"]), optimal_shift_linear),
        ("williams", GeneratorSet(5, g["williams_generators"]), optimal_shift_williams),
    )
    for family, gen, shift_of in cases:
        design = build_design(gen, shift_of(gen), family)
        info = information_matrix(design)
        block = _quad_bilinear_block(info.matrix, gen.n)
        expect = np.asarray(g[f"{family}_block"], dtype=float)
        diff = np.abs(block - expect)
        if diff.max() > g["tol"]:
            worst = np.unravel_index(np.argmax(diff), diff.shape)
            chk.failures.append(
                f"{family} block entry {worst}: got {block[worst]:.4f}, "
                f"expected {expect[worst]}"
            )
        variances = [v for _, v in estimate_variances(design)][1 + gen.n :]
        for got, expect_v, label in zip(
            variances, g[f"{family}_variances"], info.labels[1 + gen.n :]
        ):
            chk.close(f"{family} variance {label}", got, expect_v, g["var_tol"])
        lines.append(f"{family} quad/bilinear block:")
        lines += ["  " + " ".join(f"{v:6.3f}" for v in row) for row in block]
        lines.append(
            f"{family} variances: " + " ".join(f"{v:.3f}" for v in variances)
        )
    return lines, chk.failures


def _reproduce_example7(g):
    gen = GeneratorSet(g["q"], g["generators"])
    basis = orthonormal_basis(g["q"])
    grid = shift_grid_beta(gen, "williams", 3, basis)
    zeros = np.argwhere(grid <= 1e-9)
    chk = _Checker()
    chk.exact("count of shifts with beta3 = 0", len(zeros), 1)
    best = [int(v) for v in zeros[0]] if len(zeros) else None
    chk.exact("best shift vector", best, g["best_b"])
    lines = [f"scanned {grid.size} shift vectors"]
    if best is not None:
        b4 = float(shift_betas(gen, "williams", [best], (4,), basis)[0, 0])
        chk.printed("beta4 at the best shift", b4, g["beta4"])
        lines.append(f"unique zero-beta3 shift: {best}, beta4 = {b4:.4f}")
    return lines, chk.failures


_REPRODUCERS = {
    "example1": _reproduce_example1,
    "example5-scan": _reproduce_example5,
    "recursive-counts": _reproduce_counts,
    "q2-25run": _reproduce_q2,
    "q2-49run": _reproduce_q2,
    "info-matrix-D": _reproduce_info_d,
    "info-matrix-compare": _reproduce_info_compare,
    "example7": _reproduce_example7,
}


def reproduce(table_id: str) -> TableReport:
    """Recompute a golden table from scratch and compare at printed precision."""
    if table_id not in GOLDEN_TABLES:
        raise InputError(
            f"unknown table {table_id!r}; choose from {', '.join(TABLE_IDS)}"
        )
    golden = GOLDEN_TABLES[table_id]
    lines, failures = _REPRODUCERS[table_id](golden)
    header = [f"table {table_id} (source: {golden['source']})"]
    status = "PASS" if not failures else "FAIL"
    footer = [f"{status}: {len(failures)} mismatch(es)"]
    return TableReport(
        table_id=table_id,
        ok=not failures,
        lines=header + lines + footer + failures,
        failures=failures,
    )
