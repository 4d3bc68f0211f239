"""End-to-end acceptance checks against the published reference values.

One test per criterion; each records a PASS/FAIL line for the terminal
summary before asserting, so the final report always shows every verdict.
Reference numbers are restated here at their printed precision. Tolerances
are half an ulp of the printed value (plus epsilon) unless the criterion
fixes a tighter bound; runtime budgets are asserted directly.
"""

import time

import numpy as np
import pytest

import wtdesigns as wt


def _tol_of(printed: str) -> float:
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return 0.5 * 10.0**-decimals + 1e-9


# --- criterion 1: 25-run one-generator shift table ---------------------------

SHIFT_TABLE_25 = {
    # per shift b = 0..4: printed (beta3, beta4) for both families
    "linear": [
        ("0.125", "0.525"), ("0.125", "0.525"), ("0.125", "0.096"),
        ("0.000", "0.686"), ("0.125", "0.096"),
    ],
    "williams": [
        ("0.442", "0.004"), ("0.168", "0.021"), ("0.168", "0.021"),
        ("0.442", "0.004"), ("0.000", "0.027"),
    ],
}


def test_criterion_1_shift_table(acceptance, basis5):
    t0 = time.perf_counter()
    gen = wt.GeneratorSet(5, [[1, 1]])
    mismatches = []
    for family, rows in SHIFT_TABLE_25.items():
        for b, (p3, p4) in enumerate(rows):
            design = wt.build_design(gen, [b], family)
            got3 = wt.beta_k(design, 3, basis5)
            got4 = wt.beta_k(design, 4, basis5)
            if abs(got3 - float(p3)) > 5e-4:
                mismatches.append(f"{family} b={b} beta3 {got3:.4f} vs {p3}")
            if abs(got4 - float(p4)) > 5e-4:
                mismatches.append(f"{family} b={b} beta4 {got4:.4f} vs {p4}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    acceptance(1, ok, f"10 shift pairs, {elapsed:.2f}s")
    assert not mismatches, mismatches
    assert elapsed < 1.0


# --- criterion 2: 49-run closed-form shift and scan ---------------------------

SCAN_49 = ["0.0009", "0.0031", "0.0047", "0.0047", "0.0031", "0.0009", "0"]


def test_criterion_2_closed_form_shift(acceptance, basis7):
    t0 = time.perf_counter()
    gen = wt.GeneratorSet(7, [[2, 2]])
    problems = []
    bstar = wt.optimal_shift_williams(gen)
    if bstar != [6]:
        problems.append(f"closed-form shift {bstar} != [6]")
    best = wt.build_design(gen, [6], "williams")
    got4 = wt.beta_k(best, 4, basis7)
    if abs(got4 - 0.0196) > 5e-5:
        problems.append(f"beta4 at the closed-form shift: {got4:.5f} vs 0.0196")
    for b, printed in enumerate(SCAN_49):
        got3 = wt.beta_k(wt.build_design(gen, [b], "williams"), 3, basis7)
        if abs(got3 - float(printed)) > 5e-5:
            problems.append(f"b={b} beta3 {got3:.5f} vs {printed}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    acceptance(2, ok, f"b*=(6), 7-shift scan, {elapsed:.2f}s")
    assert not problems, problems
    assert elapsed < 1.0


# --- criterion 3: recursive-design count table --------------------------------

PUBLISHED_COUNTS = [
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
]


def test_criterion_3_recursive_counts(acceptance):
    t0 = time.perf_counter()
    mismatches = []
    for q, n, expect in PUBLISHED_COUNTS:
        got = wt.count_recursive(q, n)
        for label, g, e in zip(("typeI", "typeII", "typeIII"), got, expect):
            if g != e:
                mismatches.append(f"q={q} n={n} {label}: got {g}, expected {e}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    acceptance(3, ok, f"{len(mismatches)} of 30 cells differ, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert not mismatches, (
        "the faithful closure rule does not reproduce the published middle "
        "column; every difference is confined to the typeII counts: "
        + "; ".join(mismatches)
    )


# --- criterion 4: family comparison tables -------------------------------------

COMPARISON_TABLES = {
    5: {
        3: (("0.125", "0.525"), "0.271", "0.027"),
        4: (("0.375", "1.361"), "1.336", "1.037"),
        5: (("0.750", "3.029"), "3.793", "3.768"),
        6: (("1.250", "6.786"), "8.250", "8.250"),
    },
    7: {
        3: (("0.063", "0.563"), "0.063", "0.003"),
        4: (("0.188", "1.354"), "0.250", "0.055"),
        5: (("0.375", "2.440"), "1.135", "0.836"),
        6: (("0.625", "4.313"), "3.094", "2.368"),
        7: (("0.938", "7.401"), "6.438", "4.928"),
        8: (("1.312", "12.78"), "11.23", "9.677"),
    },
}


def test_criterion_4_comparison_tables(acceptance):
    t0 = time.perf_counter()
    problems = []
    cells = 0
    for q, rows in COMPARISON_TABLES.items():
        for n, (std_pair, lin4, wil4) in rows.items():
            rep = wt.search_q2(q, n)
            checks = [
                (f"q={q} n={n} standard beta3", rep.standard_beta3, std_pair[0]),
                (f"q={q} n={n} standard beta4", rep.standard_beta4, std_pair[1]),
                (f"q={q} n={n} linear beta4", rep.linear.beta4, lin4),
                (f"q={q} n={n} williams beta4", rep.williams.beta4, wil4),
            ]
            cells += len(checks)
            for what, got, printed in checks:
                if abs(got - float(printed)) > _tol_of(printed):
                    problems.append(f"{what}: {got:.4f} vs {printed}")
            for fam in (rep.linear, rep.williams):
                if fam.beta3 > 1e-9:
                    problems.append(f"q={q} n={n} {fam.family} beta3 not zero")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 300.0
    acceptance(4, ok, f"{cells} cells over 10 searches, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 300.0


# --- criterion 5: 49-run linear-family zero set ---------------------------------

def test_criterion_5_linear_zero_set(acceptance, basis7):
    gen = wt.GeneratorSet(7, [[2, 2]])
    zeros = {}
    for b in range(7):
        d = wt.build_design(gen, [b], "linear")
        if wt.beta_k(d, 3, basis7) <= 1e-9:
            zeros[b] = wt.beta_k(d, 4, basis7)
    got4 = sorted(zeros.values())
    want4 = sorted((0.0417, 0.0417, 0.0625))
    ok = set(zeros) == {0, 3, 5} and all(
        abs(g - w) <= 5e-5 for g, w in zip(got4, want4)
    )
    acceptance(5, ok, f"zero shifts {sorted(zeros)}")
    assert set(zeros) == {0, 3, 5}, zeros
    assert got4 == pytest.approx(want4, abs=5e-5)


# --- criterion 6: full 7^6 shift scan --------------------------------------------

@pytest.mark.slow
def test_criterion_6_full_shift_scan(acceptance, basis7):
    t0 = time.perf_counter()
    gen = wt.GeneratorSet(7, [[1, 1], [1, 2], [1, 4], [1, 5], [2, 5], [2, 6]])
    grid3 = wt.shift_grid_beta(gen, "williams", 3, basis7)
    zero_shifts = np.argwhere(grid3 <= 1e-9)
    problems = []
    if zero_shifts.shape[0] != 1:
        problems.append(f"{zero_shifts.shape[0]} shifts reach zero, expected 1")
    winner = zero_shifts[0].tolist() if len(zero_shifts) else None
    if winner != [2, 4, 1, 3, 5, 0]:
        problems.append(f"unique zero at {winner}, expected [2, 4, 1, 3, 5, 0]")
    best = wt.build_design(gen, [2, 4, 1, 3, 5, 0], "williams")
    got4 = wt.beta_k(best, 4, basis7)
    if abs(got4 - 9.677) > 5e-4:
        problems.append(f"beta4 {got4:.4f} vs 9.677")
    report = wt.search_shifts(gen, "williams")
    if report.b != [2, 4, 1, 3, 5, 0] or report.evaluations != 7**6:
        problems.append(f"search winner {report.b} over {report.evaluations}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 600.0
    acceptance(6, ok, f"117649 shifts, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 600.0


# --- criterion 7: 17-level counterexample ------------------------------------------

def test_criterion_7_seventeen_level_counterexample(acceptance):
    gen = wt.GeneratorSet(17, [[2, 4]])
    basis = wt.orthonormal_basis(17)
    vals = {
        b: wt.beta_k(wt.build_design(gen, [b], "williams"), 3, basis)
        for b in range(17)
    }
    ok = vals[14] <= 1e-9 and vals[4] <= 1e-9
    zero_set = sorted(b for b, v in vals.items() if v <= 1e-9)
    acceptance(7, ok, f"zero shifts {zero_set}")
    assert vals[14] <= 1e-9 and vals[4] <= 1e-9, vals
    # the closed form picks 14; 4 is a second zero, so the zero shift is
    # not unique outside the type-II class
    assert wt.optimal_shift_williams(gen) == [14]
    assert {4, 14} <= set(zero_set)


# --- criterion 8: model diagnostics --------------------------------------------------

INFO_MATRIX_25 = [
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
]

BLOCK_LABELS = ["x1^2", "x2^2", "x3^2", "x1:x2", "x1:x3", "x2:x3"]

SHIFTED_BLOCK = [
    [1, 0, 0, 0, 0, 0.359],
    [0, 1, 0, 0, -0.12, 0],
    [0, 0, 1, -0.359, 0, 0],
    [0, 0, -0.359, 1, 0.3, -0.1],
    [0, -0.12, 0, 0.3, 1, -0.3],
    [0.359, 0, 0, -0.1, -0.3, 1],
]

TRANSFORMED_BLOCK = [
    [1, 0, 0, 0, 0, 0.096],
    [0, 1, 0, 0, 0.096, 0],
    [0, 0, 1, -0.096, 0, 0],
    [0, 0, -0.096, 1, 0.08, 0.08],
    [0, 0.096, 0, 0.08, 1, -0.08],
    [0.096, 0, 0, 0.08, -0.08, 1],
]

SHIFTED_VARIANCES = dict(
    zip(BLOCK_LABELS, (0.047, 0.041, 0.047, 0.051, 0.050, 0.051))
)
TRANSFORMED_VARIANCES = dict(
    zip(BLOCK_LABELS, (0.040, 0.040, 0.040, 0.041, 0.041, 0.041))
)


def test_criterion_8_model_diagnostics(acceptance):
    problems = []

    standard = wt.expand(wt.standard_generators(5, 3))
    info = wt.information_matrix(standard)
    dev = np.abs(info.matrix - np.array(INFO_MATRIX_25)).max()
    if dev > 5e-3:
        problems.append(f"standard design info matrix deviates by {dev:.4f}")

    idx = [info.labels.index(lab) for lab in BLOCK_LABELS]
    shifted = wt.build_design(wt.GeneratorSet(5, [[1, 2]]), [1], "linear")
    transformed = wt.build_design(wt.GeneratorSet(5, [[1, 1]]), [4], "williams")
    for name, design, expect_block, expect_var in (
        ("shifted", shifted, SHIFTED_BLOCK, SHIFTED_VARIANCES),
        ("transformed", transformed, TRANSFORMED_BLOCK, TRANSFORMED_VARIANCES),
    ):
        block = wt.information_matrix(design).matrix[np.ix_(idx, idx)]
        dev = np.abs(block - np.array(expect_block)).max()
        if dev > 5e-3:
            problems.append(f"{name} design block deviates by {dev:.4f}")
        variances = dict(wt.estimate_variances(design))
        for lab, want in expect_var.items():
            if abs(variances[lab] - want) > 5e-4:
                problems.append(
                    f"{name} variance {lab}: {variances[lab]:.4f} vs {want}"
                )
    ok = not problems
    acceptance(8, ok, "10x10 matrix, two 6x6 blocks, 12 variances")
    assert not problems, problems


# --- criterion 9: structural property sweeps ------------------------------------------

def _sweep_basis_checks(problems):
    for q in (3, 5, 7, 11, 13, 17):
        V = wt.orthonormal_basis(q).values
        if np.abs(V @ V.T / q - np.eye(q)).max() > 1e-9:
            problems.append(f"q={q}: basis not orthonormal")
        if np.abs(V.T @ V / q - np.eye(q)).max() > 1e-9:
            problems.append(f"q={q}: basis not complete")
        worst = max(
            abs(wt.linear_poly_cosine(q, x) - V[1][x]) for x in range(q)
        )
        if worst > 1e-9:
            problems.append(f"q={q}: cosine form deviates by {worst:.2e}")
        image = [wt.williams_value(x, q) for x in range(q)]
        if sorted(image) != list(range(q)):
            problems.append(f"q={q}: the level map is not a bijection")
        if any(wt.williams_inverse(image[x], q) != x for x in range(q)):
            problems.append(f"q={q}: inverse map broken")


def _sweep_strength_preservation(problems):
    cases = [(3, [[1, 1]]), (3, [[1, 2]]), (5, [[1, 3], [1, 2]]), (7, [[2, 2]])]
    for q, C in cases:
        gen = wt.GeneratorSet(q, C)
        for b in ([0] * gen.m, [1] * gen.m, list(range(1, gen.m + 1))):
            for family in ("linear", "williams"):
                d = wt.build_design(gen, b, family)
                if wt.strength(d, t_max=2) != 2:
                    problems.append(f"q={q} C={C} b={b} {family}: strength lost")


def _sweep_sum_identity(problems):
    for q in (3, 5, 7):
        basis = wt.orthonormal_basis(q)
        for n in range(3, q + 2):
            for gen in wt.enumerate_q2_generators(q, n):
                d = wt.expand(gen)
                got = wt.beta_sum_check(d, basis)
                expect = q**n / d.runs - 1
                if abs(got - expect) > 1e-6:
                    problems.append(
                        f"q={q} C={gen.C.tolist()}: pattern sums to {got!r}"
                    )
                    return  # one counterexample is enough to fail


def _sweep_closed_form_shift(problems):
    # every generator set: theorems 1 (degree-3 measure zero) and 4 (mirror
    # symmetry) through the library checks, which cover the same scopes as
    # `verify`'s default nmax; the full odd-degree pattern on every set for
    # small q and on a deterministic stride for larger q
    scopes = ((5, 6, 1), (7, 8, 1), (11, 5, 499), (13, 5, 499))
    for q, nmax, stride in scopes:
        for theorem in (1, 4):
            problems.extend(
                f"q={q} theorem {theorem}: {f}"
                for f in wt.verify_theorem(theorem, q, nmax)
            )
        basis = wt.orthonormal_basis(q)
        seen = 0
        for n in range(3, nmax + 1):
            for gen in wt.enumerate_q2_generators(q, n):
                seen += 1
                if seen % stride != 0:
                    continue
                design = wt.build_design(
                    gen, wt.optimal_shift_williams(gen), "williams"
                )
                odd = wt.beta_pattern(design, basis=basis).values[0::2]
                if max(odd) > 1e-9:
                    problems.append(
                        f"q={q} C={gen.C.tolist()}: odd measure {max(odd):.2e}"
                    )


def _sweep_unique_zero_for_type_two(problems):
    want = (wt.RecursiveType.TYPE_I, wt.RecursiveType.TYPE_II)
    for q in (5, 7):
        basis = wt.orthonormal_basis(q)
        for n in (3, 4):
            for gen in wt.enumerate_q2_generators(q, n):
                if wt.classify(gen) not in want:
                    continue
                grid = wt.shift_grid_beta(gen, "williams", 3, basis)
                zeros = np.argwhere(grid <= 1e-9)
                expect = wt.optimal_shift_williams(gen)
                if zeros.shape[0] != 1 or zeros[0].tolist() != expect:
                    problems.append(
                        f"q={q} C={gen.C.tolist()}: zero shifts {zeros.tolist()}"
                    )


def test_criterion_9_property_sweeps(acceptance):
    t0 = time.perf_counter()
    problems = []
    _sweep_basis_checks(problems)
    _sweep_strength_preservation(problems)
    _sweep_sum_identity(problems)
    _sweep_closed_form_shift(problems)
    _sweep_unique_zero_for_type_two(problems)
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 600.0
    acceptance(9, ok, f"{elapsed:.0f}s")
    assert not problems, problems[:10]
    assert elapsed < 600.0
