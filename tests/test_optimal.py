"""Closed-form shifts, exhaustive shift searches, generator-space searches."""

import hashlib
import json
from functools import lru_cache
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest

from wtdesigns import (
    CapExceededError,
    GeneratorSet,
    InputError,
    beta_k,
    beta_pattern,
    build_design,
    center_preimage,
    compare_patterns,
    count_recursive,
    enumerate_q2_generators,
    expand,
    linear_permute,
    optimal_shift_linear,
    optimal_shift_williams,
    orthonormal_basis,
    search_q2,
    search_shifts,
    shift_betas,
    shift_grid_beta,
    standard_generators,
    verify_theorem,
    williams,
    williams_value,
)
from wtdesigns import optimal
from wtdesigns.cli import parse_generator_text
from wtdesigns.designs import column_vectors, mirror_symmetric_stack, williams_levels
from wtdesigns.fieldmath import chunks, inverse_table
from wtdesigns.aberration import DEFAULT_TOL, _keep_minimal, _rank_candidates, beta_k_stack
from wtdesigns.orthopoly import MAX_LEVELS
from wtdesigns.recursion import RecursiveType, _classify_stack

SHIFT_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "shift-scan.json"


# --- closed-form shifts -----------------------------------------------------

def test_center_preimage_frozen():
    assert {q: center_preimage(q) for q in (5, 7, 11, 13, 17)} == {
        5: 1, 7: 5, 11: 8, 13: 3, 17: 4,
    }


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_center_preimage_defining_property(q):
    # the Williams transformation must send it to the middle level
    assert williams_value(center_preimage(q), q) == (q - 1) // 2


def test_closed_form_shift_values():
    assert optimal_shift_williams(GeneratorSet(5, [[1, 1]])) == [4]
    assert optimal_shift_williams(GeneratorSet(7, [[2, 2]])) == [6]
    assert optimal_shift_williams(GeneratorSet(17, [[2, 4]])) == [14]
    assert optimal_shift_williams(GeneratorSet(5, [[1, 1], [1, 2]])) == [4, 3]
    assert optimal_shift_linear(GeneratorSet(5, [[1, 1]])) == [3]
    assert optimal_shift_linear(GeneratorSet(7, [[2, 2]])) == [5]
    assert optimal_shift_linear(GeneratorSet(5, [[1, 2]])) == [1]


@pytest.mark.parametrize("family,shift_of", [
    ("linear", optimal_shift_linear),
    ("williams", optimal_shift_williams),
])
def test_closed_form_shift_kills_degree_three(family, shift_of):
    for q, C in ((5, [[1, 1]]), (5, [[2, 3]]), (7, [[2, 2]]), (7, [[1, 3], [2, 5]])):
        gen = GeneratorSet(q, C)
        d = build_design(gen, shift_of(gen), family)
        assert beta_k(d, 3) <= 1e-9


def test_build_design_dispatch():
    gen = GeneratorSet(5, [[1, 1]])
    lin = build_design(gen, [2], "linear")
    assert np.array_equal(lin.rows, linear_permute(gen, [2]).rows)
    wil = build_design(gen, [2], "williams")
    assert np.array_equal(wil.rows, williams(linear_permute(gen, [2])).rows)
    with pytest.raises(InputError):
        build_design(gen, [2], "cubic")


# --- grid evaluation ---------------------------------------------------------

def test_grid_matches_per_shift_evaluation():
    gen = GeneratorSet(5, [[1, 1], [1, 2]])
    for family in ("linear", "williams"):
        for k in (3, 4):
            grid = shift_grid_beta(gen, family, k)
            assert grid.shape == (5, 5)
            for b in product(range(5), repeat=2):
                direct = beta_k(build_design(gen, list(b), family), k)
                assert grid[b] == pytest.approx(direct, abs=1e-9)


SHIFT_SETS = [
    (5, [[1, 1]]),
    (5, [[1, 2], [2, 1]]),
    (5, [[1, 1], [1, 2], [1, 3]]),
    (7, [[2, 2]]),
    (7, [[1, 3], [2, 5]]),
]


def _lengths(count, step):
    """The slice lengths of range(count) cut every step items."""
    return [step] * (count // step) + [count % step] * (count % step > 0)


@pytest.mark.parametrize("q,C", SHIFT_SETS)
def test_shift_betas_is_bit_identical(q, C, budget):
    from wtdesigns.aberration import compositions

    gen = GeneratorSet(q, C)
    shifts = np.array(list(product(range(q), repeat=gen.m)))
    for family in ("linear", "williams"):
        for ks in ((3,), (3, 4)):
            want = np.array([
                [beta_k(build_design(gen, list(b), family), k) for k in ks]
                for b in shifts
            ])
            # beta_k_stack cuts each member stack into chunks of 6 shift vectors
            # by its widest array per member: 6 divides no q^m here, and
            # _member_stacks cuts by the int64 levels, 8 N n bytes a member
            widest = max([gen.n * q + 1] + [len(compositions(k, gen.n, q - 1)) for k in ks])
            calls = budget(6 * 8 * q**2 * widest)
            assert len(shifts) % 6 != 0
            assert np.array_equal(shift_betas(gen, family, shifts, ks), want)
            stacks = _lengths(len(shifts), 6 * widest // gen.n)
            assert calls == [("optimal", "_member_stacks", len(shifts), stacks)] + [
                ("aberration", "beta_k_stack", size, _lengths(size, 6)) for size in stacks
            ]
            # one member per chunk gives the bits of one pass
            budget(2**40)
            one_pass = shift_betas(gen, family, shifts, ks)
            calls = budget(1)
            assert np.array_equal(shift_betas(gen, family, shifts, ks).view(np.int64), one_pass.view(np.int64))
            assert calls[0] == ("optimal", "_member_stacks", len(shifts), [1] * len(shifts))
            assert calls[1:] == [("aberration", "beta_k_stack", 1, [1])] * len(shifts)
    # no shift vector: no stack, and still one column per degree
    empty = shift_betas(gen, "williams", np.empty((0, gen.m), dtype=int), (3, 4))
    assert empty.shape == (0, 2) and empty.dtype == np.float64


def test_shift_betas_validates_input():
    gen = GeneratorSet(5, [[1, 1]])
    with pytest.raises(InputError, match="family"):
        shift_betas(gen, "cubic", [[0]], (3,))
    with pytest.raises(InputError, match="shape"):
        shift_betas(gen, "linear", [[0, 1]], (3,))
    with pytest.raises(InputError, match="out of range"):
        shift_betas(gen, "linear", [[0]], (13,))
    for ks in (3, None):
        with pytest.raises(InputError, match="sequence of integers"):
            shift_betas(gen, "linear", [[0]], ks)
    with pytest.raises(InputError, match="integer"):
        shift_betas(gen, "linear", [[0]], [[3]])
    # a generator of degrees is read once, for the checks and the columns alike
    assert shift_betas(gen, "linear", [[0]], (k for k in (3, 4))).shape == (1, 2)
    for b in ([10**30], [2**63], [-(2**63) - 1], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(InputError, match="int64 range"):
            shift_betas(gen, "linear", [b], (3,))


def test_grid_rejects_unknown_family():
    with pytest.raises(InputError):
        shift_grid_beta(GeneratorSet(5, [[1, 1]]), "affine", 3)


def test_grid_refuses_degrees_out_of_range():
    # n(q-1) = 16 here; 0 used to give a grid of ones and 99 one of zeros
    gen = GeneratorSet(5, [[1, 1], [1, 2]])
    for k in (0, -1, 17, 99):
        with pytest.raises(InputError, match="out of range"):
            shift_grid_beta(gen, "williams", k)
    shifts = np.array(list(product(range(5), repeat=2)))
    want = shift_betas(gen, "williams", shifts, (16,))[:, 0]
    assert np.allclose(shift_grid_beta(gen, "williams", 16).reshape(-1), want, rtol=0, atol=1e-12)


def test_grid_refuses_a_design_over_the_run_cap(monkeypatch):
    from wtdesigns import designs

    # 5^3 = 125 runs: the grid goes through expand's cap like every other build
    monkeypatch.setattr(designs, "RUN_CAP", 100)
    with pytest.raises(CapExceededError, match="run count 125 exceeds the cap of 100"):
        shift_grid_beta(GeneratorSet(5, [[1, 1, 1]]), "linear", 3)


@pytest.mark.parametrize("family", ["linear", "williams"])
def test_grid_with_more_dependent_columns_than_the_degree(family):
    # m = 4 > k: the tables of smaller dependent-column sets are folded into
    # the largest ones before they reach the grid
    gen = GeneratorSet(5, [[1, 1], [1, 2], [1, 3], [1, 4]])
    shifts = np.array(list(product(range(5), repeat=4)))
    ks = (1, 2, 3, 4, 5)
    want = shift_betas(gen, family, shifts, ks)
    for t, k in enumerate(ks):
        grid = shift_grid_beta(gen, family, k)
        assert grid.shape == (5,) * 4
        assert np.allclose(grid.reshape(-1), want[:, t], rtol=0, atol=1e-12)


def _host_grid(gen, family, k, basis):
    # the oracle: every exponent vector's support table, zero supports too,
    # added into a host table over min(k, m) dependent columns, and every
    # host broadcast into the grid one at a time
    from wtdesigns.aberration import compositions
    from wtdesigns.designs import expand_stack, williams_table

    q, m, n = gen.q, gen.m, gen.n
    d = n - m
    full = expand_stack(gen.C[None], q)[0]
    base, dep = full[:, :d], full[:, d:]
    N = base.shape[0]
    relabel = williams_table(q) if family == "williams" else np.arange(q)
    B = basis.values
    ind_vals = [B[:, None, relabel[base[:, j]]] for j in range(d)]
    shifted = (dep[None, :, :] + np.arange(q)[:, None, None]) % q
    dep_vals = [B[:, relabel[shifted[:, :, i]]] for i in range(m)]
    top = min(k, m)
    tables = {}
    for u in compositions(k, n, q - 1):
        support = np.flatnonzero(u)
        values = [ind_vals[j][u[j]] if j < d else dep_vals[j - d][u[j]] for j in support]
        axes = [j - d for j in support if j >= d]
        host = tuple(sorted(axes + [a for a in range(m) if a not in axes][: top - len(axes)]))
        if len(values) == 1:  # _support_table takes two or more positions
            sums = values[0].sum(axis=1)
            squares = sums * sums
        else:
            squares = optimal._support_table(values)
        table = tables.setdefault(host, np.zeros((q,) * top))
        table += squares.reshape([q if a in axes else 1 for a in host])
    total = np.zeros((q,) * m)
    for host, table in tables.items():
        total += table.reshape([q if a in host else 1 for a in range(m)])
    return total / N**2


def _pooled_set(q, n, i=0):
    with open(SHIFT_REFERENCE, encoding="utf-8") as fh:
        gens = json.load(fh)["pool"][f"{q},{n}"][i]
    return GeneratorSet(q, [[int(c) for c in row.split(",")] for row in gens.split(";")])


# m = 1..6 dependent columns, so k > m in some rows at every degree; the
# rows with three independent columns have supports on independent columns
# alone. The q=7 conic of the recorded hard searches (d=3, m=5) is checked at
# the degrees search_shifts builds: all its 16,807 shift vectors pass the
# beta_3 cut, so it is the one recorded search whose grids carry the cut, and
# its degree-6 grid takes about a second
GRID_ORACLE_SETS = [
    (5, [[1, 1]], (3, 4, 5, 6)),
    (5, [[1, 2], [2, 1]], (3, 4, 5, 6)),
    (5, [[1, 1], [1, 2], [1, 3]], (3, 4, 5, 6)),
    (5, [[1, 1], [1, 2], [1, 3], [1, 4]], (3, 4, 5, 6)),
    (5, [[1, 1, 1]], (3, 4, 5, 6)),
    (5, [[1, 1, 1], [1, 2, 3]], (3, 4, 5, 6)),
    (5, [[1, 1, 1], [1, 2, 3], [1, 4, 2], [0, 1, 1], [1, 0, 1]], (3, 4, 5, 6)),
    (5, [[1, 1, 1], [1, 2, 3], [1, 4, 2], [0, 1, 1], [1, 0, 1], [1, 1, 2]], (3, 4, 5, 6)),
    (7, [[2, 2]], (3, 4, 5, 6)),
    (7, [[1, 3], [2, 5]], (3, 4, 5, 6)),
    (7, [[1, 1], [1, 2], [1, 3], [1, 4]], (3, 4, 5, 6)),
    (7, [[1, 1], [1, 2], [1, 3], [1, 4], [1, 5]], (3, 4, 5, 6)),
    (7, [[2, 2], [3, 6], [3, 2], [3, 5], [2, 3], [3, 4]], (3, 4, 5, 6)),
    (7, [[1, 1, 3], [1, 2, 4], [1, 3, 1], [1, 4, 2], [1, 5, 5]], (4, 5)),
]


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize(
    "q,C,ks", GRID_ORACLE_SETS, ids=[f"{q}-C{i}" for i, (q, _, _) in enumerate(GRID_ORACLE_SETS)]
)
def test_grid_matches_the_host_accumulation(q, C, ks, family):
    gen = GeneratorSet(q, C)
    basis = orthonormal_basis(q)
    for k in ks:
        want = _host_grid(gen, family, k, basis)
        got = shift_grid_beta(gen, family, k)
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, want)).all(), k


@pytest.mark.parametrize("family", ["linear", "williams"])
def test_pooled_q11_grid_matches_the_host_accumulation(family):
    gen = _pooled_set(11, 8)
    basis = orthonormal_basis(11)
    want = _host_grid(gen, family, 3, basis)
    got = shift_grid_beta(gen, family, 3)
    assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, want)).all()


@pytest.mark.parametrize("positions", [2, 3, 4])
def test_support_table_matches_brute_force(positions, budget):
    from wtdesigns.fieldmath import _CHUNK_BYTES

    rng = np.random.default_rng(positions)
    values = [rng.normal(size=(v, 11)) for v in (5, 1, 4, 3)[:positions]]
    letters = "abcd"[:positions]
    spec = ",".join(f"{a}n" for a in letters) + "->" + letters
    sums = np.einsum(spec, *values)
    # the whole head in one chunk, then one candidate of the head per chunk
    for chunk, sizes in ((_CHUNK_BYTES, [5]), (8, [1] * 5)):
        calls = budget(chunk)
        got = optimal._support_table(values)
        assert got.shape == sums.shape
        assert np.allclose(got, sums * sums, rtol=1e-13, atol=0)
        assert calls == [("optimal", "_support_table", 5, sizes)]


# --- exhaustive shift search ---------------------------------------------------

def test_search_25_run_winner():
    report = search_shifts(GeneratorSet(5, [[1, 1]]), "williams")
    assert report.b == [4]
    assert report.ties == [[4]]
    assert report.decided_k == 3
    assert report.evaluations == 5
    assert report.pattern[2] <= 1e-12
    assert report.pattern[3] == pytest.approx(0.0274285714, abs=1e-9)


def test_search_49_run_linear_ties():
    # three shifts kill the degree-3 measure; two of them tie at degree 4
    report = search_shifts(GeneratorSet(7, [[2, 2]]), "linear")
    assert report.b == [0]
    assert report.ties == [[0], [3]]
    assert report.decided_k == 4
    assert report.pattern[3] == pytest.approx(1 / 24, abs=1e-9)


def test_search_winner_is_lexicographically_first_tie():
    report = search_shifts(GeneratorSet(7, [[2, 2]]), "linear")
    assert report.b == min(report.ties)


def test_search_respects_cap(monkeypatch):
    monkeypatch.setattr(optimal, "SEARCH_CAP", 24)
    with pytest.raises(CapExceededError, match="25 exceeds the cap of 24"):
        search_shifts(GeneratorSet(5, [[1, 1], [1, 2]]), "williams")
    monkeypatch.setattr(optimal, "SEARCH_CAP", 25)
    assert search_shifts(GeneratorSet(5, [[1, 1], [1, 2]]), "williams").evaluations == 25


def test_search_validates_k_max():
    with pytest.raises(InputError, match=r"^k_max=0 out of range 1\.\.12$"):
        search_shifts(GeneratorSet(5, [[1, 1]]), "williams", k_max=0)
    with pytest.raises(InputError, match=r"^k_max=13 out of range 1\.\.12$"):
        search_shifts(GeneratorSet(5, [[1, 1]]), "williams", k_max=13)


def test_counts_that_are_not_integers_are_input_errors():
    gen = GeneratorSet(5, [[1, 1]])
    for call in (
        lambda: search_q2(7, 4.0),
        lambda: verify_theorem(1, 7, 4.0),
        lambda: verify_theorem(True, 5, 4),
        lambda: verify_theorem(1.0, 5, 4),
        lambda: count_recursive(5, 3.0),
        lambda: standard_generators(5, 3.0),
        lambda: shift_grid_beta(gen, "williams", 3.0),
        lambda: search_shifts(gen, "williams", k_max=3.5),
        lambda: search_shifts(gen, "williams", k_max=True),
        lambda: shift_betas(gen, "williams", [[1.5]], (3,)),
    ):
        with pytest.raises(InputError, match="integer"):
            call()


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_default_nmax_is_the_largest_admitted_cell(q):
    nmax = optimal.default_nmax(q)
    optimal._check_q2_cell(q, nmax)
    assert nmax == (4 if q == 23 else q + 1 if q <= 7 else 5)
    if q == 23:
        with pytest.raises(CapExceededError):
            optimal._check_q2_cell(q, nmax + 1)


def test_staged_search_agrees_with_grid_minimum():
    # 7^5 shift vectors, too many for the full-pattern oracle; the winner
    # must reach the true grid minimum of the first deciding degree and
    # beat a spread of spot-checked candidates on the full pattern
    gen = GeneratorSet(7, [[1, 1], [1, 2], [1, 3], [1, 4], [1, 5]])
    report = search_shifts(gen, "williams")
    assert report.evaluations == 7**5
    grid3 = shift_grid_beta(gen, "williams", 3)
    win = build_design(gen, report.b, "williams")
    assert beta_k(win, 3) == pytest.approx(float(grid3.min()), abs=1e-9)
    rng = np.random.default_rng(20260817)
    win_pattern = beta_pattern(win)
    for _ in range(60):
        b = rng.integers(0, 7, size=5).tolist()
        other = beta_pattern(build_design(gen, b, "williams"))
        assert compare_patterns(win_pattern, other) <= 0


def test_nothing_cut_ranks_every_shift_on_full_patterns():
    # resolution IV: beta_3 is zero at every shift, so the beta_3 grid cuts
    # nothing, and the full patterns up to k_max=3 cut nothing either; at
    # k_max=2 no grid is built at all
    for (C, k_max), family in product(
        (([[1, 1, 1], [1, 2, 3]], 3), ([[1, 2], [2, 1]], 2)), ("linear", "williams")
    ):
        gen = GeneratorSet(5, C)
        report = search_shifts(gen, family, k_max=k_max)
        assert report.ties == [list(b) for b in product(range(5), repeat=2)]
        assert report.decided_k is None
        assert report.b == [0, 0]
        want = beta_pattern(build_design(gen, [0, 0], family), k_max).values
        assert report.pattern == want


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize("k_max", [1, 2])
def test_below_degree_three_only_the_winner_gets_a_pattern(monkeypatch, family, k_max):
    # beta_1 = beta_2 = 0 at every shift, so all q^m shifts tie undecided and
    # one pattern, shift 0...0's, is built; on 7^5 shifts as on 5^2
    calls = []

    def counted(design, k=None):
        calls.append(k)
        return beta_pattern(design, k)

    monkeypatch.setattr(optimal, "beta_pattern", counted)
    small, large = [[1, 2], [2, 1]], [[1, 1], [1, 2], [1, 4], [1, 5], [2, 5]]
    for gen in (GeneratorSet(5, small), GeneratorSet(7, large)):
        calls.clear()
        report = search_shifts(gen, family, k_max=k_max)
        assert calls == [k_max]
        assert report.ties == [list(b) for b in product(range(gen.q), repeat=gen.m)]
        assert report.decided_k is None and report.b == [0] * gen.m
        assert report.pattern == beta_pattern(build_design(gen, report.b, family), k_max).values


def _ranked_on_full_patterns(gen, family, k_max=None):
    # the oracle: a full pattern for every shift vector, ranked directly
    from wtdesigns.optimal import SearchReport

    shifts = [list(b) for b in product(range(gen.q), repeat=gen.m)]
    patterns = np.array([
        beta_pattern(build_design(gen, b, family), k_max).values
        for b in shifts
    ])
    alive, decided = _rank_candidates(len(patterns), patterns.T)
    winner = int(alive[0])
    return SearchReport(
        family=family,
        generators=gen.C.tolist(),
        b=shifts[winner],
        pattern=tuple(patterns[winner].tolist()),
        ties=[shifts[i] for i in alive],
        evaluations=len(shifts),
        decided_k=decided,
    )


ORACLE_SETS = [
    gen
    for q, ns in ((3, (3, 4)), (5, (3, 4, 5)))
    for n in ns
    for gen in enumerate_q2_generators(q, n)
] + list(enumerate_q2_generators(5, 6))[::15]


@pytest.mark.parametrize("family", ["linear", "williams"])
def test_pruned_search_equals_ranking_every_full_pattern(family):
    for gen in ORACLE_SETS:
        assert search_shifts(gen, family) == _ranked_on_full_patterns(gen, family)


@pytest.mark.parametrize("k_max", [3, 4, 5])
@pytest.mark.parametrize("family", ["linear", "williams"])
def test_pruning_stops_at_k_max(family, k_max):
    # in the linear family the first two sets keep two tied shift vectors
    for C in ([[2, 2], [2, 4]], [[2, 2]], [[1, 1], [1, 2], [1, 3]]):
        gen = GeneratorSet(5, C)
        want = _ranked_on_full_patterns(gen, family, k_max)
        assert len(want.pattern) == k_max
        assert search_shifts(gen, family, k_max=k_max) == want


def _grid_degrees(monkeypatch):
    """The degrees of every shift_grid_beta call from now on, in call order."""
    built = []
    real = optimal.shift_grid_beta

    def spy(gen, family, k):
        built.append(k)
        return real(gen, family, k)

    monkeypatch.setattr(optimal, "shift_grid_beta", spy)
    return built


def _survivor_calls(monkeypatch):
    """The limit of every _triple_survivors call from now on, in call order."""
    limits = []
    real = optimal._triple_survivors

    def spy(C, q, family, limit):
        limits.append(limit)
        return real(C, q, family, limit)

    monkeypatch.setattr(optimal, "_triple_survivors", spy)
    return limits


@pytest.mark.parametrize("q, C, family, degrees", [
    (7, [[2, 2]], "williams", []),  # decided by beta_3 alone
    (5, [[1, 2], [2, 1], [2, 3]], "linear", [4, 5]),  # decided at k=4, two ties
    (5, [[1, 1, 1], [1, 2, 3]], "linear", [4, 5]),  # resolution IV: beta_3 cuts nothing
    (5, [[1, 1, 1], [1, 2, 3]], "williams", [4, 5]),
])
def test_search_builds_each_grid_only_while_the_cut_reads_it(monkeypatch, q, C, family, degrees):
    # beta_3 is cut once on the exact triple totals; the float grids are degrees 4 and 5
    gen = GeneratorSet(q, C)
    built = _grid_degrees(monkeypatch)
    limits = _survivor_calls(monkeypatch)
    report = search_shifts(gen, family)
    assert built == degrees
    assert limits == [optimal._beta3_band(q)]
    if degrees:
        assert report == _ranked_on_full_patterns(gen, family)


@pytest.mark.parametrize("k_max", [None, 1, 3, 4, 5, 6])
def test_search_builds_no_degree_3_grid(monkeypatch, k_max):
    # beta_3 never reaches shift_grid_beta, whatever k_max, family or d;
    # below k_max = 3 the exact cut is not made either
    built = _grid_degrees(monkeypatch)
    limits = _survivor_calls(monkeypatch)
    searches = 0
    for q, text in TRIPLE_SETS[:1] + WIDE_SETS[:2] + [(5, "1,1,1;1,2,3")]:
        gen = parse_generator_text(text, q)
        for family in ("linear", "williams"):
            search_shifts(gen, family, k_max)
            searches += 1
    assert 3 not in built and set(built) <= {4, 5}
    assert len(limits) == (0 if k_max == 1 else searches)


def test_rank_candidates_pulls_no_column_past_one_live_row():
    pulled = []

    def columns(rows):
        for k in range(4):
            pulled.append(k)
            yield np.array(rows[k], dtype=float)

    # a lone row reads one column
    alive, decided = _rank_candidates(1, columns([[5.0]] * 4))
    assert (alive.tolist(), decided, pulled) == ([0], None, [0])
    # three rows, one left after the second column
    pulled.clear()
    rows = [[0, 0, 1], [0, 1, 2], [9, 9, 9], [9, 9, 9]]
    alive, decided = _rank_candidates(3, columns(rows))
    assert (alive.tolist(), decided, pulled) == ([0], 2, [0, 1])


def test_grid_search_holds_no_copy_of_a_grid():
    # a q=11 n=8 set of the shift-scan pool: each 11^6 float grid is 13.5 MiB,
    # and the search peaked at 15.6 MiB while it built its beta_3 grid. The
    # exact beta_3 cut holds only the survivors, one here, so no grid is built
    import tracemalloc

    gen = GeneratorSet(11, [[3, 3], [5, 10], [4, 5], [1, 6], [5, 2], [5, 7]])
    for family in ("linear", "williams"):
        search_shifts(gen, family)  # warm the caches outside the trace
        tracemalloc.start()
        try:
            report = search_shifts(gen, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.evaluations == 11**6
        assert peak < 10 * 2**20, family


def test_full_patterns_only_for_the_survivors(monkeypatch):
    # 625 shift vectors, but grid pruning leaves one for a full pattern
    from wtdesigns import optimal

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return beta_pattern(*args, **kwargs)

    monkeypatch.setattr(optimal, "beta_pattern", counted)
    report = search_shifts(GeneratorSet(5, [[1, 1], [1, 2], [1, 3], [1, 4]]), "williams")
    assert report.evaluations == 625
    assert 1 <= len(calls) <= 16


@pytest.mark.parametrize("family", ["linear", "williams"])
def test_strength_two_grids_vanish_below_degree_three(family):
    # why pruning starts at degree 3: every member is an orthogonal array of
    # strength 2, so beta_1 and beta_2 are zero at every shift
    for q, C in ((5, [[1, 1]]), (5, [[1, 2], [2, 1]]), (7, [[1, 3], [2, 5]]),
                 (5, [[1, 1], [1, 2], [1, 3], [1, 4]])):
        gen = GeneratorSet(q, C)
        for k in (1, 2):
            assert (shift_grid_beta(gen, family, k) == 0.0).all()


def test_search_report_json_shape():
    report = search_shifts(GeneratorSet(5, [[1, 1]]), "williams")
    d = json.loads(json.dumps(report.to_json_dict(5, 3)))
    assert d["q"] == 5 and d["n"] == 3
    assert d["family"] == "williams"
    assert d["b"] == [4]
    assert d["generators"] == [[1, 1]]
    assert len(d["beta"]) == 12
    assert d["ties"] == [[4]]
    assert d["evaluations"] == 5


# --- theorem checks --------------------------------------------------------------

def test_verify_theorem_reports_failing_sets(monkeypatch):
    from wtdesigns import optimal

    # a wrong center level moves the closed-form shifts off their zeros
    monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    first = {
        1: "n=3 C=[[1, 1]]: beta3=0.442",
        2: "n=3 C=[[2, 2]]: zero set [[2]], expected [[0]]",
        4: "n=3 C=[[1, 1]]: not mirror-symmetric",
    }
    for theorem, line in first.items():
        assert verify_theorem(theorem, 5, 4)[0] == line


def test_patched_theorem1_fails_after_a_search_filled_the_caches(monkeypatch):
    # search_q2 builds the closed-form sums at the true centre first; theorem 1
    # with a wrong centre must still read a table built at that centre
    search_q2(5, 4)
    monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    assert verify_theorem(1, 5, 4)[0] == "n=3 C=[[1, 1]]: beta3=0.442"


def _exact_theorem1(q, nmax):
    # the oracle: exact beta_3 of every Williams set at its closed-form shift
    failures = []
    for n in range(3, nmax + 1):
        C, betas = closed_form_sweep(q, n, "williams", (3,))
        for coeffs, v in zip(C, betas[:, 0]):
            if v > 1e-9:
                failures.append(f"n={n} C={coeffs.tolist()}: beta3={v:.3g}")
    return failures


@pytest.mark.parametrize("center", ["closed form", "patched to 0"])
@pytest.mark.parametrize("q", [5, 7, 11])
def test_theorem1_equals_the_exact_sweep(q, center, monkeypatch):
    if center != "closed form":
        monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    nmax = q + 1 if q <= 7 else 5  # the CLI default
    want = _exact_theorem1(q, nmax)
    assert (want == []) == (center == "closed form")
    assert verify_theorem(1, q, nmax) == want


@pytest.mark.parametrize("q,nmax", [(3, 4), (5, 6), (7, 8), (11, 5)])
def test_theorem4_one_run_rule_equals_the_stack_check(q, nmax, monkeypatch):
    # the oracle expands, shifts, Williams-maps and sorts every member and its
    # reflection. Theorem 4 is decided from the coefficients and the shifts
    # alone: at the closed-form shift, at random shifts, and with one shift
    # entry moved on a seeded half of the sets, so that the oracle sees both
    closed_form_shifts = optimal._closed_form_shifts
    rng = np.random.default_rng(q)
    seen = set()
    for n in range(3, nmax + 1):
        C = optimal._q2_coefficients(q, n)
        closed = closed_form_shifts(C, q, "williams")
        moved = closed.copy()
        half = rng.permutation(len(C))[: len(C) // 2]
        moved[half, rng.integers(0, n - 2, len(half))] += rng.integers(1, q, len(half))
        for b in (closed, rng.integers(0, q, closed.shape), moved % q):
            stacks = optimal._member_stacks(C, b, q, "williams")
            want = np.concatenate([mirror_symmetric_stack(rows, q) for rows in stacks])
            monkeypatch.setattr(optimal, "_closed_form_shifts", lambda C, q, family, b=b: b)
            got = [coeffs.tolist() for coeffs, _ in optimal._theorem4([C], q)]
            assert got == C[~want].tolist(), n
            seen.update(want.tolist())
        assert closed_form_shifts(C, q, "williams").tolist() == closed.tolist()
    assert seen == {True, False}


@pytest.mark.parametrize("family", ["linear", "williams"])
def test_triple_table_is_zero_off_the_axes_at_the_closed_form_offsets(family):
    # a triple (a, b, lambda a + mu b) of a reduced set has lambda, mu != 0, so
    # at the closed-form offsets T is zero on every entry that theorem 1 reads,
    # at every n, past MAX_LEVELS too
    for q in [p for p in range(3, 48, 2) if all(p % d for d in range(3, p, 2))]:
        lam_mu = np.stack(np.divmod(np.arange(q * q), q), axis=1)
        offsets = optimal._closed_form_shifts(lam_mu, q, family)
        S = optimal._triple_table(q, family)[np.arange(q * q), offsets]
        off_axes = (lam_mu != 0).all(axis=1)
        assert off_axes.sum() == (q - 1) ** 2
        assert not S[off_axes].any(), q


@pytest.mark.parametrize("q", [5, 7])
def test_theorem2_grid_zero_sets_equal_the_per_shift_ones(q):
    checked = 0
    for n in (3, 4):
        shifts = np.array(list(product(range(q), repeat=n - 2)))
        C = optimal._q2_coefficients(q, n)
        for coeffs in C[_classify_stack(C, q) == RecursiveType.TYPE_II]:
            gen = GeneratorSet(q, coeffs)
            grid = shift_grid_beta(gen, "williams", 3)
            per_shift = shift_betas(gen, "williams", shifts, (3,))[:, 0]
            zeros = np.argwhere(grid <= 1e-9).tolist()
            assert zeros == shifts[per_shift <= 1e-9].tolist()
            assert _survivors(gen.C[None], q, "williams", 0) == [[0] + z for z in zeros]
            checked += 1
    assert checked == {5: 6 + 18, 7: 12 + 127}[q]  # type II, not type I


# the q = 5, 7 and 11 grid sets of the shift-scan pool, and example7's set
TRIPLE_SETS = [
    (5, "1,2;2,1;2,3"),
    (7, "2,2;3,6;3,2;3,5;2,3;3,4"),
    (11, "3,3;5,10;4,5;1,6;5,2;5,7"),
    (7, "1,1;1,2;1,4;1,5;2,5;2,6"),
]


# sets with d = 3 and 4 independent columns: rank-2 triples (c = e1 + e2 and
# the like) beside rank-3 ones, and the q=7 conic, whose triples are all rank 3
WIDE_SETS = [
    (5, "1,1,0;0,1,1;1,2,3"),
    (7, "1,1,0;0,1,1;1,0,1;1,1,1"),
    (3, "1,1,1,1;1,1,2,0;1,2,0,1"),
    (5, "1,1,0,0;0,0,1,1;1,1,1,1"),
    (7, "1,1,3;1,2,4;1,3,1;1,4,2;1,5,5"),
]


def _survivors(C, q, family, limit):
    # each survivor of _triple_survivors as its set followed by its shift vector:
    # the rows np.argwhere gives on a (B,) + (q,)*m grid, in the same order
    owner, shifts = optimal._triple_survivors(C, q, family, limit)
    assert owner.dtype == shifts.dtype == np.int64
    assert shifts.shape == (len(owner), C.shape[1])
    return np.column_stack([owner, shifts]).tolist()


def _brute_triple_totals(gen, family):
    # int64: each triple's run-sums S over the shifts of its own dependent
    # columns, from build_design's centred levels, S^2 broadcast into the grid,
    # then divided by q^(2(d-2)): a rank-2 triple has S = q^(d-2) T
    q, m, d = gen.q, gen.m, gen.n - gen.m
    levels = np.stack([
        build_design(gen, [s] * m, family).rows.T - (q - 1) // 2 for s in range(q)
    ])  # (q shifts, n columns, N runs)
    total = np.zeros((q,) * m, dtype=np.int64)
    for triple in combinations(range(gen.n), 3):
        sums = np.einsum(
            "ai,bi,ci->abc", *(levels[:, j] if j >= d else levels[:1, j] for j in triple)
        )
        shape = [1] * m
        for j in triple:
            if j >= d:
                shape[j - d] = q
        total += (sums * sums).reshape(shape)
    assert not (total % q ** (2 * (d - 2))).any()
    return total // q ** (2 * (d - 2))


def _split_limits(totals):
    # 0, the least nonzero total, the 1% and 50% quantiles and the largest, as
    # far as each keeps at most 20,000 shift vectors
    v = np.sort(totals.ravel())
    picks = [0, int(v[v > 0].min(initial=0)), v[len(v) // 100], v[len(v) // 2], v[-1]]
    return sorted({int(t) for t in picks if (v <= t).sum() <= 20_000})


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize("q,text", TRIPLE_SETS + WIDE_SETS)
def test_triple_totals_equal_the_int64_brute_force(q, text, family):
    # the survivors at each limit are the shift vectors whose exact total is at
    # most it; beta_3's grid is rho^6 / q^4 times the totals, to rounding
    gen = parse_generator_text(text, q)
    want = _brute_triple_totals(gen, family)
    limits = _split_limits(want)
    assert len(limits) >= 2 or not want.any()  # the q=3 set and the conic total 0 everywhere
    for limit in limits:
        got = _survivors(gen.C[None], q, family, limit)
        assert got == np.argwhere(want[None] <= limit).tolist(), limit
    v = shift_grid_beta(gen, family, 3)
    scaled = orthonormal_basis(q).rho ** 6 / q**4 * want
    assert (np.abs(v - scaled) <= 1e-13 * np.maximum(1.0, v)).all()


def test_rank_3_triples_add_nothing():
    # every triple of the q=7 conic has rank 3: every shift vector totals 0
    gen = parse_generator_text(WIDE_SETS[-1][1], 7)
    pa, pb = optimal._subsets(8, 2).T
    at = optimal._span_coordinates(column_vectors(gen.C[None]), 7, pa, pb)[0]
    assert ((at < 0) == (np.arange(8) != pa[:, None]) & (np.arange(8) != pb[:, None])).all()
    every = np.argwhere(np.ones((1,) + (7,) * 5)).tolist()
    for family in ("linear", "williams"):
        assert not _brute_triple_totals(gen, family).any()
        assert _survivors(gen.C[None], 7, family, 0) == every


def test_triple_totals_find_the_zeros_the_float_screen_misses():
    # a type-III set: at q = 23 one unit of S^2 is a beta_3 of 4.2e-11, so a
    # 1e-9 screen calls all 23 shifts zero; the exact zero is the closed form
    for q, exact, screened in (
        (17, [4, 5, 6, 7, 14], [4, 5, 6, 7, 12, 14, 16]),
        (23, [7], list(range(23))),
    ):
        gen = GeneratorSet(q, [[2, 4]])
        zeros = _survivors(gen.C[None], q, "williams", 0)
        grid = shift_grid_beta(gen, "williams", 3)
        assert zeros == [[0, b] for b in exact]
        assert np.flatnonzero(grid <= 1e-9).tolist() == screened
    ones = _survivors(gen.C[None], q, "williams", 1)
    assert [0, 5] in ones and [0, 5] not in zeros and abs(grid[5] - 4.2e-11) < 1e-12
    assert optimal_shift_williams(gen) == [7]


@pytest.mark.parametrize("q, m", [(23, 13), (23, 14), (19, 15), (17, 16)])
def test_triple_survivors_past_int64(q, m):
    # a seeded reduced q^2 set: m distinct slopes r, ascending, each column (c1, c1 r)
    # with c1 in 1..(q-1)/2. From q^m >= 2^63 a flat index into (q,)^m overflows int64;
    # q=23 m=13 sits just below. At limit 0 the closed-form shift alone survives
    rng = np.random.default_rng(q * 100 + m)
    r = np.sort(rng.choice(np.arange(1, q), m, replace=False))
    c1 = rng.integers(1, (q - 1) // 2 + 1, m)
    gen = GeneratorSet(q, np.stack([c1, c1 * r % q], axis=1))
    assert (q**m >= 2**63) == ((q, m) != (23, 13))
    for family in ("linear", "williams"):
        b = optimal._closed_form_shifts(gen.C[None], q, family).tolist()
        assert _survivors(gen.C[None], q, family, 0) == [[0] + b[0]]


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize("q", [5, 7])
def test_batched_triple_totals_equal_the_int64_brute_force(q, family):
    # theorem 2's one call per cell: every type-II set of n <= 4 at once, each
    # set's survivors at its own offset
    checked = 0
    for n in (3, 4):
        C = optimal._q2_coefficients(q, n)
        C = C[_classify_stack(C, q) == RecursiveType.TYPE_II]
        totals = np.stack([_brute_triple_totals(GeneratorSet(q, c), family) for c in C])
        for limit in (0, 1, int(np.median(totals))):
            assert _survivors(C, q, family, limit) == np.argwhere(totals <= limit).tolist()
        checked += len(C)
    assert checked == {5: 6 + 18, 7: 12 + 127}[q]


def _band_sets():
    # the TRIPLE_SETS, the q = 17 and 23 two-zero sets and WIDE_SETS, then twelve
    # seeded random reduced q^2 sets per cell of at most 2,401 shift vectors
    sets = [(q, parse_generator_text(t, q).C) for q, t in TRIPLE_SETS + WIDE_SETS]
    sets += [(q, np.array([[2, 4]])) for q in (17, 23)]
    rng = np.random.default_rng(2004)
    for q in _primes_to_max_levels()[1:]:
        for n in range(3, q + 2):
            if q ** (n - 2) > 2401:
                break
            C = optimal._q2_coefficients(q, n)
            sets += [(q, C[i]) for i in rng.choice(len(C), min(12, len(C)), replace=False)]
    return sets


def test_triple_band_keeps_the_float_cut_survivors():
    # on every set, the exact cut keeps what _keep_minimal keeps on the float
    # beta_3 grid; at q = 17, 19 and 23 some kept totals are not zero
    in_band = 0
    for q, C in _band_sets():
        gen = GeneratorSet(q, C)
        for family in ("linear", "williams"):
            got = _survivors(C[None], q, family, optimal._beta3_band(q))
            want = np.argwhere(_keep_minimal(shift_grid_beta(gen, family, 3))[None])
            assert got == want.tolist(), (q, C.tolist(), family)
            in_band += len(got) - len(_survivors(C[None], q, family, 0))
    assert len(_band_sets()) > 200 and in_band > 0


def test_triple_band_edge_is_far_from_rounding():
    # t* and t* + 1 lie at least 1e-3 (relative) on either side of the 1e-8
    # band edge, so float rounding in the grid could not move a shift across it
    bands = {}
    for q in _primes_to_max_levels():
        t = bands[q] = optimal._beta3_band(q)
        rho6 = orthonormal_basis(q).rho ** 6
        assert rho6 * t / q**4 <= DEFAULT_TOL * (1 - 1e-3), q
        assert rho6 * (t + 1) / q**4 >= DEFAULT_TOL * (1 + 1e-3), q
    assert bands == {3: 0, 5: 0, 7: 0, 11: 0, 13: 0, 17: 11, 19: 35, 23: 238}


def _centred(q, family, levels):
    # centred levels of linear levels, from williams_levels, not the table builders
    levels = np.asarray(levels) % q
    return (williams_levels(levels, q) if family == "williams" else levels) - (q - 1) // 2


def _brute_plane_sums(q, family):
    # int64 over the q^2 runs x: columns a = (1, 0), b = (0, 1) and every
    # c = (lambda, mu), each at linear level w.x + its closed-form shift
    # (1 - w_1 - w_2) g, and T at every offset o of c with a and b unshifted.
    # S sums L_a L_b L_c, I sums L_a L_b L_c^2 and J sums L_a L_b L_c L_d
    g = center_preimage(q) if family == "williams" else (q - 1) // 2
    x1, x2 = np.divmod(np.arange(q * q), q)
    lam, mu = (t[:, None] for t in np.divmod(np.arange(q * q), q))
    L = _centred(q, family, lam * x1 + mu * x2 + (1 - lam - mu) * g)  # (q^2 columns, q^2 runs)
    w = _centred(q, family, x1) * _centred(q, family, x2)
    S = np.array([(w * L[c]).sum() for c in range(q * q)])
    I = np.array([(w * L[c] ** 2).sum() for c in range(q * q)])
    J = np.array([[(w * L[c] * L[d]).sum() for d in range(q * q)] for c in range(q * q)])
    T = np.array([
        [(w * _centred(q, family, lam[c, 0] * x1 + mu[c, 0] * x2 + o)).sum() for o in range(q)]
        for c in range(q * q)
    ])
    return S, I, J, T


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize("q", [5, 7])
def test_plane_tables_equal_an_int64_brute_force(q, family):
    # every entry of the key's J and the shift grids' T, and the S and I they
    # hold: theorem 1's S is T at the closed-form offsets, the key's I the
    # diagonal of J
    S, I, J, T = _brute_plane_sums(q, family)
    quad = optimal._quad_table(q, family, optimal._shift_centre(q, family))
    assert quad.dtype == np.int64 and not quad.flags.writeable
    assert np.array_equal(quad, J) and np.array_equal(quad.diagonal(), I)
    table = optimal._triple_table(q, family)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert np.array_equal(table, T)
    assert optimal._triple_table(q, family) is table
    lam_mu = np.stack(np.divmod(np.arange(q * q), q), axis=1)
    offsets = optimal._closed_form_shifts(lam_mu, q, family)
    assert np.array_equal(table[np.arange(q * q), offsets], S)


def _fresh(builder, *args):
    # the uncached build behind an lru_cache'd table builder
    return builder.__wrapped__(*args)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_cell_free_tables_are_built_once_and_read_only(q):
    # the run-sum tables and the image key table depend on q (and the
    # family and its centre) alone: one read-only object per process, equal
    # to a fresh build, so every cell of a reproduce run shares them
    for family in ("linear", "williams"):
        g = optimal._shift_centre(q, family)
        for builder, args in ((optimal._quad_table, (q, family, g)),
                              (optimal._triple_table, (q, family))):
            table = builder(*args)
            assert builder(*args) is table
            assert not table.flags.writeable and table.dtype == np.int64
            assert np.array_equal(table, _fresh(builder, *args))
    key = optimal._image_keys(q)
    assert optimal._image_keys(q) is key and optimal._image_tables(q, 4)[0] is key
    assert not key.flags.writeable and key.dtype == np.int32
    assert np.array_equal(key, _fresh(optimal._image_keys, q))


@pytest.mark.parametrize("q,n", [(7, n) for n in range(3, 9)] + [(11, 6)])
def test_image_tables_are_built_once_and_read_only(q, n):
    # the q2-sweep cells and q=11 n=6: one read-only set of tables per
    # (q, n), equal to a fresh build
    def arrays(tables):  # (key, weight, where) with where's three arrays
        return (*tables[:2], *tables[2])

    tables = optimal._image_tables(q, n)
    assert optimal._image_tables(q, n) is tables
    for got, want in zip(arrays(tables), arrays(_fresh(optimal._image_tables, q, n)), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for arr in arrays(tables):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_closed_form_sums_follow_the_centre(monkeypatch):
    # J's cache is keyed on the shift centre that it reads: a patched centre
    # gets its own table, and the true one comes back after it. T reads no
    # centre; theorem 1 reads it at the patched centre's offsets
    def quad(family):
        return optimal._quad_table(5, family, optimal._shift_centre(5, family))

    true = quad("williams")
    true_lines = verify_theorem(1, 5, 4)
    monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    assert not np.array_equal(quad("williams"), true)
    assert quad("linear") is quad("linear")
    assert verify_theorem(1, 5, 4) != true_lines
    monkeypatch.undo()
    assert quad("williams") is true
    assert verify_theorem(1, 5, 4) == true_lines == []


def _primes_to_max_levels():
    return [q for q in range(3, MAX_LEVELS + 1, 2) if all(q % p for p in range(3, q, 2))]


@pytest.mark.parametrize("family", ["linear", "williams"])
def test_closed_form_sums_read_the_triple_table_at_the_closed_form_offsets(family):
    # theorem 1 reads S from the shift grids' T: at the closed-form shifts
    # c = lambda a + mu b is offset by the closed-form shift of (lambda, mu).
    # S = A @ (A[q] A[1]) for A the centred levels of every column there
    for q in _primes_to_max_levels():
        lam_mu = np.stack(np.divmod(np.arange(q * q), q), axis=1)
        offsets = optimal._closed_form_shifts(lam_mu, q, family)
        x1, x2 = np.divmod(np.arange(q * q), q)
        A = _centred(q, family, lam_mu[:, :1] * x1 + lam_mu[:, 1:] * x2 + offsets[:, None])
        S = A @ (A[q] * A[1])
        assert np.array_equal(S, optimal._triple_table(q, family)[np.arange(q * q), offsets]), q


def test_theorem2_refuses_q_above_max_levels_before_classifying(monkeypatch):
    def no_classify(C, q):
        raise AssertionError("a cell was classified for q > MAX_LEVELS")

    monkeypatch.setattr(optimal, "_classify_stack", no_classify)
    with pytest.raises(InputError, match="q=29 exceeds 23, the largest level count"):
        verify_theorem(2, 29, 4)


def test_verified_nmax_is_the_range_verify_theorem_covers():
    # theorem 2 stops at n = 4; the others cover the nmax they are given
    assert [optimal.verified_nmax(2, nmax) for nmax in (3, 4, 5, 8)] == [3, 4, 4, 4]
    assert [optimal.verified_nmax(theorem, 8) for theorem in (1, 4)] == [8, 8]


def test_verify_theorem_validates_input():
    with pytest.raises(InputError, match="theorem"):
        verify_theorem(3, 5, 4)
    with pytest.raises(InputError, match=r"^nmax=7 out of range 3\.\.6 for q=5$"):
        verify_theorem(1, 5, 7)
    with pytest.raises(InputError, match=r"^nmax=2 out of range 3\.\.6 for q=5$"):
        verify_theorem(1, 5, 2)
    with pytest.raises(InputError):
        verify_theorem(1, 9, 4)


# --- generator enumeration -----------------------------------------------------

def test_enumeration_counts():
    assert len(list(enumerate_q2_generators(5, 3))) == 8
    assert len(list(enumerate_q2_generators(5, 4))) == 24
    assert len(list(enumerate_q2_generators(5, 5))) == 32
    assert len(list(enumerate_q2_generators(5, 6))) == 16
    assert len(list(enumerate_q2_generators(7, 3))) == 18


def test_enumeration_is_reduced_and_distinct():
    gens = list(enumerate_q2_generators(5, 4))
    seen = {tuple(map(tuple, g.C.tolist())) for g in gens}
    assert len(seen) == len(gens)
    half = (5 - 1) // 2
    for g in gens:
        assert (g.m, g.n) == (2, 4)
        assert all(1 <= row[0] <= half for row in g.C.tolist())


def test_enumeration_range_check():
    with pytest.raises(InputError):
        list(enumerate_q2_generators(5, 2))
    with pytest.raises(InputError):
        list(enumerate_q2_generators(5, 7))


def test_enumeration_refuses_oversized_cells():
    # the generator yields the rows of the one cell builder, under its cap
    with pytest.raises(CapExceededError, match="over the cap of 2000000"):
        next(enumerate_q2_generators(13, 8))  # C(12,6) * 6^6 = 43.1M sets


def test_standard_generators_frozen():
    assert standard_generators(5, 3).C.tolist() == [[1, 1]]
    assert standard_generators(5, 5).C.tolist() == [[1, 1], [1, 2], [1, 3]]
    with pytest.raises(InputError):
        standard_generators(5, 7)


# --- generator-space search -----------------------------------------------------

def test_search_q2_25_run_three_columns():
    rep = search_q2(5, 3)
    assert rep.standard_generators == [[1, 1]]
    assert rep.standard_beta3 == pytest.approx(0.125, abs=1e-9)
    assert rep.standard_beta4 == pytest.approx(0.525, abs=1e-9)
    assert rep.linear.generators == [[1, 2]]
    assert rep.linear.b == [1]
    assert rep.linear.beta3 <= 1e-9
    assert rep.linear.beta4 == pytest.approx(0.2714285714, abs=1e-9)
    assert rep.linear.ties == [[[1, 2]], [[1, 3]], [[2, 1]], [[2, 2]], [[2, 3]], [[2, 4]]]
    assert rep.williams.generators == [[1, 1]]
    assert rep.williams.b == [4]
    assert rep.williams.beta4 == pytest.approx(0.0274285714, abs=1e-9)
    assert rep.williams.ties == [[[1, 1]], [[1, 4]]]
    assert rep.linear.evaluations == rep.williams.evaluations == 8


def test_search_q2_winner_heads_tie_list():
    rep = search_q2(7, 4)
    assert rep.linear.generators == rep.linear.ties[0]
    assert rep.williams.generators == rep.williams.ties[0]
    assert rep.williams.beta3 <= 1e-9


def test_search_q2_json_shape():
    d = json.loads(json.dumps(search_q2(5, 3).to_json_dict()))
    assert set(d) == {"q", "n", "standard", "linear", "williams"}
    assert list(d["linear"]) == [
        "family", "generators", "b", "beta", "ties", "evaluations", "decided_k",
    ]
    assert d["standard"]["beta"] == pytest.approx([0.125, 0.525], abs=1e-9)


# --- generator-space search: tables prune, exact enumeration prints ---------------

def closed_form_sweep(q, n, family, ks):
    """The exact oracle: beta_k_stack of every reduced set at its closed-form shift.

    Returns the (B, m, 2) coefficient stack in enumerate_q2_generators order
    and the (B, len(ks)) measures.
    """
    C = optimal._q2_coefficients(q, n)
    b = optimal._closed_form_shifts(C, q, family)
    stacks = optimal._member_stacks(C, b, q, family)
    return C, np.concatenate([beta_k_stack(rows, ks, q) for rows in stacks])


@lru_cache(maxsize=None)
def _exact_cell(q, n, family):
    C, betas = closed_form_sweep(q, n, family, (3, 4))
    C.setflags(write=False)
    betas.setflags(write=False)
    return C, betas


def _exact_family_best(q, n, family):
    # the generator search without tables: exact beta_3 and beta_4 of every
    # set, _keep_minimal on each, then full patterns ranked for the survivors
    from wtdesigns.optimal import FamilyBest

    C, betas = _exact_cell(q, n, family)
    b = optimal._closed_form_shifts(C, q, family)
    alive = np.arange(len(C))
    decided = None
    for col, k in ((0, 3), (1, 4)):
        keep = _keep_minimal(betas[alive, col])
        if not keep.all():
            decided = k
            alive = alive[keep]
    patterns = [
        beta_pattern(build_design(GeneratorSet(q, C[i]), b[i], family)).values
        for i in alive
    ]
    if len(alive) > 1:
        idx, sub_decided = _rank_candidates(len(patterns), np.array(patterns).T)
        if sub_decided is not None:
            decided = sub_decided
        alive = alive[idx]
    order = sorted(range(len(alive)), key=lambda i: C[alive[i]].tolist())
    win = alive[order[0]]
    return FamilyBest(
        family=family,
        generators=C[win].tolist(),
        b=b[win].tolist(),
        ties=[C[alive[i]].tolist() for i in order],
        evaluations=len(C),
        decided_k=decided,
        beta3=float(betas[win, 0]),
        beta4=float(betas[win, 1]),
    )


# every cell of the q2-25run and q2-49run tables, and the five-column cells
# of q = 11 and 13, where one exact sweep takes seconds
Q2_CELLS = (
    [(5, n) for n in range(3, 7)]
    + [(7, n) for n in range(3, 9)]
    + [pytest.param(q, 5, marks=pytest.mark.slow) for q in (11, 13)]
)


@pytest.mark.parametrize("q,n", Q2_CELLS)
def test_search_q2_equals_the_exact_sweep(q, n):
    rep = search_q2(q, n)
    for family in ("linear", "williams"):
        got = getattr(rep, family)
        want = _exact_family_best(q, n, family)
        # repr prints every float to the last bit
        assert got == want
        assert repr(got) == repr(want)


@pytest.mark.parametrize("q,n", [(3, 3), (3, 4)] + Q2_CELLS)
def test_beta3_cuts_no_set_at_the_closed_form_shift(q, n):
    # search_q2 cuts on beta_4 alone. At its closed-form shift every linear
    # member is mirror-symmetric (optimal_shift_linear; theorem 4 checks the
    # Williams family), so its odd run-sums cancel and beta_3 is rounding,
    # far inside the tie band, in both families and on every set
    C = optimal._q2_coefficients(q, n)
    b = optimal._closed_form_shifts(C, q, "linear")
    stacks = optimal._member_stacks(C, b, q, "linear")
    assert np.concatenate([mirror_symmetric_stack(rows, q) for rows in stacks]).all()
    for family in ("linear", "williams"):
        assert _exact_cell(q, n, family)[1][:, 0].max() < 1e-20


def _brute_run_sum_totals(q, n):
    # int64 sums of S^2 over the column triples of every Williams set at its
    # closed-form shift, S the run-sum of three centred levels
    C = optimal._q2_coefficients(q, n)
    shifts = optimal._closed_form_shifts(C, q, "williams")
    totals = []
    for rows in optimal._member_stacks(C, shifts, q, "williams"):
        x = rows - (q - 1) // 2
        totals.append(sum(
            (x[:, :, a] * x[:, :, b] * x[:, :, c]).sum(axis=1) ** 2
            for a, b, c in combinations(range(n), 3)
        ))
    return C, np.concatenate(totals)


def _table_totals(C, q):
    # theorem 1's totals: S^2 from T at the closed-form offsets, at each triple's coordinates
    lam_mu = np.stack(np.divmod(np.arange(q * q), q), axis=1)
    offsets = optimal._closed_form_shifts(lam_mu, q, "williams")
    S2 = optimal._triple_table(q, "williams")[np.arange(q * q), offsets].reshape(q, q) ** 2
    X = optimal._cross_products(column_vectors(C), q)
    triples = combinations(range(C.shape[1] + 2), 3)
    return sum(S2[optimal._coordinates(X, q, a, b, c)] for a, b, c in triples)


@pytest.mark.parametrize("q,n", Q2_CELLS)
def test_table_betas_stay_far_inside_the_band(q, n, monkeypatch):
    # theorem 1's run-sum totals are exact, and beta_3 = rho^6 / N^2 times
    # the total lies within 1e-13 of beta_k_stack's, far inside DEFAULT_TOL;
    # with a wrong centre the totals are nonzero, and still exact
    C, want = _brute_run_sum_totals(q, n)
    got = _table_totals(C, q)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    _, betas = _exact_cell(q, n, "williams")
    rho = orthonormal_basis(q).rho
    assert np.abs(rho**6 * got / q**4 - betas[:, 0]).max() <= 1e-13
    monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    C, want = _brute_run_sum_totals(q, n)
    assert want.any() and np.array_equal(_table_totals(C, q), want)


def test_run_sum_totals_stay_exact_in_float64():
    # the plane tables are built in float64 and read as int64. Every entry
    # of T, S among them, is at most N ((q-1)/2)^3, and every partial sum of
    # its histogram and circulant product is an integer below 2^53, so
    # float64 holds them exactly; a set's total of S^2 over its C(n, 3)
    # triples stays below 2^63 on every cell that SEARCH_CAP admits
    for q in _primes_to_max_levels():
        bound = q * q * ((q - 1) // 2) ** 3
        assert bound < 2**53, q
        for family in ("linear", "williams"):
            assert np.abs(optimal._triple_table(q, family)).max() <= bound, (q, family)
    for q, n in _admitted_cells():
        assert comb(n, 3) * (q * q * ((q - 1) // 2) ** 3) ** 2 < 2**63, (q, n)
    assert len(_primes_to_max_levels()) == 8  # 3, 5, 7, 11, 13, 17, 19, 23


def test_table_betas_do_not_depend_on_the_chunk_size(monkeypatch, budget):
    # theorem 1 cuts each cell into chunks of its cross products; one to four
    # sets per chunk (a wrong centre, so that sets fail) report the same lines
    monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    want = verify_theorem(1, 5, 6)
    assert len(want) > 0
    calls = budget(4 * 6 * 6)
    assert verify_theorem(1, 5, 6) == want
    # n = 3..6 columns: 4 n^2 bytes of X per set, so 4, 2, 1 and 1 sets per chunk
    assert [(count, max(sizes)) for _, _, count, sizes in calls] == [
        (8, 4), (24, 2), (32, 1), (16, 1),
    ]


def test_theorem2_does_not_depend_on_the_chunk_size(monkeypatch, budget):
    # theorem 2 grows the type-II sets' shift vectors in chunks of candidates;
    # one candidate per chunk (a wrong centre, so that sets fail) reports the same lines
    monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    want = verify_theorem(2, 7, 4)
    assert len(want) > 12
    calls = budget(8 * 7 * 4)
    assert verify_theorem(2, 7, 4) == want
    steps = [(count, sizes) for module, _, count, sizes in calls if module == "optimal"]
    # 8 q bytes per triple and per shift of a partial vector: 224 for the first
    # dependent column (one triple, three shifts), 392 for the second (three, four)
    assert steps == [(12, [1] * 12), (127, [1] * 127), (127, [1] * 127)]


def test_theorem1_builds_its_table_once_per_run(monkeypatch):
    # one read of the run-sum table serves every cell of the run, n = 3..6 here
    calls = []
    table = optimal._triple_table

    def counted(q, family):
        calls.append((q, family))
        return table(q, family)

    monkeypatch.setattr(optimal, "_triple_table", counted)
    assert verify_theorem(1, 11, 6) == []
    assert calls == [(11, "williams")]


def test_theorem1_reports_a_beta3_below_the_zero_tolerance(monkeypatch):
    # at q = 23 one unit of S^2 is 4.2e-11 of beta_3: with a wrong centre,
    # nine units are a failure that a 1e-9 threshold would pass
    monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
    assert "n=3 C=[[2, 4]]: beta3=3.78e-10" in verify_theorem(1, 23, 3)


def test_theorem1_refuses_q_above_max_levels_before_the_table(monkeypatch):
    def no_table(q, family):
        raise AssertionError("the closed-form table was built for q > MAX_LEVELS")

    monkeypatch.setattr(optimal, "_triple_table", no_table)
    with pytest.raises(InputError, match="q=29 exceeds 23"):
        verify_theorem(1, 29, 3)


def _representatives(q, n):
    C = optimal._q2_coefficients(q, n)
    return C[np.unique(optimal._cell_orbits(C, q))]


def _brute_beta4_key(gen, family):
    # K / 36 from the int64 run-sum tensor of build_design's centred levels
    q, n = gen.q, gen.n
    b = optimal._closed_form_shifts(gen.C, q, family)
    L = build_design(gen, b, family).rows.astype(np.int64) - (q - 1) // 2
    T = np.einsum("ia,ib,ic,id->abcd", L, L, L, L)
    sum_i2 = sum(
        int(T[a, a, b, c]) ** 2
        for a in range(n)
        for b, c in combinations(range(n), 2)
        if a not in (b, c)
    )
    sum_j2 = sum(int(T[a, b, c, d]) ** 2 for a, b, c, d in combinations(range(n), 4))
    return 5 * (q * q - 1) * sum_i2 + 4 * (q * q - 4) * sum_j2


KEY_CELLS = [(5, n) for n in range(3, 7)] + [(7, n) for n in range(3, 9)]


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize("q,n", KEY_CELLS)
def test_beta4_keys_equal_an_int64_brute_force(q, n, family):
    # one call keys both families, a row each in FAMILIES order
    reps = _representatives(q, n)
    keys = optimal._beta4_keys(reps, q)
    assert keys.dtype == np.int64 and keys.shape == (2, len(reps))
    got = keys[optimal.FAMILIES.index(family)]
    assert got.tolist() == [_brute_beta4_key(GeneratorSet(q, C), family) for C in reps]


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize("q,n", [(3, 3), (3, 4)] + Q2_CELLS)
def test_beta4_keys_scale_to_beta_k_stack(q, n, family):
    # beta_4 = 36 K' * 144 / (N^2 (q^2-1)^4 (q^2-4)) for the key K' = K / 36
    C, betas = _exact_cell(q, n, family)
    keys = optimal._beta4_keys(C, q)[optimal.FAMILIES.index(family)]
    scale = 36 * 144 / (q**4 * (q * q - 1) ** 4 * (q * q - 4))  # N = q^2
    assert np.abs(keys * scale - betas[:, 1]).max() <= 1e-13


@pytest.mark.parametrize(
    "q,n", KEY_CELLS + [pytest.param(11, 5, marks=pytest.mark.slow)]
)
def test_beta4_keys_are_constant_on_every_orbit(q, n):
    C = optimal._q2_coefficients(q, n)
    orbit = optimal._cell_orbits(C, q)
    keys = optimal._beta4_keys(C, q)
    assert (keys == keys[:, orbit]).all()  # an orbit's label is one of its members


def _admitted_cells():
    # every (q, n) cell that SEARCH_CAP admits up to MAX_LEVELS
    primes = [q for q in range(3, MAX_LEVELS + 1, 2) if all(q % p for p in range(3, q, 2))]
    cells = [(q, n) for q in primes for n in range(3, q + 2)]
    return [(q, n) for q, n in cells if optimal._q2_cell_sets(q, n) <= optimal.SEARCH_CAP]


def test_beta4_keys_stay_exact_in_int64():
    # |J| <= B = N ((q-1)/2)^4 at N = q^2 runs, I among its entries, so every
    # table entry and partial sum is an integer below 2^53 and J^2 is too; a
    # set of n columns has n C(n-1, 2) I terms and C(n, 4) J terms. On every
    # cell that SEARCH_CAP admits, the key stays below 2^63 (int64)
    for q in _primes_to_max_levels():
        bound = q * q * ((q - 1) // 2) ** 4
        assert bound**2 < 2**53, q
        for family in ("linear", "williams"):
            J = optimal._quad_table(q, family, optimal._shift_centre(q, family))
            assert np.abs(J).max() <= bound, (q, family)
    checked = 0
    for q, n in _admitted_cells():
        bound = (q * q * ((q - 1) // 2) ** 4) ** 2
        terms_i, terms_j = n * comb(n - 1, 2), comb(n, 4)
        assert bound * (5 * (q * q - 1) * terms_i + 4 * (q * q - 4) * terms_j) < 2**63, (q, n)
        checked += 1
    assert checked == 2 + 4 + 6 + 5 + 4 + 3 + 3 + 2  # q = 3, 5, 7, 11, 13, 17, 19, 23


# --- Cheng-Ye orbits of the q^2 generator space --------------------------------

def _cell_index(C, q):
    """Oracle: the row of each reduced set of a (..., m, 2) stack in _q2_coefficients' order.

    The slope set's rank among combinations(range(1, q), m), lexicographic,
    times ((q-1)/2)^m, plus the scale vector's rank in product order.
    """
    m = C.shape[-2]
    half = (q - 1) // 2
    t = C[..., 1] * inverse_table(q)[C[..., 0]] % q - 1  # ascending slopes - 1, in 0..q-2
    binom = np.array([[comb(x, k) for k in range(m + 1)] for x in range(q - 1)])
    slope_rank = comb(q - 1, m) - 1 - binom[q - 2 - t, m - np.arange(m)].sum(axis=-1)
    scale_rank = ((C[..., 0] - 1) * half ** np.arange(m - 1, -1, -1)).sum(axis=-1)
    return slope_rank * half**m + scale_rank


def _reduced_images(C, q):
    """Oracle: the images of a (B, m, 2) stack under the Cheng-Ye group, (B, G, m, 2).

    Element (a, b, s) of optimal._group_elements takes (x_a, s x_b) as the
    new independent pair; every other column is solved for in that basis by
    Cramer's rule, negated if need be so that its first coefficient lies in
    1..(q-1)/2 (a level reversal), and the columns are sorted by slope.
    """
    half = (q - 1) // 2
    inv = inverse_table(q)
    a, b, s, others = optimal._group_elements(C.shape[1] + 2)
    cols = column_vectors(C)
    x, y, v = cols[:, a], cols[:, b] * s[:, None], cols[:, others]  # (B, G, 2) twice, (B, G, m, 2)
    det = inv[(x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]) % q][..., None]
    alpha = det * (y[..., 1, None] * v[..., 0] - y[..., 0, None] * v[..., 1]) % q
    beta = det * (x[..., 0, None] * v[..., 1] - x[..., 1, None] * v[..., 0]) % q
    flip = alpha > half
    alpha = np.where(flip, q - alpha, alpha)
    beta = np.where(flip, q - beta, beta)  # beta != 0: no column is proportional to x
    order = np.argsort(beta * inv[alpha] % q, axis=-1)
    return np.stack(
        [np.take_along_axis(alpha, order, axis=-1), np.take_along_axis(beta, order, axis=-1)],
        axis=-1,
    )


ORBIT_CELLS = [(5, n) for n in range(3, 7)] + [(7, n) for n in range(3, 9)] + [(11, 4), (13, 3)]
IMAGE_CELLS = (
    ORBIT_CELLS
    + [(17, 4), (19, 4), (23, 3), (23, 4)]
    + [pytest.param(q, 5, marks=pytest.mark.slow) for q in (11, 13)]
)


@pytest.mark.parametrize("q,n", IMAGE_CELLS)
def test_image_indices_equal_the_oracle(q, n):
    # image for image, in _group_elements' order, on every set of the cell;
    # element 0, the identity, gives each set its own row
    C = optimal._q2_coefficients(q, n)
    tables = optimal._image_tables(q, n)
    for lo in range(0, len(C), 2048):
        part = C[lo : lo + 2048]
        got = optimal._image_indices(part, q, tables)
        assert got.shape == (2 * n * (n - 1), len(part))
        assert np.array_equal(got[0], lo + np.arange(len(part)))
        assert np.array_equal(got.T, _cell_index(_reduced_images(part, q), q))


@pytest.mark.parametrize("q,n", ORBIT_CELLS)
def test_group_images_are_reduced_sets_of_the_same_orbit(q, n):
    C = optimal._q2_coefficients(q, n)
    assert _cell_index(C, q).tolist() == list(range(len(C)))
    assert C.dtype == np.int16 and C.flags.c_contiguous  # the scales' layout does not leak
    rng = np.random.default_rng(100 * q + n)
    pick = np.arange(len(C)) if len(C) <= 60 else rng.choice(len(C), 60, replace=False)
    images = _reduced_images(C[pick], q)
    assert images.shape == (len(pick), 2 * n * (n - 1), n - 2, 2)
    assert (images[:, 0] == C[pick]).all()  # element 0 is the identity
    idx = _cell_index(images, q)
    assert ((0 <= idx) & (idx < len(C))).all()
    assert (C[idx] == images).all()  # every image is a reduced set of the cell
    orbit = optimal._cell_orbits(C, q)
    assert (orbit[idx] == orbit[pick, None]).all()


@pytest.mark.parametrize("q,n", ORBIT_CELLS)
def test_cell_orbits_equal_the_smallest_image_index(q, n):
    C = optimal._q2_coefficients(q, n)
    brute = _cell_index(_reduced_images(C, q), q).min(axis=1)
    orbit = optimal._cell_orbits(C, q)
    assert (orbit == brute).all()
    assert (orbit[orbit] == orbit).all()  # a label is the row of one of its members


def test_orbit_counts_of_the_tabulated_cells():
    counts = {
        q: [len(np.unique(optimal._cell_orbits(optimal._q2_coefficients(q, n), q))) for n in ns]
        for q, ns in ((5, range(3, 7)), (7, range(3, 9)))
    }
    assert counts == {5: [2, 3, 3, 2], 7: [4, 12, 18, 32, 26, 16]}


def test_orbit_ids_do_not_depend_on_the_chunk_size(monkeypatch, budget):
    C = optimal._q2_coefficients(7, 6)
    want = optimal._cell_orbits(C, 7)
    batches = []
    image_indices = optimal._image_indices

    def spy(C, q, tables):
        batches.append(len(C))
        return image_indices(C, q, tables)

    monkeypatch.setattr(optimal, "_image_indices", spy)
    budget(1)  # one set per batch
    assert (optimal._cell_orbits(C, 7) == want).all()
    assert set(batches) == {1} and len(batches) == len(np.unique(want))


def _batch_sizes(monkeypatch, C, q):
    """The sizes of the batches in which _cell_orbits labels C, and its labels."""
    batches = []
    image_indices = optimal._image_indices

    def spy(C, q, tables):
        batches.append(len(C))
        return image_indices(C, q, tables)

    monkeypatch.setattr(optimal, "_image_indices", spy)
    return batches, optimal._cell_orbits(C, q)


@pytest.mark.parametrize("q,n", ORBIT_CELLS + [(17, 4), (23, 3)])
def test_first_batch_is_the_orbit_count_bound(monkeypatch, q, n):
    # an orbit is the images of any one member, so it has at most G = 2n(n-1)
    # sets and a cell of B sets has at least B / G orbits: the first batch
    # takes that many sets, up to the first chunk, then batches double
    C = optimal._q2_coefficients(q, n)
    G = 2 * n * (n - 1)
    cap = chunks(len(C), 4 * G * (n - 2))[0].stop
    batches, orbit = _batch_sizes(monkeypatch, C, q)
    first = min(cap, -(-len(C) // G))
    assert batches[0] == first
    assert len(np.unique(orbit)) >= -(-len(C) // G)
    assert all(b <= min(cap, first * 2**i) for i, b in enumerate(batches))


def test_q7_n8_is_labelled_in_three_batches(monkeypatch):
    # 16 orbits of 3,888 sets: one-set batches took six _image_indices calls
    batches, orbit = _batch_sizes(monkeypatch, optimal._q2_coefficients(7, 8), 7)
    assert len(batches) <= 3 and len(np.unique(orbit)) == 16


# sha256 of json.dumps(search_q2(q, n).to_json_dict()) on every cell that
# SEARCH_CAP admits up to MAX_LEVELS, recorded while the q^2 search ranked its
# tied orbits on full patterns and labelled each cell from one-set batches
Q2_JSON_SHA256 = {
    (3, 3): "3562b193ab692a956ef4be25663d4d9c5f94f45d4c541065b67d34cb90e13d83",
    (3, 4): "cb9165a7a35b8a2a119128f84e9a8c76479f5592bf0d03a1980c77eee911ad8c",
    (5, 3): "79ef4236a8ea47ec8125b557f11226eba43123ce79f03d2e528faf5a7d498fba",
    (5, 4): "728dc7fb513270946112901bd5b2f108d460dae22c1d8ef7204ee6e9c475dfd2",
    (5, 5): "455d26be8595e1d094926b805fb41f000a3382e782e966d5c8bf87f6b5f27213",
    (5, 6): "23675ec3de99f1c4b260c83c2c3f36fca31183facd94081a428d0f600f242d29",
    (7, 3): "9576bce88c81e9fe44725d2e2f9e0b79f504531cb92a9031a937c6d7f38b546d",
    (7, 4): "daa840214b1df80105fcbe621a5cfdd82eb2cc7d73b94f57c2c34da03815b7dd",
    (7, 5): "aef3d2909865a32a9d7c3701bd86910fe6479724fab8b44e5e1093d837ef6245",
    (7, 6): "dac5609cbd9a0596695f8fa79c6c2d5ab9affb1ac6f8e91ee8c7478ee83670a8",
    (7, 7): "18d8804d0f109607264584a1bc653988e032b4150e47485d44fec9b2169ed726",
    (7, 8): "5aa778e909c4d371fbf4eb60007de9effe32fee0138c1709844723cb012678c5",
    (11, 3): "29f60a50076836e0adc771e0f42e230942610ef50a02d61aad1dfbccb6fb8213",
    (11, 4): "2ac607e2a0d4ca3cbcf35ee3a5371a4bbca6e037a59036e5c5249c13c4a45108",
    (11, 5): "e5f923a13f6d8f7820914a2e2c17b8ca6b4c2ae0e5b8b1c6c12a1a9eb713e19d",
    (11, 6): "5be0f21cbd192c967602c13d85e582a3e12e24f8247d0f7dbecae630a812cd76",
    (11, 7): "96feeeee47bcc5309b59e2dd7a5deb4a3ebf6df47cbe2c23cc85122e1030ada1",
    (13, 3): "0aff4928fdb492c84b6ce4732b601c149305dedb6123f55aea318684f77176c9",
    (13, 4): "3bbea2f39cd880214ceff6654889bc616cc1996bd7601b7bb4d8c43e6725c569",
    (13, 5): "4149e7c575b118b04f806ecf4ff35adad258792e095d348e2299421b00808764",
    (13, 6): "ac4dad7bc6ff66dec116849eeb03e759b8d59987f1dd44893ebdbe05e86b6748",
    (17, 3): "d1b2c2f5ab84f9ed013d3d877b261c72fd830e2a4ef0a3d01959fc295e251641",
    (17, 4): "c237ccdbbd7fe63d400b17c8409893afa754177ac3a928514d691db90eabf9a0",
    (17, 5): "fe496e68ade5fb125978299a48f299e34fcc909441777e08f4eb0e4a60fd6daa",
    (19, 3): "a8c8bda9a549a5c98c118d123a4ee8c8db3f2d791bad725a9872f29af62522c1",
    (19, 4): "49ae873ed08272183c960d3e4c67d90da3f0b6052e57006cb5e526855659e131",
    (19, 5): "61487a49d090bd2e171404b2d64955636c25308f9024da05d31499f1c2301401",
    (23, 3): "b2120e27a0ebb33205724660c9c1e33a8497f90a86e930408ff27a970f4ede6c",
    (23, 4): "3dad23db3d940f900e97343ab296298deca34534a36f5929c404904c302914d4",
}


def test_search_q2_bytes_on_every_admitted_cell():
    assert sorted(Q2_JSON_SHA256) == _admitted_cells()
    for (q, n), want in Q2_JSON_SHA256.items():
        text = json.dumps(search_q2(q, n).to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == want, (q, n)


@pytest.mark.parametrize("q,n", [(5, n) for n in range(3, 7)] + [(7, n) for n in range(3, 9)])
def test_search_q2_does_not_depend_on_the_representative(q, n, monkeypatch):
    # label each orbit by its largest row instead of its smallest: every
    # orbit of two or more sets is then represented by another member
    cell_orbits = optimal._cell_orbits

    def largest_row(C, q):
        orbit = cell_orbits(C, q)
        last = np.zeros_like(orbit)
        np.maximum.at(last, orbit, np.arange(len(C)))
        return last[orbit]

    C = optimal._q2_coefficients(q, n)
    assert (largest_row(C, q) != cell_orbits(C, q)).any()
    want = search_q2(q, n).to_json_dict()
    monkeypatch.setattr(optimal, "_cell_orbits", largest_row)
    assert search_q2(q, n).to_json_dict() == want


# sampled sets per cell; q = 11 and 13 at few columns, where a pattern is cheap
INVARIANCE_CELLS = (
    [(5, n, 3) for n in range(3, 7)] + [(7, n, 2) for n in range(4, 9)] + [(11, 4, 1), (13, 3, 1)]
)


@pytest.mark.parametrize("family", ["linear", "williams"])
@pytest.mark.parametrize("q,n,sets", INVARIANCE_CELLS)
def test_orbit_members_share_pattern_mirror_flag_and_type(q, n, sets, family):
    # the invariance that _family_ties' ranking by representatives rests on
    C = optimal._q2_coefficients(q, n)
    rng = np.random.default_rng(100 * q + n)
    for i in rng.choice(len(C), sets, replace=False):
        members = np.unique(_reduced_images(C[i : i + 1], q)[0], axis=0)
        assert len(members) > 1
        b = optimal._closed_form_shifts(members, q, family)
        P = optimal._member_patterns(members, b, q, family, None)
        assert (np.abs(P - P[0]) <= DEFAULT_TOL / 100 * np.maximum(1.0, np.abs(P[0]))).all()
        stacks = optimal._member_stacks(members, b, q, family)
        mirrored = np.concatenate([mirror_symmetric_stack(rows, q) for rows in stacks])
        assert len(set(mirrored.tolist())) == 1
        assert len(set(_classify_stack(members, q).tolist())) == 1


def _surviving_orbits(q, n, family_best):
    orbit = optimal._cell_orbits(optimal._q2_coefficients(q, n), q)
    return len(np.unique(orbit[_cell_index(np.array(family_best.ties), q)]))


def test_q2_search_builds_no_full_pattern(monkeypatch):
    # 14 linear and 56 Williams ties, one orbit each: no full pattern during
    # the search, and the standard design's pair kernel only up to beta_4
    patterns, kernels, member_patterns = [], [], []
    kernel, member_pattern = optimal._pattern_by_pairs, optimal._member_patterns

    def counted(design, k_max=None):
        patterns.append(k_max)
        return beta_pattern(design, k_max)

    def counted_kernel(design, k_max=None):
        kernels.append(k_max)
        return kernel(design, k_max)

    def counted_members(C, b, q, family, k_max):
        member_patterns.append(family)
        return member_pattern(C, b, q, family, k_max)

    monkeypatch.setattr(optimal, "beta_pattern", counted)
    monkeypatch.setattr(optimal, "_pattern_by_pairs", counted_kernel)
    monkeypatch.setattr(optimal, "_member_patterns", counted_members)
    rep = search_q2(7, 8)
    orbits = [_surviving_orbits(7, 8, f) for f in (rep.linear, rep.williams)]
    assert (len(rep.linear.ties), len(rep.williams.ties), orbits) == (14, 56, [1, 1])
    assert patterns == [] and kernels == [4] and member_patterns == []

    # q=7 n=3: two linear orbits and one Williams orbit tie on beta_4, so
    # the linear search ranks two orbits, one beta_k_stack column per degree
    C = optimal._q2_coefficients(7, 3)
    orbit = optimal._cell_orbits(C, 7)
    tied = {}
    for family in ("linear", "williams"):
        stacks = optimal._member_stacks(C, optimal._closed_form_shifts(C, 7, family), 7, family)
        beta4 = np.concatenate([beta_k_stack(rows, (4,), 7) for rows in stacks])
        tied[family] = np.unique(orbit[_keep_minimal(beta4[:, 0])])
    assert [len(tied[f]) for f in ("linear", "williams")] == [2, 1]
    calls = []

    def spied(rows, ks, q):
        calls.append((len(rows), tuple(ks)))
        return beta_k_stack(rows, ks, q)

    monkeypatch.setattr(optimal, "beta_k_stack", spied)
    kernels.clear()
    rep = search_q2(7, 3)
    assert patterns == [] and kernels == [4] and member_patterns == []
    # beta_1..beta_6 of the two orbits, then the two winners' beta_3 and beta_4
    assert calls == [(2, (k,)) for k in range(1, 7)] + [(2, (3, 4))]
    assert _surviving_orbits(7, 3, rep.linear) == 1 and rep.linear.decided_k == 6
    # ranked on their full patterns, the two orbits keep the same one at beta_6
    reps = C[tied["linear"]]
    full = member_pattern(reps, optimal._closed_form_shifts(reps, 7, "linear"), 7, "linear", None)
    kept, decided = _rank_candidates(2, full.T)
    ties = _cell_index(np.array(rep.linear.ties), 7)
    assert decided == 6 and np.unique(orbit[ties]).tolist() == tied["linear"][kept].tolist()


@pytest.mark.parametrize("n", range(3, 9))
def test_search_q2_reads_beta_k_stack_for_its_winners_alone(monkeypatch, n):
    # the cut is on integer keys: one beta_k_stack call takes both winners,
    # each at its closed-form shift, for the printed beta_3 and beta_4; each
    # row has the bits of beta_k on its own member
    calls = []

    def spied(rows, ks, q):
        calls.append((rows.copy(), tuple(ks)))
        return beta_k_stack(rows, ks, q)

    monkeypatch.setattr(optimal, "beta_k_stack", spied)
    rep = search_q2(7, n)
    members = [
        build_design(GeneratorSet(7, f.generators), f.b, f.family)
        for f in (rep.linear, rep.williams)
    ]
    # only n=3 ranks tied orbits: two linear ones, on beta_1..beta_6, a degree a call
    *ranking, (rows, ks) = calls
    assert [(len(r), k) for r, k in ranking] == ([(2, (k,)) for k in range(1, 7)] if n == 3 else [])
    assert ks == (3, 4)
    assert np.array_equal(rows, np.stack([d.rows for d in members]))
    for f, d in zip((rep.linear, rep.williams), members):
        assert repr([f.beta3, f.beta4]) == repr([beta_k(d, 3), beta_k(d, 4)])


@pytest.mark.parametrize("q,n", [(5, n) for n in range(3, 7)] + [(7, n) for n in range(3, 9)])
def test_standard_betas_are_the_full_pattern_bits(q, n):
    # the q2-25run and q2-49run cells: the kernel cut at degree 4 prints the
    # same digits as the full pattern
    rep = search_q2(q, n)
    full = beta_pattern(expand(standard_generators(q, n))).values
    assert repr([rep.standard_beta3, rep.standard_beta4]) == repr(list(full[2:4]))


def test_standard_betas_keep_the_pair_bits_above_512_runs():
    # beta_pattern(d, 4) enumerates above 512 runs, and at q=23 its bits differ
    # from the pair kernel's; the standard design keeps the full pattern's
    rep = search_q2(23, 3)
    d = expand(standard_generators(23, 3))
    full = beta_pattern(d).values
    assert repr([rep.standard_beta3, rep.standard_beta4]) == repr(list(full[2:4]))
    assert [rep.standard_beta3, rep.standard_beta4] != list(beta_pattern(d, 4).values[2:4])


def test_group_elements_built_once_per_column_count():
    a, b, s, others = optimal._group_elements(5)
    assert optimal._group_elements(5)[0] is a
    assert len(a) == 2 * 5 * 4 and others.shape == (40, 3)
    assert (a[0], b[0], s[0]) == (0, 1, 1)
    for arr in (a, b, s, others):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("q,n", [(5, n) for n in range(3, 7)] + [(7, n) for n in range(3, 9)])
def test_tol_zero_ties_whole_orbits(q, n):
    # the tie band is one fixed value, and the ties it keeps are whole orbits
    orbit = optimal._cell_orbits(optimal._q2_coefficients(q, n), q)
    rep = search_q2(q, n)
    for f in (rep.linear, rep.williams):
        tied = orbit[_cell_index(np.array(f.ties), q)]
        assert len(tied) == np.isin(orbit, tied).sum(), f.family
