"""Aliasing measures: exponent shells, single measures, full patterns."""

import numpy as np
import pytest

from wtdesigns import (
    Design,
    GeneratorSet,
    InputError,
    beta_k,
    beta_pattern,
    beta_sum_check,
    build_design,
    compare_patterns,
    enumerate_q2_generators,
    expand,
    full_factorial,
    optimal_shift_linear,
    optimal_shift_williams,
    orthonormal_basis,
)
from wtdesigns import aberration, optimal
from wtdesigns.aberration import _pattern_by_pairs, beta_k_stack, compositions
from wtdesigns.designs import expand_stack
from wtdesigns.optimal import closed_form_sweep


def enumeration_beta_k(design, k, basis):
    """Oracle: the product over every column of p_{u_j}(x_ij), exponent by exponent."""
    N, n = design.rows.shape
    V = basis.values[:, design.rows]  # (q, N, n): V[u, i, j] = p_u(x_ij)
    comps = compositions(k, n, design.q - 1)
    prod = np.ones((len(comps), N))
    for j in range(n):
        prod *= V[comps[:, j], :, j]
    sums = prod.sum(axis=1)
    return max(float((sums * sums).sum()) / N**2, 0.0)


def full_pairs_pattern(design, basis):
    """Oracle: the pair identity over all N^2 ordered row pairs."""
    q = design.q
    B = basis.values
    N, n = design.rows.shape
    G = np.einsum("ua,ub->abu", B, B)
    coeffs = np.ones((N * N, 1))
    for j in range(n):
        col = design.rows[:, j]
        A = G[col[:, None], col[None, :]].reshape(N * N, q)
        L = coeffs.shape[1]
        nxt = np.zeros((N * N, L + q - 1))
        for d in range(q):
            nxt[:, d : d + L] += A[:, d : d + 1] * coeffs
        coeffs = nxt
    return coeffs.sum(axis=0) / N**2


STACK_CELLS = [(5, 3), (5, 4), (5, 5), (5, 6), (7, 4)]


# --- exponent shells ---------------------------------------------------------

def test_compositions_counts():
    # weak compositions of k into n parts, no cap binding: C(k+n-1, n-1)
    assert len(compositions(3, 3, 4)) == 10
    assert len(compositions(2, 4, 4)) == 10
    assert len(compositions(0, 3, 4)) == 1


def test_compositions_cap_binds():
    assert compositions(3, 2, 1).shape == (0, 2)  # max reachable sum is 2
    assert compositions(3, 3, 1).tolist() == [[1, 1, 1]]


def test_compositions_all_sum_to_k():
    arr = compositions(5, 4, 4)
    assert (arr.sum(axis=1) == 5).all()
    assert arr.max() <= 4
    assert len(np.unique(arr, axis=0)) == len(arr)


def test_compositions_cached_and_frozen():
    a = compositions(3, 3, 4)
    assert compositions(3, 3, 4) is a
    with pytest.raises(ValueError):
        a[0, 0] = 9


# --- single measures ----------------------------------------------------------

def test_full_factorial_has_no_aliasing():
    d = Design(3, full_factorial(3, 2))
    for k in range(1, 5):  # pattern length is n(q-1) = 4
        assert beta_k(d, k) == pytest.approx(0.0, abs=1e-12)


def test_strength_two_zeroes_first_two_measures():
    d = expand(GeneratorSet(7, [[2, 2]]))
    assert beta_k(d, 1) <= 1e-12
    assert beta_k(d, 2) <= 1e-12


def test_frozen_25_run_values(basis5):
    gen = GeneratorSet(5, [[1, 1]])
    d0 = expand(gen)
    assert beta_k(d0, 3, basis5) == pytest.approx(0.125, abs=1e-9)
    assert beta_k(d0, 4, basis5) == pytest.approx(0.525, abs=1e-9)
    e4 = build_design(gen, [4], "williams")
    assert beta_k(e4, 3, basis5) <= 1e-12
    assert beta_k(e4, 4, basis5) == pytest.approx(0.0274285714, abs=1e-9)


def test_beta_k_range_check():
    d = expand(GeneratorSet(5, [[1, 1]]))
    with pytest.raises(InputError):
        beta_k(d, 0)
    with pytest.raises(InputError):
        beta_k(d, 13)  # n(q-1) = 12


def test_beta_k_rejects_mismatched_basis():
    d = expand(GeneratorSet(5, [[1, 1]]))
    with pytest.raises(InputError):
        beta_k(d, 3, orthonormal_basis(7))


def test_basis_constant_row_is_exactly_one():
    # beta_k_stack skips zero exponents because p_0 multiplies by exactly 1.0
    for q in (3, 5, 7, 11, 13):
        assert (orthonormal_basis(q).values[0] == 1.0).all()


def _closed_form_designs(q, n, family):
    shift_of = optimal_shift_linear if family == "linear" else optimal_shift_williams
    return [build_design(g, shift_of(g), family) for g in enumerate_q2_generators(q, n)]


@pytest.mark.parametrize("q,n", STACK_CELLS)
@pytest.mark.parametrize("family", ["linear", "williams"])
def test_stacked_beta_k_is_bit_identical(q, n, family, monkeypatch):
    basis = orthonormal_basis(q)
    designs = _closed_form_designs(q, n, family)
    want = np.array([[enumeration_beta_k(d, k, basis) for k in (3, 4)] for d in designs])
    # B = 1, through beta_k
    single = np.array([[beta_k(d, k, basis) for k in (3, 4)] for d in designs])
    assert np.array_equal(single, want)
    # the whole cell as one stack, in chunks of 7 designs: B is no multiple of 7
    widest = max(n * q + 1, len(compositions(4, n, q - 1)))
    monkeypatch.setattr(aberration, "_CHUNK_BYTES", 7 * 8 * widest * q * q)
    assert aberration.designs_per_chunk(q * q, n, q, (3, 4)) == 7
    stack = np.stack([d.rows for d in designs])
    assert len(designs) % 7 != 0
    assert np.array_equal(beta_k_stack(stack, (3, 4), basis), want)
    # the integer stacks of the generator sweep, also in chunks of 7, build
    # the same designs
    _, _, betas = closed_form_sweep(q, n, family, (3, 4), basis)
    assert np.array_equal(betas, want)


@pytest.mark.parametrize("q", [11, 13])
@pytest.mark.parametrize("family", ["linear", "williams"])
def test_stacked_beta_k_sampled_large_cells(q, family):
    # every 97th reduced set of the five-column cell: verify_theorem sweeps
    # these cells on stacks only, so the per-design path is checked here
    basis = orthonormal_basis(q)
    C = np.concatenate(list(optimal._q2_coefficient_blocks(q, 5)))[::97]
    shift_of = optimal_shift_linear if family == "linear" else optimal_shift_williams
    gens = [GeneratorSet(q, c) for c in C]
    designs = [build_design(g, shift_of(g), family) for g in gens]
    want = np.array([[enumeration_beta_k(d, k, basis) for k in (3, 4)] for d in designs])
    single = np.array([[beta_k(d, k, basis) for k in (3, 4)] for d in designs])
    assert np.array_equal(single, want)
    b = optimal._closed_form_shifts(C, q, family)
    rows = optimal._family_rows(expand_stack(C, q), b, q, family)
    assert np.array_equal(beta_k_stack(rows, (3, 4), basis), want)


def test_stacked_beta_k_other_degrees_and_shifts():
    basis = orthonormal_basis(5)
    gen = GeneratorSet(5, [[1, 2], [2, 1]])
    designs = [build_design(gen, list(b), "williams") for b in np.ndindex(5, 5)]
    stack = np.stack([d.rows for d in designs])
    ks = tuple(range(1, 17))
    want = np.array([[enumeration_beta_k(d, k, basis) for k in ks] for d in designs])
    assert np.array_equal(beta_k_stack(stack, ks, basis), want)


@pytest.mark.parametrize("q,C", [
    (3, [[1, 1]]), (5, [[1, 2]]), (5, [[1, 1], [1, 2]]), (7, [[2, 2], [1, 3]]),
])
def test_half_pair_pattern_is_bit_identical(q, C):
    basis = orthonormal_basis(q)
    gen = GeneratorSet(q, C)
    for family in ("linear", "williams"):
        for b in ([0] * gen.m, [1] * gen.m, optimal_shift_williams(gen)):
            d = build_design(gen, b, family)
            assert np.array_equal(_pattern_by_pairs(d, basis), full_pairs_pattern(d, basis))


def test_half_pair_pattern_nonregular_rows():
    # repeated rows and an unbalanced column: pairs (i, i) and duplicates
    rng = np.random.default_rng(7)
    d = Design(5, rng.integers(0, 5, size=(30, 4)))
    basis = orthonormal_basis(5)
    assert np.array_equal(_pattern_by_pairs(d, basis), full_pairs_pattern(d, basis))


# --- full patterns -------------------------------------------------------------

def test_pattern_default_length():
    d = expand(GeneratorSet(5, [[1, 1]]))
    pat = beta_pattern(d)
    assert len(pat.values) == pat.full_length == 12
    assert pat.q == 5 and pat.n == 3


def test_pattern_methods_agree_small():
    # the pair-convolution path and the direct exponent sum are independent
    # derivations of the same quantity
    d = expand(GeneratorSet(5, [[1, 2]]))
    pat = beta_pattern(d)  # pairs path for 25 runs
    direct = [beta_k(d, k) for k in range(1, 13)]
    assert np.allclose(pat.values, direct, atol=1e-10)


def test_pattern_methods_agree_large():
    # 625 runs takes the direct path for small k_max; the full pattern
    # takes the pair path; the shared entries must agree
    gen = GeneratorSet(5, [[1, 1, 1, 1]])
    d = expand(gen)
    assert d.runs == 625
    head = beta_pattern(d, 4).values
    full = beta_pattern(d).values
    assert np.allclose(head, full[:4], atol=1e-9)


def test_pattern_sum_identity():
    for q, C in ((3, [[1, 1]]), (5, [[1, 1]]), (5, [[1, 1], [1, 2]])):
        d = expand(GeneratorSet(q, C))
        expect = q**d.n_factors / d.runs - 1
        assert beta_sum_check(d) == pytest.approx(expect, abs=1e-9)


# --- sequential comparison ------------------------------------------------------

def test_compare_orders_sequentially():
    assert compare_patterns((0.1, 0.9), (0.1, 0.2)) == 1
    assert compare_patterns((0.0, 5.0), (0.1, 0.0)) == -1
    assert compare_patterns((0.1, 0.2), (0.1, 0.2)) == 0


def test_compare_first_differing_index_decides():
    assert compare_patterns((0.2, 0.0, 9.0), (0.2, 0.1, 0.0)) == -1


def test_compare_uses_relative_tolerance():
    # 1000 vs 1000 + 1e-6 is within tol * max(1, a, b) for tol 1e-8? no;
    # with tol=1e-2 it is, and the later entry decides instead
    a = (1000.0, 1.0)
    b = (1000.0 + 1e-6, 2.0)
    assert compare_patterns(a, b, tol=1e-2) == -1
    assert compare_patterns(a, b, tol=1e-12) == -1  # first entry decides, a smaller


def test_compare_accepts_pattern_objects():
    d = expand(GeneratorSet(5, [[1, 1]]))
    assert compare_patterns(beta_pattern(d), beta_pattern(d)) == 0


def test_compare_rejects_length_mismatch():
    with pytest.raises(InputError):
        compare_patterns((0.1,), (0.1, 0.2))
