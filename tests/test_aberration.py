"""Aliasing measures: exponent shells, single measures, full patterns."""

import numpy as np
import pytest

from wtdesigns import (
    CapExceededError,
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
from wtdesigns.cli import parse_generator_text
from wtdesigns.orthopoly import MAX_LEVELS
from wtdesigns.aberration import _pattern_by_pairs, beta_k_stack, compositions


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


def unblocked_pair_kernel(design, k_max=None):
    """Oracle: the half-pair kernel in one piece, as before it was blocked.

    All N(N+1)/2 unordered pairs are convolved at once, each d = 0 step is
    an addition, and the rows are summed from one (N^2, k_max+1) gather in
    row-pair order: the operations the blocked kernel must reproduce bit
    for bit."""
    q = design.q
    B = orthonormal_basis(q).values
    N, n = design.rows.shape
    degrees = n * (q - 1) + 1 if k_max is None else k_max + 1
    G = np.einsum("ua,ub->uab", B, B)[:degrees]
    first, second = np.triu_indices(N)
    rows = design.rows
    coeffs = G[:, rows[first, 0], rows[second, 0]] + 0.0
    for j in range(1, n):
        A = G[:, rows[first, j], rows[second, j]]
        nxt = np.zeros((min(len(coeffs) + q - 1, degrees), len(first)))
        for d in range(len(A)):
            top = min(len(coeffs), len(nxt) - d)
            nxt[d : d + top] += A[d] * coeffs[:top]
        coeffs = nxt
    pair = np.empty((N, N), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(len(first))
    return np.ascontiguousarray(coeffs.T[pair.ravel()]).sum(axis=0) / N**2


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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


def test_frozen_25_run_values():
    gen = GeneratorSet(5, [[1, 1]])
    d0 = expand(gen)
    assert beta_k(d0, 3) == pytest.approx(0.125, abs=1e-9)
    assert beta_k(d0, 4) == pytest.approx(0.525, abs=1e-9)
    e4 = build_design(gen, [4], "williams")
    assert beta_k(e4, 3) <= 1e-12
    assert beta_k(e4, 4) == pytest.approx(0.0274285714, abs=1e-9)


def test_beta_k_range_check():
    d = expand(GeneratorSet(5, [[1, 1]]))
    with pytest.raises(InputError):
        beta_k(d, 0)
    with pytest.raises(InputError):
        beta_k(d, 13)  # n(q-1) = 12


def test_basis_constant_row_is_exactly_one():
    # beta_k_stack skips zero exponents because p_0 multiplies by exactly 1.0,
    # and the pair kernel's d = 0 step is a copy because p_0(x) p_0(y) is 1.0
    odd_primes = [q for q in range(3, MAX_LEVELS + 1, 2) if all(q % p for p in range(3, q, 2))]
    assert odd_primes == [3, 5, 7, 11, 13, 17, 19, 23]
    for q in odd_primes:
        p0 = orthonormal_basis(q).values[0]
        assert (p0 == 1.0).all() and not np.signbit(p0).any()


def _closed_form_designs(q, n, family):
    shift_of = optimal_shift_linear if family == "linear" else optimal_shift_williams
    return [build_design(g, shift_of(g), family) for g in enumerate_q2_generators(q, n)]


@pytest.mark.parametrize("q,n", STACK_CELLS)
@pytest.mark.parametrize("family", ["linear", "williams"])
def test_stacked_beta_k_is_bit_identical(q, n, family, budget):
    basis = orthonormal_basis(q)
    designs = _closed_form_designs(q, n, family)
    want = np.array([[enumeration_beta_k(d, k, basis) for k in (3, 4)] for d in designs])
    # B = 1, through beta_k
    single = np.array([[beta_k(d, k) for k in (3, 4)] for d in designs])
    assert np.array_equal(single, want)
    # chunks of 7 designs for _member_stacks below (B is no multiple of 7);
    # beta_k_stack takes the whole cell as one stack, in one pass
    widest = max(n * q + 1, len(compositions(4, n, q - 1)))
    assert aberration.stack_bytes(q * q, n, q, (3, 4)) == 8 * widest * q * q
    calls = budget(7 * 8 * widest * q * q)
    stack = np.stack([d.rows for d in designs])
    assert len(designs) % 7 != 0
    assert np.array_equal(beta_k_stack(stack, (3, 4), q), want)
    # the integer stacks of the generator sweep, in those chunks of 7, build
    # the same designs
    C = optimal._q2_coefficients(q, n)
    b = optimal._closed_form_shifts(C, q, family)
    stacks = optimal._member_stacks(C, b, q, family, (3, 4))
    assert np.array_equal(np.concatenate([beta_k_stack(rows, (3, 4), q) for rows in stacks]), want)
    assert calls == [("optimal", len(C), [7] * (len(C) // 7) + [len(C) % 7])]


@pytest.mark.parametrize("q", [11, 13])
@pytest.mark.parametrize("family", ["linear", "williams"])
def test_stacked_beta_k_sampled_large_cells(q, family):
    # every 97th reduced set of the five-column cell: verify_theorem sweeps
    # these cells on stacks only, so the per-design path is checked here
    basis = orthonormal_basis(q)
    C = optimal._q2_coefficients(q, 5)[::97]
    shift_of = optimal_shift_linear if family == "linear" else optimal_shift_williams
    gens = [GeneratorSet(q, c) for c in C]
    designs = [build_design(g, shift_of(g), family) for g in gens]
    want = np.array([[enumeration_beta_k(d, k, basis) for k in (3, 4)] for d in designs])
    single = np.array([[beta_k(d, k) for k in (3, 4)] for d in designs])
    assert np.array_equal(single, want)
    b = optimal._closed_form_shifts(C, q, family)
    rows = np.concatenate(list(optimal._member_stacks(C, b, q, family)))
    assert np.array_equal(beta_k_stack(rows, (3, 4), q), want)


def test_stacked_beta_k_other_degrees_and_shifts():
    basis = orthonormal_basis(5)
    gen = GeneratorSet(5, [[1, 2], [2, 1]])
    designs = [build_design(gen, list(b), "williams") for b in np.ndindex(5, 5)]
    stack = np.stack([d.rows for d in designs])
    ks = tuple(range(1, 17))
    want = np.array([[enumeration_beta_k(d, k, basis) for k in ks] for d in designs])
    assert np.array_equal(beta_k_stack(stack, ks, 5), want)


def assert_pair_kernel_bit_identical(d, pairs=None, budget=None):
    # the default and every cut k_max = 1..K against the oracles' prefix, signs
    # too; with pairs, in blocks of that many unordered pairs and ordered row
    # pairs at every cut
    full = full_pairs_pattern(d, orthonormal_basis(d.q))
    assert_same_bits(unblocked_pair_kernel(d), full)
    N = d.runs
    for k in [None, *range(1, len(full))]:
        degrees = len(full) if k is None else k + 1
        if pairs is not None:
            calls = budget(8 * degrees * pairs)
        assert_same_bits(_pattern_by_pairs(d, k), full[:degrees])
        if pairs is not None:  # both loops ran in blocks of that many pairs
            assert [(name, count, max(sizes)) for name, count, sizes in calls] == [
                ("aberration", N * (N + 1) // 2, pairs), ("aberration", N * N, pairs),
            ]


@pytest.mark.parametrize("q,C", [
    (3, [[1, 1]]), (5, [[1, 2]]), (5, [[1, 1], [1, 2]]), (7, [[2, 2], [1, 3]]),
])
def test_half_pair_pattern_is_bit_identical(q, C):
    gen = GeneratorSet(q, C)
    for family in ("linear", "williams"):
        for b in ([0] * gen.m, [1] * gen.m, optimal_shift_williams(gen)):
            assert_pair_kernel_bit_identical(build_design(gen, b, family))


def test_half_pair_pattern_nonregular_rows():
    # repeated rows and an unbalanced column: pairs (i, i) and duplicates
    rng = np.random.default_rng(7)
    assert_pair_kernel_bit_identical(Design(5, rng.integers(0, 5, size=(30, 4))))


# (q, C, shift, family, pairs per block). q=5: 325 unordered and 625 ordered
# pairs, 25 to a row; q=7: 1,225 and 2,401, 49 to a row. One-pair blocks;
# 7 and 48 leave a ragged last block of both kinds and split rows in the sum;
# 324 and 1,224 leave a last block of a single pair, and split a row too
BLOCK_CASES = [
    (5, [[1, 2]], [1], "williams", 1),
    (5, [[1, 2]], [1], "williams", 7),
    (5, [[1, 1], [1, 2]], [2, 0], "linear", 324),
    (7, [[2, 2], [1, 3]], [3, 5], "williams", 48),
    (7, [[2, 2], [1, 3]], [0, 1], "linear", 1224),
]


@pytest.mark.parametrize("q,C,b,family,pairs", BLOCK_CASES)
def test_blocked_pair_pattern_is_bit_identical(q, C, b, family, pairs, budget):
    d = build_design(GeneratorSet(q, C), b, family)
    assert_pair_kernel_bit_identical(d, pairs, budget)


@pytest.mark.parametrize("pairs", [1, 5])
def test_blocked_pair_pattern_repeated_rows(pairs, budget):
    # 37 rows, seven of them twice: duplicate pairs land in different blocks
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 5, size=(30, 4))
    assert_pair_kernel_bit_identical(Design(5, np.vstack([rows, rows[::4]])), pairs, budget)


@pytest.mark.parametrize("family,b", [
    ("linear", [8, 7, 4, 3, 3, 0]), ("williams", [4, 9, 2, 7, 7, 0]),
])
def test_pool_set_pattern_is_bit_identical_at_the_default_budget(family, b):
    # a shift-scan pool set at its search winner: 121 runs, K = 80, so the
    # full pattern has 10 blocks of 809 unordered pairs, the last ragged, and
    # its row sums split rows
    gen = parse_generator_text("3,3;5,10;4,5;1,6;5,2;5,7", 11)
    assert_pair_kernel_bit_identical(build_design(gen, b, family))


def test_truncated_pair_pattern_holds_only_the_kept_degrees():
    # 625 runs, 5 columns: the (N(N+1)/2, 7) half-pair coefficients are
    # 10.4 MiB, and the peak 14.1 MiB with the blocks; the unblocked
    # kernel's (N^2, 7) gather peaked at about 45 MiB
    import tracemalloc

    d = expand(GeneratorSet(5, [[1, 1, 1, 1]]))
    beta_pattern(d, 6)  # warm the caches outside the trace
    tracemalloc.start()
    try:
        pattern = beta_pattern(d, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pattern.values) == 6
    assert peak < 60 * 2**20


def test_full_pair_pattern_memory_is_the_half_pair_store():
    # 625 runs, 5 columns, all 21 degrees: the (N(N+1)/2, 21) coefficients
    # are 31.3 MiB, and the blocks and the running row sum about 2.9 MiB
    # more; the warm-up's 25 runs leave the 625-run int32 pair tables
    # (8 N^2 + 4 N bytes, 3.0 MiB) to be built and cached inside the trace
    # (37.0 MiB measured); the (N^2, 21) gather this replaced peaked at
    # 107.4 MiB
    import tracemalloc

    d = expand(GeneratorSet(5, [[1, 1, 1, 1]]))
    beta_pattern(Design(5, d.rows[:25]))  # warm the caches outside the trace
    tracemalloc.start()
    try:
        pattern = beta_pattern(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pattern.values) == 20
    assert peak < 40 * 2**20


def test_pair_work_cap_refuses_before_any_work(monkeypatch):
    # the work is N^2 * min(K, k_max) * q: 25^2 * 12 * 5 for the full pattern
    d = expand(GeneratorSet(5, [[1, 2]]))
    full = _pattern_by_pairs(d)
    monkeypatch.setattr(aberration, "PAIR_WORK_CAP", 25**2 * 12 * 5)
    assert_same_bits(_pattern_by_pairs(d), full)
    assert_same_bits(_pattern_by_pairs(d, 6), full[:7])
    assert_same_bits(_pattern_by_pairs(d, 11), full[:12])
    monkeypatch.setattr(aberration, "PAIR_WORK_CAP", 25**2 * 12 * 5 - 1)

    def no_work(q):
        raise AssertionError("pair work started above the cap")

    for name in ("orthonormal_basis", "_pair_kernel", "_pair_tables"):  # cached or not
        monkeypatch.setattr(aberration, name, no_work)
    with pytest.raises(CapExceededError, match="37500 exceeds the cap of 37499"):
        beta_pattern(d)
    with pytest.raises(CapExceededError):
        beta_sum_check(d)


def test_pair_work_cap_admits_the_largest_tested_pattern():
    # the 529-run q=23 standard design's full pattern (K = 66) is the largest
    # pair call of the tests; the 2,401-run q=7 five-column one is refused
    assert 529**2 * 66 * 23 <= aberration.PAIR_WORK_CAP
    d = expand(GeneratorSet(7, [[1, 1, 1, 1]]))
    with pytest.raises(CapExceededError, match="1210608210 exceeds"):
        beta_pattern(d)
    assert len(beta_pattern(d, 4).values) == 4  # enumerated above 512 runs


def pair_index_oracle(N):
    """Oracle: the pair indices by arithmetic on the row starts, as each call once built them.

    (first, second) of each unordered pair by searchsorted over the row
    starts, and the unordered pair of each ordered pair by divmod, minimum
    and maximum."""
    r = np.arange(N)
    starts = r * N - r * (r - 1) // 2  # the index of the unordered pair (i, i)
    t = np.arange(N * (N + 1) // 2)
    first = np.searchsorted(starts, t, side="right") - 1
    i, k = np.divmod(np.arange(N * N), N)
    a, b = np.minimum(i, k), np.maximum(i, k)
    return first, t - starts[first] + first, starts[a] + b - a


@pytest.mark.parametrize("N", [2, 9, 25, 37, 49, 121, 625])
def test_pair_tables_equal_the_index_arithmetic(N):
    tables = aberration._pair_tables(N)
    assert aberration._pair_tables(N) is tables
    for got, want in zip(tables, pair_index_oracle(N), strict=True):
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


@pytest.mark.parametrize("N", [2, 25, 625])
def test_pair_tables_are_read_only_within_the_half_pair_store(N):
    # the cache keeps at most the 8 N (N+1) bytes of the (N(N+1)/2, 2)
    # half-pair store, the smallest call at that run count
    tables = aberration._pair_tables(N)
    assert sum(t.nbytes for t in tables) == 8 * N * N + 4 * N <= 8 * N * (N + 1)
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("q", [3, 5, 7, 11, 23])
def test_pair_kernel_is_the_basis_product_read_only(q):
    B = orthonormal_basis(q).values
    G = aberration._pair_kernel(q)
    assert aberration._pair_kernel(q) is G
    assert_same_bits(G, np.einsum("ua,ub->uab", B, B).reshape(q, q * q))
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 0.0


def test_cached_pair_tables_give_the_bits_of_a_fresh_build():
    # two 49-run designs back to back: the second reads the first's tables,
    # and each gives the bits of a run on freshly built ones
    gen = GeneratorSet(7, [[2, 2], [1, 3]])
    designs = [build_design(gen, [3, 5], "williams"), build_design(gen, [0, 1], "linear")]
    aberration._pair_tables.cache_clear()
    got = [_pattern_by_pairs(d) for d in designs]
    assert aberration._pair_tables.cache_info()[:2] == (1, 1)  # (hits, misses)
    for d, pattern in zip(designs, got):
        aberration._pair_tables.cache_clear()
        aberration._pair_kernel.cache_clear()
        assert_same_bits(_pattern_by_pairs(d), pattern)
        assert_same_bits(_pattern_by_pairs(d, 6), pattern[:7])


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
    # an entry ties the smaller one up to min + 1e-8 * max(1, min): at 1000
    # the band is 1e-5, so 1000 + 1e-6 ties 1000 and the later entry decides
    assert compare_patterns((1000.0, 1.0), (1000.0 + 1e-6, 2.0)) == -1
    assert compare_patterns((1000.0, 2.0), (1000.0 + 1e-6, 1.0)) == 1
    # 1000 + 2e-5 is above the band, so the first entry decides
    assert compare_patterns((1000.0 + 2e-5, 1.0), (1000.0, 2.0)) == 1
    assert compare_patterns((1000.0, 2.0), (1000.0 + 2e-5, 1.0)) == -1
    # below 1 the band is absolute: 0.5 + 5e-9 ties 0.5, 0.5 + 2e-8 does not
    assert compare_patterns((0.5, 2.0), (0.5 + 5e-9, 1.0)) == 1
    assert compare_patterns((0.5, 2.0), (0.5 + 2e-8, 1.0)) == -1


def test_compare_accepts_pattern_objects():
    d = expand(GeneratorSet(5, [[1, 1]]))
    assert compare_patterns(beta_pattern(d), beta_pattern(d)) == 0


def test_compare_rejects_length_mismatch():
    with pytest.raises(InputError):
        compare_patterns((0.1,), (0.1, 0.2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_compare_rejects_entries_that_are_not_finite(bad):
    for a, b in (((bad, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, bad))):
        with pytest.raises(InputError, match="finite"):
            compare_patterns(a, b)


def test_degrees_that_are_not_integers_are_input_errors():
    d = expand(GeneratorSet(5, [[1, 1]]))
    for call in (
        lambda: beta_k(d, 3.0),
        lambda: beta_k(d, True),
        lambda: beta_pattern(d, 2.5),
    ):
        with pytest.raises(InputError, match="must be an integer"):
            call()
    assert beta_k(d, np.int64(3)) == beta_k(d, 3)
