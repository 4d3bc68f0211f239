"""Randomized invariance properties of the core operations.

The exhaustive structural sweeps live in the acceptance suite; these tests
probe the same invariants on randomized inputs so a violation pinpoints the
operation that broke it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtdesigns import (
    Design,
    GeneratorSet,
    add_constant,
    beta_k,
    beta_pattern,
    build_design,
    compare_patterns,
    is_mirror_symmetric,
    rank_mod,
    same_design,
    strength,
    williams_inverse,
    williams_value,
)
from wtdesigns.aberration import DEFAULT_TOL, _rank_candidates

SMALL_PRIMES = (3, 5, 7)
MORE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97)


@st.composite
def designs(draw, primes=SMALL_PRIMES, max_runs=14, max_cols=4):
    q = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_cols))
    runs = draw(st.integers(1, max_runs))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=runs,
            max_size=runs,
        )
    )
    return Design(q, rows)


@st.composite
def q2_generator_sets(draw, primes=(5, 7)):
    q = draw(st.sampled_from(primes))
    n = draw(st.integers(3, q + 1))
    m = n - 2
    slopes = sorted(draw(st.sets(st.integers(1, q - 1), min_size=m, max_size=m)))
    scales = draw(st.lists(st.integers(1, (q - 1) // 2), min_size=m, max_size=m))
    return GeneratorSet(q, [[c, (c * s) % q] for c, s in zip(scales, slopes)])


@settings(max_examples=40, deadline=None)
@given(designs(), st.randoms(use_true_random=False))
def test_pattern_ignores_row_order(design, rnd):
    order = list(range(design.runs))
    rnd.shuffle(order)
    shuffled = Design(design.q, design.rows[order])
    assert same_design(design, shuffled)
    a = beta_pattern(design).values
    b = beta_pattern(shuffled).values
    assert np.allclose(a, b, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(designs(), st.randoms(use_true_random=False))
def test_pattern_ignores_column_order(design, rnd):
    perm = list(range(design.n_factors))
    rnd.shuffle(perm)
    permuted = Design(design.q, design.rows[:, perm])
    a = beta_pattern(design).values
    b = beta_pattern(permuted).values
    assert np.allclose(a, b, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(q2_generator_sets(), st.data())
def test_families_preserve_strength(gen, data):
    b = data.draw(
        st.lists(st.integers(0, gen.q - 1), min_size=gen.m, max_size=gen.m)
    )
    for family in ("linear", "williams"):
        d = build_design(gen, b, family)
        assert strength(d, t_max=2) == 2
        assert beta_k(d, 1) <= 1e-10
        assert beta_k(d, 2) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(designs(), st.integers(0, 6))
def test_constant_shift_preserves_strength(design, s):
    assert strength(add_constant(design, s % design.q)) == strength(design)


@settings(max_examples=30, deadline=None)
@given(designs(max_cols=3, max_runs=10))
def test_stacking_with_the_reflection_is_mirror_symmetric(design):
    reflected = (design.q - 1) - design.rows
    stacked = Design(design.q, np.vstack([design.rows, reflected]))
    assert is_mirror_symmetric(stacked)
    odd = beta_pattern(stacked).values[0::2]
    assert max(odd) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(0, 100), min_size=k, max_size=k),
            st.lists(st.floats(0, 100), min_size=k, max_size=k),
        )
    )
)
def test_compare_is_antisymmetric(pair):
    a, b = pair
    assert compare_patterns(a, b) == -compare_patterns(b, a)
    assert compare_patterns(a, a) == 0
    # the searches' ranking rule on the two rows: both kept is a tie,
    # otherwise the kept row is the smaller pattern
    alive, _ = _rank_candidates(2, np.array([a, b]).T)
    assert compare_patterns(a, b) == {(0, 1): 0, (0,): -1, (1,): 1}[tuple(alive.tolist())]


# values drawn from a few levels, each with a neighbour inside its tie band,
# so that most columns tie some of their live rows
TIED_VALUES = (0.0, 5e-9, 1.0, 1.0 + 5e-9, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda count: st.lists(
            st.lists(st.sampled_from(TIED_VALUES), min_size=count, max_size=count),
            min_size=1,
            max_size=5,
        )
    )
)
def test_rank_candidates_is_the_sequential_filter(rows):
    # a plain filter over the live row numbers, one column at a time
    count = len(rows[0])
    live, decided, reads = list(range(count)), None, 0
    for k, column in enumerate(rows, 1):
        reads = k
        low = min(column[i] for i in live)
        kept = [i for i in live if column[i] <= low + DEFAULT_TOL * max(1.0, low)]
        if len(kept) < len(live):
            decided = k
        live = kept
        if len(live) == 1:
            break

    pulled = []

    def columns():
        for column in rows:
            pulled.append(column)
            yield np.array(column)

    alive, got_decided = _rank_candidates(count, columns())
    assert (alive.tolist(), got_decided, len(pulled)) == (live, decided, reads)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(MORE_PRIMES), st.data())
def test_williams_bijection_random_primes(q, data):
    x = data.draw(st.integers(0, q - 1))
    y = williams_value(x, q)
    assert 0 <= y < q
    assert williams_inverse(y, q) == x
    image = {williams_value(v, q) for v in range(q)}
    assert image == set(range(q))


@st.composite
def int_matrices(draw):
    q = draw(st.sampled_from(SMALL_PRIMES))
    nrow = draw(st.integers(1, 4))
    ncol = draw(st.integers(1, 4))
    M = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=ncol, max_size=ncol),
            min_size=nrow,
            max_size=nrow,
        )
    )
    return q, np.array(M, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.data())
def test_rank_invariances(qm, data):
    q, M = qm
    r = rank_mod(M, q)
    assert 0 <= r <= min(M.shape)
    # row permutation
    perm = data.draw(st.permutations(range(M.shape[0])))
    assert rank_mod(M[list(perm)], q) == r
    # scaling one row by a nonzero constant
    i = data.draw(st.integers(0, M.shape[0] - 1))
    c = data.draw(st.integers(1, q - 1))
    scaled = M.copy()
    scaled[i] = (scaled[i] * c) % q
    assert rank_mod(scaled, q) == r
    # appending a linear combination of existing rows
    coefs = data.draw(
        st.lists(st.integers(0, q - 1), min_size=M.shape[0], max_size=M.shape[0])
    )
    extra = (np.array(coefs) @ M) % q
    assert rank_mod(np.vstack([M, extra]), q) == r
