"""Orthonormal contrast basis construction and its independent cross-checks."""

from fractions import Fraction
from math import factorial, sqrt

import numpy as np
import pytest

from wtdesigns import InputError, linear_poly_cosine, orthonormal_basis
from wtdesigns.orthopoly import MAX_LEVELS

# Classical integer contrast vectors, scaled here to squared norm q. These
# were derived by hand from the raw contrasts (q=3: linear (-1,0,1),
# quadratic (1,-2,1); q=5 quartic (1,-4,6,-4,1)), not read off any code path.
Q3_P1 = np.array([-1, 0, 1]) * sqrt(3 / 2)
Q3_P2 = np.array([1, -2, 1]) * sqrt(3 / 6)
Q5_P1 = np.array([-2, -1, 0, 1, 2]) * sqrt(5 / 10)
Q5_P2 = np.array([2, -1, -2, -1, 2]) * sqrt(5 / 14)
Q5_P4 = np.array([1, -4, 6, -4, 1]) * sqrt(5 / 70)


def test_frozen_small_bases():
    b3 = orthonormal_basis(3)
    assert np.allclose(b3.values[1], Q3_P1, atol=1e-12)
    assert np.allclose(b3.values[2], Q3_P2, atol=1e-12)
    b5 = orthonormal_basis(5)
    assert np.allclose(b5.values[1], Q5_P1, atol=1e-12)
    assert np.allclose(b5.values[2], Q5_P2, atol=1e-12)
    assert np.allclose(b5.values[4], Q5_P4, atol=1e-12)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17])
def test_orthonormality(q):
    V = orthonormal_basis(q).values
    gram = V @ V.T / q
    assert np.abs(gram - np.eye(q)).max() < 1e-9


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17])
def test_completeness(q):
    # q orthogonal rows of length q span everything: V^T V = q I as well
    V = orthonormal_basis(q).values
    assert np.abs(V.T @ V / q - np.eye(q)).max() < 1e-9


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_degree_and_leading_sign(q):
    V = orthonormal_basis(q).values
    assert np.allclose(V[0], 1.0)
    for u in range(1, q):
        # u-th forward difference of a degree-u polynomial on integer points
        # is the constant u! * (leading coefficient)
        diff = np.diff(V[u], n=u)
        assert np.allclose(diff, diff[0], atol=1e-8)
        assert diff[0] > 0
        if u + 1 < q:
            assert np.abs(np.diff(V[u], n=u + 1)).max() < 1e-7 * factorial(u)


def test_linear_row_is_scaled_centered_identity():
    for q in (3, 5, 7, 11):
        basis = orthonormal_basis(q)
        xs = np.arange(q)
        assert np.allclose(basis.values[1], basis.rho * (xs - (q - 1) / 2))
        assert basis.rho == pytest.approx(sqrt(12 / (q * q - 1)))


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17])
def test_cosine_series_matches_linear_contrast(q):
    V = orthonormal_basis(q).values
    for x in range(q):
        assert linear_poly_cosine(q, x) == pytest.approx(V[1][x], abs=1e-9)


def test_cosine_series_range_check():
    with pytest.raises(InputError):
        linear_poly_cosine(5, 5)
    with pytest.raises(InputError):
        linear_poly_cosine(5, -1)


def test_basis_is_cached_and_frozen():
    a = orthonormal_basis(7)
    assert orthonormal_basis(7) is a
    with pytest.raises(ValueError):
        a.values[0, 0] = 99.0


def test_basis_rejects_bad_level_count():
    with pytest.raises(InputError):
        orthonormal_basis(6)


def exact_basis(q):
    """Oracle: Gram-Schmidt on the centered monomials in exact rationals.

    Only the final scaling to squared norm q, a square root, is in floats.
    """
    ts = [x - (q - 1) // 2 for x in range(q)]
    rows = []
    for u in range(q):
        v = [Fraction(t) ** u for t in ts]
        for w, ww in rows:
            c = sum(a * b for a, b in zip(v, w)) / ww
            v = [a - c * b for a, b in zip(v, w)]
        rows.append((v, sum(a * a for a in v)))
    return np.array([[float(a) * sqrt(q / ww) for a in v] for v, ww in rows])


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_basis_matches_exact_gram_schmidt(q):
    assert MAX_LEVELS == 23
    deviation = np.abs(orthonormal_basis(q).values - exact_basis(q)).max()
    assert deviation <= 1e-8


@pytest.mark.parametrize("q", [29, 41])
def test_basis_refuses_levels_beyond_the_accurate_range(q):
    # the float construction deviates from exact_basis by 1.7e-6 at q=29
    # and by more than the values themselves at q=41
    with pytest.raises(InputError, match="largest level count"):
        orthonormal_basis(q)
