"""Orthonormal polynomial contrasts on the discrete levels {0, ..., q-1}.

The basis p_0, ..., p_{q-1} satisfies sum_x p_i(x) p_j(x) = q when i = j and
0 otherwise, with each p_u a degree-u polynomial whose leading coefficient is
positive. A trigonometric series representation of the linear contrast is
provided as an independent numerical cross-check of the construction.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, pi, sin, sqrt

import numpy as np

from .errors import InputError
from .fieldmath import PrimeLevel, check_odd_prime

# Largest level count whose float basis matches exact rational Gram-Schmidt
# to 1e-8. Above it the monomials are too ill-conditioned: the deviation is
# 1.7e-6 at q=29 and reaches the size of the values themselves at q=41.
MAX_LEVELS = 23


@dataclass(frozen=True)
class OrthonormalBasis:
    """Table of orthonormal polynomial values on Z_q.

    values[u][x] = p_u(x). rho is the normalizer of the linear contrast,
    p_1(x) = rho * (x - (q-1)/2).
    """

    q: int
    values: np.ndarray = field(repr=False)
    rho: float

    def __post_init__(self):
        self.values.setflags(write=False)


def check_levels(q: PrimeLevel) -> PrimeLevel:
    """q, refused with InputError above MAX_LEVELS: a comparison, so it builds no basis.

    Every float measure reads the basis; a command that computes one calls
    this before any other work or output.
    """
    if q > MAX_LEVELS:
        raise InputError(
            f"q={q} exceeds {MAX_LEVELS}, the largest level count with an "
            "accurate contrast basis"
        )
    return q


@lru_cache(maxsize=None)
def orthonormal_basis(q: PrimeLevel) -> OrthonormalBasis:
    """Build the full orthonormal polynomial basis for q levels.

    Gram-Schmidt on the centered monomials 1, t, t^2, ... with t = x - (q-1)/2,
    in degree order, followed by a second orthogonalization pass for numerical
    stability. Each row is scaled to squared norm q. Centering keeps the
    intermediate vectors well conditioned up to q around 17; the span per
    degree is unchanged, so the result equals Gram-Schmidt on raw monomials.
    Level counts above MAX_LEVELS are refused with InputError.
    """
    q = check_levels(check_odd_prime(q))
    xs = np.arange(q, dtype=float)
    t = xs - (q - 1) / 2.0
    values = np.zeros((q, q))
    for u in range(q):
        v = t**u
        for _ in range(2):  # re-orthogonalize
            for w in values[:u]:
                v = v - ((v @ w) / q) * w
        nrm = sqrt((v @ v) / q)
        values[u] = v / nrm
        # dividing a monic-leading vector by a positive norm keeps the
        # leading coefficient positive, which fixes the sign convention
    rho = sqrt(12.0 / ((q + 1) * (q - 1)))
    return OrthonormalBasis(q=q, values=values, rho=rho)


def linear_poly_cosine(q: PrimeLevel, x: int) -> float:
    """Evaluate the linear contrast p_1 at level x through its cosine series.

    p_1(x) = -(rho / (2q)) * sum_{v=0}^{q-1} g(v) cos((2v+1) pi (x+0.5) / q)
    with g(v) = cos(pi (v+0.5) / q) / sin(pi (v+0.5) / q)^2.

    This shares no code with the Gram-Schmidt path, so agreement between the
    two is a genuine consistency check.
    """
    q = check_odd_prime(q)
    if not 0 <= x <= q - 1:
        raise InputError(f"level {x} out of range for q={q}")
    rho = sqrt(12.0 / ((q + 1) * (q - 1)))
    acc = 0.0
    for v in range(q):
        a = pi * (v + 0.5) / q
        g = cos(a) / sin(a) ** 2
        acc += g * cos((2 * v + 1) * pi * (x + 0.5) / q)
    return -(rho / (2.0 * q)) * acc
