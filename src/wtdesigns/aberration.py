"""Aliasing measures: the beta wordlength pattern and its sequential ordering.

For a design with rows x_i and the orthonormal contrast basis p_u,

    beta_k = N^-2 * sum over exponent vectors u with |u|_1 = k of
             | sum_i prod_j p_{u_j}(x_ij) |^2,

with each u_j capped at q-1. The pattern (beta_1, ..., beta_K), K = n(q-1),
quantifies how much degree-k polynomial structure is aliased with the mean;
designs are ranked by sequentially minimizing beta_3, beta_4, ...
(strength-2 arrays already have beta_1 = beta_2 = 0).

Bit identity: JSON output prints floats with repr, so every digit of a
measure is part of the output. The kernels here keep the order of the
floating-point operations fixed: products run over the columns in ascending
order, sums reduce contiguous rows, and the pair identity sums its rows in
full N^2 order. A faster kernel must reproduce the same operations in the
same order, not only the same value to rounding.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .designs import Design
from .errors import InputError
from .orthopoly import OrthonormalBasis, orthonormal_basis

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class BetaPattern:
    q: int
    n: int
    values: tuple

    @property
    def full_length(self) -> int:
        return self.n * (self.q - 1)


@lru_cache(maxsize=None)
def compositions(k: int, n: int, cap: int) -> np.ndarray:
    """All vectors u in {0..cap}^n with sum k, as an array, fixed order."""
    out = []
    cur = [0] * n

    def rec(pos, remaining):
        if pos == n - 1:
            if remaining <= cap:
                cur[pos] = remaining
                out.append(tuple(cur))
            return
        for v in range(min(cap, remaining) + 1):
            cur[pos] = v
            rec(pos + 1, remaining - v)

    rec(0, k)
    arr = np.array(out, dtype=np.int64).reshape(len(out), n)
    arr.setflags(write=False)
    return arr


def _check_k(design: Design, k: int):
    K = design.n_factors * (design.q - 1)
    if not 1 <= k <= K:
        raise InputError(f"k={k} out of range 1..{K}")


_CHUNK_BYTES = 2**19  # about 0.5 MB per float array of a stacked kernel


def designs_per_chunk(N: int, n: int, q: int, ks=()) -> int:
    """Designs per stack chunk that keep each array of beta_k_stack near _CHUNK_BYTES.

    The widest array per design is the (C, N) product of the largest
    exponent shell in ks, or the (n*q + 1, N) value table; an integer level
    stack of the same designs is smaller still. With no degrees, the chunk
    holds only the (N, n) integer level stacks.
    """
    if not ks:
        return max(1, _CHUNK_BYTES // (8 * n * N))
    widest = max([n * q + 1] + [len(compositions(k, n, q - 1)) for k in ks])
    return max(1, _CHUNK_BYTES // (8 * widest * N))


@lru_cache(maxsize=None)
def _support_index(k: int, n: int, q: int) -> np.ndarray:
    """Value-table rows to multiply for each exponent vector of degree k.

    Row j*q + u of the table holds p_u on column j and row n*q holds 1.0.
    Each exponent vector lists its nonzero columns in ascending order,
    padded with the 1.0 row to width min(k, n). Since p_0 is exactly 1.0,
    skipping the zero exponents changes no bits of the product.
    """
    comps = compositions(k, n, q - 1)
    width = min(k, n)
    nonzero = comps != 0
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
    exps = np.take_along_axis(comps, cols, axis=1)
    idx = np.where(np.take_along_axis(nonzero, cols, axis=1), cols * q + exps, n * q)
    idx.setflags(write=False)
    return idx


def beta_k_stack(rows, ks, basis: OrthonormalBasis) -> np.ndarray:
    """beta_k of every design in a (B, N, n) stack of level arrays.

    All designs share basis.q. Returns shape (B, len(ks)), column t holding
    beta_{ks[t]}. The result is bit-identical to the plain enumeration: per
    exponent vector, the product over columns of p_{u_j}(x_ij) (zero
    exponents contribute exact 1.0 factors and are skipped), summed over the
    runs, squared and summed. The stack is processed in chunks of
    designs_per_chunk designs.
    """
    rows = np.asarray(rows)
    B, N, n = rows.shape
    q = basis.q
    idxs = [_support_index(k, n, q) for k in ks]
    step = designs_per_chunk(N, n, q, ks)
    out = np.empty((B, len(idxs)))
    for lo in range(0, B, step):
        chunk = rows[lo : lo + step]
        # W[b, j*q + u, i] = p_u(x_ij); the last row is 1.0
        W = np.empty((len(chunk), n * q + 1, N))
        W[:, : n * q] = basis.values[:, chunk].transpose(1, 3, 0, 2).reshape(-1, n * q, N)
        W[:, n * q] = 1.0
        for t, idx in enumerate(idxs):
            # np.take keeps the (b, C, N) product contiguous, so each row sum
            # reduces N values in the same order as a single design's would
            prod = np.take(W, idx[:, 0], axis=1)
            for col in idx.T[1:]:
                prod *= np.take(W, col, axis=1)
            sums = prod.sum(axis=2)
            out[lo : lo + step, t] = (sums * sums).sum(axis=1) / N**2
    return np.maximum(out, 0.0)


def beta_k(design: Design, k: int, basis: OrthonormalBasis = None) -> float:
    """Single aliasing measure beta_k, by direct enumeration of exponents."""
    _check_k(design, k)
    if basis is None:
        basis = orthonormal_basis(design.q)
    elif basis.q != design.q:
        raise InputError("basis level count does not match the design")
    return float(beta_k_stack(design.rows[None], (k,), basis)[0, 0])


def _pattern_by_pairs(design: Design, basis: OrthonormalBasis) -> np.ndarray:
    """Full pattern (beta_0, ..., beta_K) at once.

    Uses the identity sum_u t^|u| |sum_i prod_j p_{u_j}(x_ij)|^2
    = sum over row pairs (i, i') of prod_j G_t(x_ij, x_i'j) where
    G_t(x, y) = sum_u t^u p_u(x) p_u(y): per column, convolve the
    degree-indexed kernel coefficients. Cost O(N^2 K q), independent of the
    number of exponent vectors, and exactly equal to the direct sum.

    G[x, y] and G[y, x] are bitwise equal, so the pairs (i, i') and (i', i)
    carry bitwise equal coefficients: only the N(N+1)/2 unordered pairs are
    convolved, then gathered back into full N^2 row order for the sum.
    """
    q = design.q
    B = basis.values
    N, n = design.rows.shape
    G = np.einsum("ua,ub->uab", B, B)  # (q, q, q): degree-indexed kernel
    first, second = np.triu_indices(N)
    rows = design.rows
    # coefficients are (degree, pair), so each convolution step adds
    # contiguous blocks; the first column's step against the constant 1 is
    # 0.0 + A
    coeffs = G[:, rows[first, 0], rows[second, 0]] + 0.0
    for j in range(1, n):
        A = G[:, rows[first, j], rows[second, j]]
        L = coeffs.shape[0]
        nxt = np.zeros((L + q - 1, len(first)))
        for d in range(q):
            nxt[d : d + L] += A[d] * coeffs
        coeffs = nxt
    pair = np.empty((N, N), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(len(first))
    # (N^2, K+1) in row-pair order, C-contiguous: the sum adds the rows in turn
    return np.ascontiguousarray(coeffs.T[pair.ravel()]).sum(axis=0) / N**2


def beta_pattern(design: Design, k_max: int = None, basis: OrthonormalBasis = None) -> BetaPattern:
    """The pattern (beta_1, ..., beta_k_max); full length n(q-1) by default."""
    K = design.n_factors * (design.q - 1)
    if k_max is None:
        k_max = K
    _check_k(design, k_max)
    if basis is None:
        basis = orthonormal_basis(design.q)
    if k_max <= 4 and design.runs > 512:
        # cheaper to enumerate a few exponent shells than to convolve pairs
        vals = [beta_k(design, k, basis) for k in range(1, k_max + 1)]
    else:
        vals = _pattern_by_pairs(design, basis)[1 : k_max + 1]
    vals = np.maximum(np.asarray(vals, dtype=float), 0.0)
    return BetaPattern(q=design.q, n=design.n_factors, values=tuple(vals.tolist()))


def compare_patterns(a, b, tol: float = DEFAULT_TOL) -> int:
    """Sequential comparison: -1, 0 or 1.

    The first index where the entries differ by more than
    tol * max(1, a_k, b_k) decides; patterns with no such index are equal.
    """
    va = a.values if isinstance(a, BetaPattern) else tuple(a)
    vb = b.values if isinstance(b, BetaPattern) else tuple(b)
    if len(va) != len(vb):
        raise InputError("patterns must have equal length to compare")
    for x, y in zip(va, vb):
        if abs(x - y) > tol * max(1.0, x, y):
            return -1 if x < y else 1
    return 0


def beta_sum_check(design: Design, basis: OrthonormalBasis = None) -> float:
    """Numerically computed sum of the full pattern, sum_k beta_k.

    For a design whose N rows are distinct this must equal q^n / N - 1,
    a consequence of the completeness of the contrast basis. Returned as a
    value so callers can assert it against the closed form.
    """
    if basis is None:
        basis = orthonormal_basis(design.q)
    full = _pattern_by_pairs(design, basis)
    return float(full[1:].sum())
