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
full N^2 order, each degree on its own. So the pair identity cut off at
degree k_max gives the first k_max + 1 entries of the full pattern bit for
bit: every kept degree gets the same products, added in the same order. A
faster kernel must reproduce the same operations in the same order, not
only the same value to rounding. The pair identity runs in the blocks of
fieldmath.chunks, which changes no bits: each pair gets the same elementwise
operations in any block, and each block of the N^2 rows sums [running sum,
its rows], adding the rows in the same order as one sum. Its d = 0 step,
0.0 + 1.0 * c, is a copy of c: p_0 is exactly 1.0, and no coefficient is
ever -0.0.
"""

from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .designs import Design
from .errors import CapExceededError, InputError
from .fieldmath import check_int, chunks
from .orthopoly import orthonormal_basis

DEFAULT_TOL = 1e-8  # the one tie band of every ranking, read by _cut alone


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


def _check_k(k: int, n: int, q: int, name: str = "k") -> None:
    """Refuse a degree that is not an integer in 1..n(q-1)."""
    K = n * (q - 1)
    if not 1 <= check_int(k, name) <= K:
        raise InputError(f"{name}={k} out of range 1..{K}")


# Largest pair-kernel work N^2 * min(K, k_max) * q that _pattern_by_pairs takes
PAIR_WORK_CAP = 500_000_000


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


def beta_k_stack(rows, ks, q: int) -> np.ndarray:
    """beta_k of every design in a (B, N, n) stack of levels in {0, ..., q-1}.

    Returns shape (B, len(ks)), column t holding beta_{ks[t]}. The result
    is bit-identical to the plain enumeration: per exponent vector, the
    product over columns of p_{u_j}(x_ij) (zero exponents contribute exact
    1.0 factors and are skipped), summed over the runs, squared and summed.
    The designs run in fieldmath.chunks of the widest array of one design,
    the (C, N) product of the largest exponent shell or the (n*q + 1, N)
    value table; each row keeps the bits of its own design in any chunk.
    """
    rows = np.asarray(rows)
    B, N, n = rows.shape
    P = orthonormal_basis(q).values
    shells = [_support_index(k, n, q) for k in ks]
    out = np.empty((B, len(ks)))
    for part in chunks(B, 8 * N * max([n * q + 1] + [len(idx) for idx in shells])):
        # W[b, j*q + u, i] = p_u(x_ij); the last row is 1.0
        W = np.empty((part.stop - part.start, n * q + 1, N))
        W[:, : n * q] = P[:, rows[part]].transpose(1, 3, 0, 2).reshape(-1, n * q, N)
        W[:, n * q] = 1.0
        for t, idx in enumerate(shells):
            # np.take keeps the (b, C, N) product contiguous, so each row sum
            # reduces N values in the same order as a single design's would
            prod = np.take(W, idx[:, 0], axis=1)
            for col in idx.T[1:]:
                prod *= np.take(W, col, axis=1)
            sums = prod.sum(axis=2)
            out[part, t] = (sums * sums).sum(axis=1) / N**2
    return np.maximum(out, 0.0)


def beta_k(design: Design, k: int) -> float:
    """Single aliasing measure beta_k, by direct enumeration of exponents."""
    _check_k(k, design.n_factors, design.q)
    return float(beta_k_stack(design.rows[None], (k,), design.q)[0, 0])


@lru_cache(maxsize=None)
def _pair_tables(N: int) -> tuple:
    """The row-pair index tables of _pattern_by_pairs, int32, read-only and cached per N.

    Returns (first, second, order): unordered pair t is rows (first[t],
    second[t]), the N(N+1)/2 pairs i <= k in row-major order
    (np.triu_indices), and order[i N + k] is the unordered pair of the
    ordered pair (i, k). Together 8 N^2 + 4 N bytes.
    """
    first, second = np.triu_indices(N)
    pair = np.empty((N, N), dtype=np.int32)
    pair[first, second] = pair[second, first] = np.arange(len(first), dtype=np.int32)
    out = first.astype(np.int32), second.astype(np.int32), pair.ravel()
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _pair_kernel(q: int) -> np.ndarray:
    """G[u, x q + y] = p_u(x) p_u(y), shape (q, q^2), read-only and cached per q."""
    B = orthonormal_basis(q).values
    G = np.einsum("ua,ub->uab", B, B).reshape(q, q * q)
    G.setflags(write=False)
    return G


def _pattern_by_pairs(design: Design, k_max: int = None) -> np.ndarray:
    """The pattern (beta_0, ..., beta_k_max) at once; k_max = K = n(q-1) by default.

    Uses the identity sum_u t^|u| |sum_i prod_j p_{u_j}(x_ij)|^2
    = sum over row pairs (i, i') of prod_j G_t(x_ij, x_i'j) where
    G_t(x, y) = sum_u t^u p_u(x) p_u(y): per column, convolve the
    degree-indexed kernel coefficients, dropping every degree above k_max.
    Cost O(N^2 min(K, k_max) q), independent of the number of exponent
    vectors, and exactly equal to the direct sum. Work N^2 min(K, k_max) q
    above PAIR_WORK_CAP is refused with CapExceededError.

    G[x, y] and G[y, x] are bitwise equal, so the pairs (i, i') and (i', i)
    carry bitwise equal coefficients: only the N(N+1)/2 unordered pairs are
    convolved, in fieldmath.chunks blocks of (degree, pair) coefficients.
    Each pair gets the same elementwise operations in any block, so a block
    boundary changes no bits. The d = 0 step of a convolution adds 1.0 * c
    to 0.0, since p_0 is exactly 1.0: that is c bit for bit, as no
    coefficient is ever -0.0 (the first column gets + 0.0 and each later
    sum starts from +0.0), so the step is a copy. The N^2 ordered pairs are
    then gathered in row-pair order and summed block by block, the running
    sum added to each block's first row before the block is summed: the
    rows are added in the same order as one sum over all N^2. The result is
    the first k_max + 1 entries of the full one, bit for bit.

    The tables that depend on the shape alone are built once and kept
    read-only: G per q (_pair_kernel, q^3 floats), and the pair indices per
    N (_pair_tables, int32). The pair indices take 8 N^2 + 4 N bytes, at
    most 8 N (N+1), the half-pair store of the smallest call at that N, so
    the cache never keeps more than one call at that run count allocates.
    """
    q = design.q
    rows = design.rows
    N, n = rows.shape
    degrees = n * (q - 1) + 1 if k_max is None else k_max + 1
    if (work := N * N * (degrees - 1) * q) > PAIR_WORK_CAP:
        raise CapExceededError(
            f"pair-kernel work N^2*k*q = {work} exceeds the cap of {PAIR_WORK_CAP}"
        )
    G = _pair_kernel(q)[:degrees]  # G[u, x*q + y]
    first, second, order = _pair_tables(N)
    half = np.empty((len(first), degrees))  # one row of coefficients per unordered pair
    blocks = chunks(len(half), 8 * degrees)
    flat = np.empty((3, degrees * blocks[0].stop))
    for block in blocks:
        width = block.stop - block.start
        levels = rows[first[block]].T * q + rows[second[block]].T  # (n, block): x*q + y
        # coefficients are (degree, pair), so each convolution step adds
        # contiguous blocks; the first column's step against the constant 1
        # is 0.0 + A
        even, odd, prod = (buf[: degrees * width].reshape(degrees, width) for buf in flat)
        c = G.take(levels[0], axis=1) + 0.0
        for j, col in enumerate(levels[1:]):
            A = G.take(col, axis=1)
            x = (even, odd)[j % 2][: min(len(c) + q - 1, degrees)]
            x[: len(c)] = c  # the d = 0 step
            x[len(c) :] = 0.0
            for d in range(1, len(A)):
                top = min(len(c), len(x) - d)
                np.multiply(A[d], c[:top], out=prod[:top])
                np.add(x[d : d + top], prod[:top], out=x[d : d + top])
            c = x
        half[block] = c.T
    # (block, k_max+1) in row-pair order, C-contiguous: the sum adds the rows
    # in turn, each column on its own, and adding the running sum to a
    # block's first row is that sum's first step
    for block in chunks(N * N, 8 * degrees):
        part = half.take(order[block], axis=0)
        if block.start:
            part[0] += total
        total = part.sum(axis=0)
    return total / N**2


def beta_pattern(design: Design, k_max: int = None) -> BetaPattern:
    """The pattern (beta_1, ..., beta_k_max); full length n(q-1) by default."""
    if k_max is None:
        k_max = design.n_factors * (design.q - 1)
    _check_k(k_max, design.n_factors, design.q)
    if k_max <= 4 and design.runs > 512:
        # cheaper to enumerate a few exponent shells than to convolve pairs
        vals = beta_k_stack(design.rows[None], range(1, k_max + 1), design.q)[0]
    else:
        vals = np.maximum(_pattern_by_pairs(design, k_max)[1:], 0.0)
    return BetaPattern(q=design.q, n=design.n_factors, values=tuple(vals.tolist()))


def _cut(mn: float) -> float:
    """The largest value that ties the minimum mn: mn + DEFAULT_TOL * max(1, mn)."""
    return mn + DEFAULT_TOL * max(1.0, mn)


def _keep_minimal(values: np.ndarray) -> np.ndarray:
    return values <= _cut(float(values.min()))


def _rank_candidates(count: int, columns):
    """Cut count rows on an iterable of columns, each count long: column by column, drop the
    live rows above the _cut of their minimum. Returns (kept indices, decided_k), decided_k
    being the 1-based position of the last column that dropped a row. No column is pulled
    after a cut that leaves one row live."""
    alive = np.arange(count)
    decided = None
    for k, column in enumerate(columns, 1):
        keep = _keep_minimal(column[alive])
        if not keep.all():
            decided = k
            alive = alive[keep]
        if len(alive) == 1:
            break
    return alive, decided


def _pattern_entries(p) -> tuple:
    """The entries of a BetaPattern or of a 1-D sequence of real numbers, bools refused."""
    vals = p.values if isinstance(p, BetaPattern) else p
    try:
        vals = tuple(vals)
    except TypeError:
        vals = None
    if vals is None or not all(isinstance(v, Real) and not isinstance(v, bool) for v in vals):
        raise InputError("patterns must be 1-D sequences of real numbers to compare")
    return vals


def compare_patterns(a, b) -> int:
    """Sequential comparison: -1, 0 or 1.

    The two-row case of _rank_candidates: the first index where an entry
    exceeds _cut(min(a_k, b_k)) decides; with no such index, they tie.
    """
    va, vb = (_pattern_entries(p) for p in (a, b))
    if len(va) != len(vb):
        raise InputError("patterns must have equal length to compare")
    rows = np.array([va, vb], dtype=float)
    if not np.isfinite(rows).all():
        raise InputError("patterns must be finite to compare")
    alive, _ = _rank_candidates(2, rows.T)
    return 0 if len(alive) == 2 else (-1 if alive[0] == 0 else 1)


def beta_sum_check(design: Design) -> float:
    """Numerically computed sum of the full pattern, sum_k beta_k.

    For a design whose N rows are distinct this must equal q^n / N - 1,
    a consequence of the completeness of the contrast basis. Returned as a
    value so callers can assert it against the closed form.
    """
    return float(_pattern_by_pairs(design)[1:].sum())
