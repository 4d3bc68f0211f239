"""Optimal level-permutation searches.

Closed-form shift vectors for both design families, exhaustive best-shift
search over all q^m shift vectors, and every sweep of the reduced q^2-run
generator space: the search, the recursive-type tallies, the theorem checks.

Families:
    linear   : the design with dependent columns shifted by b
    williams : the Williams transformation of that shifted design
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, prod
from typing import Optional

import numpy as np

from .aberration import (
    _check_k,
    _cut,
    _pattern_by_pairs,
    _rank_candidates,
    beta_k_stack,
    beta_pattern,
    compositions,
    stack_bytes,
)
from .designs import (
    Design,
    GeneratorSet,
    column_vectors,
    expand,
    expand_stack,
    linear_permute,
    shift_stack,
    williams,
    williams_inverse,
    williams_levels,
)
from .errors import CapExceededError, InputError
from .fieldmath import (
    PrimeLevel, check_int, check_odd_prime, chunks, full_factorial, int_array, inverse_table,
)
from .orthopoly import check_levels, orthonormal_basis
from .recursion import RecursiveType, _classify_stack, _span_coordinates, _subsets

FAMILIES = ("linear", "williams")
SEARCH_CAP = 2_000_000


def center_preimage(q: PrimeLevel) -> int:
    """The level that the Williams transformation sends to the middle level.

    Equals (q-1)/4 when q = 1 mod 4 and (3q-1)/4 when q = 3 mod 4.
    """
    q = check_odd_prime(q)
    return (q - 1) // 4 if q % 4 == 1 else (3 * q - 1) // 4


def _shift_centre(q: int, family: str) -> int:
    """The level g of the family's closed-form shift (1 - sum_j c_ij) g mod q."""
    return center_preimage(q) if family == "williams" else (q - 1) // 2


def _closed_form_shifts(C: np.ndarray, q: int, family: str) -> np.ndarray:
    """Closed-form shift vectors of a (..., m, d) coefficient stack, shape (..., m)."""
    return ((1 - C.sum(axis=-1)) * _shift_centre(q, family)) % q


def optimal_shift_williams(gen: GeneratorSet) -> list:
    """Closed-form shift vector for the Williams family.

    Component i is (1 - sum_j c_ij) * center_preimage(q) mod q. The
    Williams-transformed design at this shift is mirror-symmetric, so its
    odd-degree aliasing measures all vanish.
    """
    return _closed_form_shifts(gen.C, gen.q, "williams").tolist()


def optimal_shift_linear(gen: GeneratorSet) -> list:
    """Closed-form shift vector for the plain linear-permutation family.

    Component i is b_i = (1 - sum_j c_ij) * (q-1)/2 mod q, so 2 b_i =
    sum_j c_ij - 1 (mod q), and the shifted design is mirror-symmetric: the
    reflection x -> -1 - x of the independent levels keeps the runs, and
    takes column i, c_i.x + b_i, to -sum_j c_ij - c_i.x + b_i, which is
    -1 - c_i.x - b_i, its reflection. So its odd-degree measures vanish.
    """
    return _closed_form_shifts(gen.C, gen.q, "linear").tolist()


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise InputError(f"family must be one of {FAMILIES}, got {family!r}")


def build_design(gen: GeneratorSet, b, family: str) -> Design:
    """The family member at shift vector b."""
    _check_family(family)
    design = linear_permute(gen, b)
    return williams(design) if family == "williams" else design


def _member_stacks(C, b, q: int, family: str, ks=()):
    """Level stacks of family members, in chunks of stack_bytes for the degrees ks.

    The stacked form of build_design. C is either a GeneratorSet, expanded
    once (under expand's run cap) and shifted by every row of the (B, m)
    shift stack b, or a (B, m, d) coefficient stack whose sets are shifted
    by their own rows of b. Yields (chunk, N, n) stacks in the order of b;
    the Williams family maps their levels by williams_levels.
    """
    single = isinstance(C, GeneratorSet)
    m, d = C.C.shape if single else C.shape[1:]
    if single:
        expanded = expand(C).rows[None]
    for part in chunks(len(b), stack_bytes(q**d, m + d, q, ks)):
        rows = shift_stack(expanded if single else expand_stack(C[part], q), b[part], q)
        yield williams_levels(rows, q) if family == "williams" else rows


def _member_patterns(C, b, q: int, family: str, k_max) -> np.ndarray:
    """The (beta_1, ..., beta_k_max) patterns of the _member_stacks members, one row each."""
    return np.array([
        beta_pattern(Design(q, rows), k_max).values
        for stack in _member_stacks(C, b, q, family)
        for rows in stack
    ])


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive shift search."""

    family: str
    generators: list
    b: list
    pattern: tuple
    ties: list
    evaluations: int
    decided_k: Optional[int]

    def to_json_dict(self, q: int, n: int) -> dict:
        return {
            "q": q,
            "n": n,
            "family": self.family,
            "generators": self.generators,
            "b": self.b,
            "beta": list(self.pattern),
            "ties": self.ties,
            "evaluations": self.evaluations,
            "decided_k": self.decided_k,
        }


def _support_table(values) -> np.ndarray:
    """Squared run-sums of every choice of candidates on the positions of a support.

    values[j] is a (V_j, N) array, for two or more positions j, holding the
    candidate value vectors of position j: p_{u_j} of an independent column
    in each run, or of a dependent column at each of its q shifts. Returns
    the (V_1, ..., V_r) table of (sum_i prod_j v_j[a_j, i])^2. The leading
    positions are multiplied out in fieldmath.chunks and the last one enters
    through a matrix product, so the run-sums are added in BLAS order: the
    table is accurate to rounding, not bit-identical to beta_k_stack.
    """
    head, *mid, last = values
    N = head.shape[1]
    shape = tuple(len(v) for v in values)
    width = prod(shape[1:-1])
    out = np.empty((shape[0], width, shape[-1]))
    for part in chunks(shape[0], 8 * N * width):
        terms = head[part, None, :]
        for v in mid:
            terms = (terms[:, :, None, :] * v[None, None]).reshape(len(terms), -1, N)
        sums = terms @ last.T
        out[part] = sums * sums
    return out.reshape(shape)


def shift_grid_beta(gen: GeneratorSet, family: str, k: int) -> np.ndarray:
    """beta_k of every shift vector at once, as an array of shape (q,)*m.

    Every member is an orthogonal array of strength 2, so an exponent vector
    whose support has fewer than three columns is skipped: its run-sum is
    exactly zero. Any other exponent vector has entries up to k - 2 only,
    and its term depends only on the shifts of the dependent columns in its
    support: a _support_table over those shifts, summed per set of dependent
    columns, divided by N^2 and added into the grid by broadcasting. The
    values are accurate to rounding, not bit-identical to shift_betas;
    search_shifts prunes on them at k = 4 and 5 only (beta_3 is cut on exact
    integer totals by _triple_survivors, and the tests keep k = 3 as oracle).
    """
    _check_family(family)
    _check_k(k, gen.n, gen.q)
    q, m, n, d = gen.q, gen.m, gen.n, gen.n - gen.m
    P = orthonormal_basis(q).values[: k - 1]
    # member s has every dependent column at shift s: (q shifts, N, n)
    shifts = np.arange(q)[:, None].repeat(m, axis=1)
    levels = np.concatenate(list(_member_stacks(gen, shifts, q, family)))
    # (degrees, 1, N) per independent column, (degrees, q shifts, N) per dependent one
    vals = [P[:, levels[:1, :, j]] if j < d else P[:, levels[:, :, j]] for j in range(n)]
    tables = {}
    for u in compositions(k, n, q - 1).tolist():
        support = [j for j in range(n) if u[j]]
        if len(support) < 3:
            continue
        axes = tuple(j for j in support if j >= d)
        table = _support_table([vals[j][u[j]] for j in support])
        table = table.reshape([q if j in axes else 1 for j in range(d, n)])
        tables[axes] = tables.get(axes, 0.0) + table
    grid = np.zeros((q,) * m)
    for table in tables.values():
        grid += table / q ** (2 * d)
    return grid


def shift_betas(gen: GeneratorSet, family: str, shifts, ks) -> np.ndarray:
    """beta_k of the family member at each shift vector, shape (len(shifts), len(ks)).

    shifts is an (S, m) array of shift vectors; column t holds beta_{ks[t]}.
    Bit-identical to beta_k(build_design(gen, b, family), k) per shift, but
    the generator set is expanded once and the members are evaluated as
    stacks by beta_k_stack, which gives each row the bits of its own member.
    """
    _check_family(family)
    shifts = int_array(shifts, "shifts")
    if shifts.ndim != 2 or shifts.shape[1] != gen.m:
        raise InputError(f"shifts must have shape (S, {gen.m}), got {shifts.shape}")
    for k in ks:
        _check_k(k, gen.n, gen.q)
    stacks = _member_stacks(gen, shifts, gen.q, family, ks)
    # an empty block keeps the (0, len(ks)) shape when no shift vector yields a stack
    return np.concatenate([np.empty((0, len(ks)))] + [beta_k_stack(r, ks, gen.q) for r in stacks])


def search_shifts(gen: GeneratorSet, family: str, k_max: int = None) -> SearchReport:
    """Exhaustively evaluate all q^m shift vectors and rank them sequentially.

    The winner is the lexicographically smallest shift vector among all
    pattern minimizers; the tie list holds every minimizer. Every member is
    an orthogonal array of strength 2 (GeneratorSet refuses proportional
    columns), so beta_1 = beta_2 = 0 at every shift and pruning starts at
    degree 3. The closed-form shift has beta_3 = 0, so the beta_3 cut keeps
    the shift vectors whose exact integer triple total lies in the tie band
    of 0 (_triple_survivors, _beta3_band), and builds no q^m array. While
    more than one is left, degrees 4 and 5 (up to k_max) prune on
    shift_grid_beta, read at the survivors; they then get full patterns, on
    which they are ranked. Below k_max = 3 every shift ties, undecided, and
    only the winner, shift 0...0, gets its pattern. The degree-4 and -5
    grids are accurate only to rounding, so a shift vector within rounding
    of their cut could fall on either side of it. The tests hold the
    survivors and the grids to a full pattern per shift, and replay the
    recorded search outputs byte for byte.
    """
    _check_family(family)
    q, m = gen.q, gen.m
    total = q**m
    if total > SEARCH_CAP:
        raise CapExceededError(
            f"shift space of size {total} exceeds the cap of {SEARCH_CAP}"
        )
    if k_max is None:
        k_max = gen.n * (q - 1)
    _check_k(k_max, gen.n, q, "k_max")

    if k_max < 3:  # beta_1 = beta_2 = 0: every shift ties, and only the winner's pattern is read
        shifts, decided = full_factorial(q, m), None
        patterns = _member_patterns(gen, shifts[:1], q, family, k_max)
        sub_alive = np.arange(total)
    else:
        shifts = _triple_survivors(gen.C[None], q, family, _beta3_band(q))[1]
        decided = 3 if len(shifts) < total else None
        if k_max >= 4 and len(shifts) > 1:
            # wide supports stop the grids paying off above degree 5; each is built when reached
            cells = tuple(shifts.T)
            grids = (shift_grid_beta(gen, family, k)[cells] for k in range(4, min(k_max + 1, 6)))
            kept, sub_decided = _rank_candidates(len(shifts), grids)
            shifts = shifts[kept]
            if sub_decided is not None:
                decided = sub_decided + 3  # the first grid is beta_4
        patterns = _member_patterns(gen, shifts, q, family, k_max)
        sub_alive, sub_decided = _rank_candidates(len(patterns), patterns.T)
        if sub_decided is not None:
            decided = sub_decided
    winner = int(sub_alive[0])
    return SearchReport(
        family=family,
        generators=gen.C.tolist(),
        b=shifts[winner].tolist(),
        pattern=tuple(patterns[winner].tolist()),
        ties=shifts[sub_alive].tolist(),
        evaluations=total,
        decided_k=decided,
    )


def enumerate_q2_generators(q: PrimeLevel, n: int):
    """All reduced generator sets for q^2-run designs with n columns.

    Dependent columns are pairs (c1, c2) with c1 in 1..(q-1)/2 and
    c2 in 1..q-1; distinct columns must point in distinct projective
    directions, and the direction set is kept in canonical ascending order.
    Yields exactly C(q-1, n-2) * ((q-1)/2)^(n-2) generator sets, the rows
    of _q2_coefficients, so a cell of more than SEARCH_CAP sets is refused.
    """
    for C in _q2_coefficients(q, n):
        yield GeneratorSet(q, C)


def _check_q2_columns(q: int, n: int, name: str = "n") -> None:
    """Refuse a column count outside 3..q+1: a q^2-run design has at most q+1 columns."""
    if not 3 <= check_int(n, name) <= q + 1:
        raise InputError(f"{name}={n} out of range 3..{q + 1} for q={q}")


def _q2_cell_sets(q: int, n: int) -> int:
    """The number of reduced generator sets in the (q, n) cell."""
    return comb(q - 1, n - 2) * ((q - 1) // 2) ** (n - 2)


def _check_q2_cell(q: int, n: int) -> None:
    """Refuse a (q, n) cell of more than SEARCH_CAP reduced generator sets, before any work."""
    if (sets := _q2_cell_sets(q, n)) > SEARCH_CAP:
        raise CapExceededError(
            f"q={q} n={n} has {sets} reduced generator sets, over the cap of {SEARCH_CAP}"
        )


def _q2_coefficients(q: PrimeLevel, n: int) -> np.ndarray:
    """Every reduced coefficient set of the (q, n) cell as one (B, m, 2) int16 stack.

    q, n and the cell size are checked first (a cell of more than
    SEARCH_CAP sets is refused). With m = n - 2, dependent column i is
    (c_i, c_i * s_i mod q); the rows run over the slope sets s in
    combinations order and, within each, over the scale vectors c in
    product order (np.indices, last column fastest), written by one
    broadcast of the scales against the slopes. Every entry is below q,
    and every product c_i s_i below (q-1)^2 / 2, which int32 holds for
    any q whose smallest cell SEARCH_CAP admits.
    """
    q = check_odd_prime(q)
    _check_q2_columns(q, n)
    _check_q2_cell(q, n)
    m, half = n - 2, (q - 1) // 2
    scales = np.indices((half,) * m, dtype=np.int16).reshape(m, -1).T + 1
    slopes = np.array(list(combinations(range(1, q), m)), dtype=np.int32)[:, None]
    C = np.empty((len(slopes), len(scales), m, 2), dtype=np.int16)
    C[..., 0] = scales
    C[..., 1] = scales * slopes % q
    return C.reshape(-1, m, 2)


def _cross_products(C: np.ndarray, q: int) -> np.ndarray:
    """X[i, j] = det(column i, column j) mod q of each set of a (B, m, 2) stack: int32 (n, n, B)."""
    u, v = np.ascontiguousarray(column_vectors(C).transpose(2, 1, 0), dtype=np.int32)  # (n, B)
    return (u[:, None] * v - v[:, None] * u) % q


def _coordinates(X: np.ndarray, q: int, a, b, c) -> np.ndarray:
    """lambda q + mu for column c = lambda a + mu b, by Cramer's rule on the _cross_products X
    (two columns of a q^2-run set are independent): shape (..., B) for index arrays (...)."""
    inv = inverse_table(q)[X[a, b]]
    return X[c, b] * inv % q * q + X[a, c] * inv % q


@lru_cache(maxsize=None)
def _group_elements(n: int) -> tuple:
    """The 2n(n-1) Cheng-Ye group elements of _image_indices, as read-only arrays.

    Returns (a, b, s, others): element g takes columns a[g] and b[g], with
    sign s[g] on b[g], as the new independent pair, and others[g] lists the
    other n - 2 columns in ascending order. Element 0 is (0, 1, +1).
    """
    elems = [
        (a, b, s, [j for j in range(n) if j not in (a, b)])
        for a, b in permutations(range(n), 2)
        for s in (1, -1)
    ]
    out = tuple(np.array(x, dtype=np.int64) for x in zip(*elems))
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _image_keys(q: int) -> np.ndarray:
    """The key table of _image_tables, int32 (q^3,), read-only and cached: it depends on q alone.

    key[(d q + e) q + f] = (t - 1)(q-1)/2 + alpha - 1 for alpha = e / d, up
    to level reversal in 1..(q-1)/2, and the slope t = (f / d) / alpha = f / e.
    """
    half = (q - 1) // 2
    inv = inverse_table(q)
    d, e, f = np.ix_(range(q), range(q), range(q))
    alpha = e * inv[d] % q
    key = ((f * inv[e] % q - 1) * half + np.minimum(alpha, q - alpha) - 1).ravel().astype(np.int32)
    key.setflags(write=False)
    return key


@lru_cache(maxsize=None)
def _image_tables(q: int, n: int) -> tuple:
    """The tables of _image_indices for the n-column sets of a cell: (key, weight, where),
    read-only and cached, as they depend on (q, n) alone.

    With X[i, j] = det(column i, column j) mod q, element (a, b, s) writes
    column v as alpha x_a + beta (s x_b), alpha = X[v, b] / X[a, b] and beta
    = s X[a, v] / X[a, b]; up to level reversal alpha is in 1..(q-1)/2, and
    the slope is t = beta / alpha. key[(d q + e) q + f] = (t - 1)(q-1)/2 +
    alpha - 1 (_image_keys) for d = X[a, b], e = X[v, b] and f = s X[a, v],
    whose flat positions in X are where. An image's cell index (slope set
    rank, then scale rank) is the sum of weight[i, key_i] over its keys in
    ascending order.
    """
    m, half = n - 2, (q - 1) // 2
    t, c = np.divmod(np.arange((q - 1) * half), half)  # slope - 1 and alpha - 1 of each key
    binom = np.array([[comb(x, k) for k in range(m + 1)] for x in range(q - 1)])
    i = np.arange(m)[:, None]
    weight = c * half ** (m - 1 - i) - binom[q - 2 - t, m - i] * half**m
    weight[0] += (comb(q - 1, m) - 1) * half**m
    a, b, s, others = _group_elements(n)
    fa = np.where(s[:, None] > 0, a[:, None] * n + others, others * n + a[:, None])
    where = (a * n + b, (others * n + b[:, None]).T, fa.T)
    for arr in (weight, *where):
        arr.setflags(write=False)
    return _image_keys(q), weight, where


def _image_indices(C: np.ndarray, q: int, tables: tuple) -> np.ndarray:
    """The cell index of each Cheng-Ye image of the sets of a (B, m, 2) stack: (G, B).

    Element (a, b, s) takes columns (x_a, s x_b) as the new independent
    pair and re-expresses every other column in that basis, up to level
    reversal, sorted by slope: a reduced set of the same design up to column
    permutation and level reversal. s = -1 on x_a gives the same images, so
    G = 2n(n-1). Row 0, the identity, holds each set's own index.
    """
    key, weight, (ab, vb, av) = tables
    X = _cross_products(C, q).reshape(-1, len(C))  # row i n + j: X[i, j]
    d, e, f = (np.take(X, at, axis=0) for at in (ab, vb, av))  # (G, B), (m, G, B) twice
    k = np.take(key, (d * q + e) * q + f)
    for r in range(len(k)):  # odd-even transposition sort of each image's m keys
        lo, hi = k[r % 2 : -1 : 2], k[r % 2 + 1 :: 2]
        lo[:], hi[:] = np.minimum(lo, hi), np.maximum(lo, hi)
    return sum(np.take(w, row) for w, row in zip(weight, k))


def _cell_orbits(C: np.ndarray, q: int) -> np.ndarray:
    """The Cheng-Ye orbit of every set of a whole cell, as one int64 each.

    C is _q2_coefficients(q, n), so a set's cell index is its row. A set's
    orbit is the smallest index over its _image_indices, the row of one of
    its members: two sets share it exactly when they are images of each
    other. From a cursor past every labelled set, looking 64 sets ahead per
    set wanted, the next unlabelled sets are taken in batches that double up
    to one of the cell's fieldmath.chunks of (m, G, batch) int32 key stacks;
    each one's smallest index goes to all of its images. An orbit is the
    images of any one member, so it has at most G = 2n(n-1) sets and a cell
    of B sets has at least B / G orbits: the first batch takes that many
    sets, as a smaller one only adds _image_indices calls.
    """
    n = C.shape[1] + 2
    G = 2 * n * (n - 1)
    tables = _image_tables(q, n)
    cap = chunks(len(C), 4 * G * (n - 2))[0].stop  # the first chunk's size
    orbit = np.full(len(C), -1, dtype=np.int64)
    start, step = 0, min(cap, -(-len(C) // G))
    while start < len(C):
        window = orbit[start : start + 64 * step]
        todo = np.flatnonzero(window < 0)[:step]
        if len(todo):
            idx = _image_indices(C[start + todo], q, tables)
            orbit[idx] = idx.min(axis=0)
        start += todo[-1] + 1 if len(todo) == step else len(window)
        step = min(2 * step, cap)
    return orbit


@dataclass(frozen=True)
class FamilyBest:
    """Winner of a generator-space search for one family, as searchq2 prints it.

    Its ties are generator sets, not shift vectors, and b is the winner's
    closed-form shift at q levels. beta3 and beta4 are its exact beta_3 and
    beta_4 (beta_k_stack). Its full pattern is
    beta_pattern(build_design(GeneratorSet(q, generators), b, family)).
    """

    family: str
    generators: list
    b: list
    ties: list
    evaluations: int
    decided_k: Optional[int]
    beta3: float
    beta4: float


@dataclass(frozen=True)
class Q2Report:
    q: int
    n: int
    standard_generators: list
    standard_beta3: float
    standard_beta4: float
    linear: FamilyBest
    williams: FamilyBest

    def to_json_dict(self) -> dict:
        def fam(f):  # search --json's keys, beta holding the printed beta_3 and beta_4
            keys = ("family", "generators", "b", "beta", "ties", "evaluations", "decided_k")
            return {k: [f.beta3, f.beta4] if k == "beta" else getattr(f, k) for k in keys}

        return {
            "q": self.q,
            "n": self.n,
            "standard": {
                "generators": self.standard_generators,
                "beta": [self.standard_beta3, self.standard_beta4],
            },
            "linear": fam(self.linear),
            "williams": fam(self.williams),
        }


def standard_generators(q: PrimeLevel, n: int) -> GeneratorSet:
    """The common q^2-run choice: columns x1, x2, x1+x2, x1+2*x2, ..."""
    _check_q2_columns(q, n)
    return GeneratorSet(q, [[1, s] for s in range(1, n - 1)])


def _centred_levels(q: int, family: str) -> np.ndarray:
    """f(y) - (q-1)/2 for the family's level f(y) of a column at linear level y: int64 (q,)."""
    y = np.arange(q)
    return (williams_levels(y, q) if family == "williams" else y) - (q - 1) // 2


def _planes(q: int) -> np.ndarray:
    """(q^2, q^2) levels lambda y1 + mu y2 mod q: row lambda q + mu, column y1 q + y2. For
    columns a, b, c = lambda a + mu b at shifts s, (y1, y2) = (a.x + s_a, b.x + s_b) runs
    once through the runs, and c is at level lambda y1 + mu y2 + s_c - lambda s_a - mu s_b."""
    lam, mu = np.divmod(np.arange(q * q), q)
    return (lam[:, None] * lam + mu[:, None] * mu) % q


@lru_cache(maxsize=None)
def _quad_table(q: int, family: str, g: int) -> np.ndarray:
    """J[c, e] = sum over the _planes of A[q] A[1] A[c] A[e]: int64 (q^2, q^2), one matrix
    product, read-only and cached on everything it reads, the shift centre g included.

    A[lambda q + mu] holds the centred levels of the column lambda a + mu b at the
    closed-form shift (1 - lambda - mu) g: the shift is affine in the coefficients, so
    that column is offset by the shift of (lambda, mu), and A[q], A[1] are a and b.
    J[c, c] sums L_a L_b L_c^2. Every partial sum is an integer below 2^53.
    """
    lam, mu = np.divmod(np.arange(q * q), q)
    A = _centred_levels(q, family)[(_planes(q) + ((1 - lam - mu) * g % q)[:, None]) % q]
    A = A.astype(float)
    J = (A * (A[q] * A[1]) @ A.T).astype(np.int64)
    J.setflags(write=False)
    return J


@lru_cache(maxsize=None)
def _triple_table(q: int, family: str) -> np.ndarray:
    """T[lambda q + mu, o] = sum over the _planes of f(y1) f(y2) f(lambda y1 + mu y2 + o),
    f the _centred_levels: int64 (q^2, q), read-only and cached. A histogram of
    f(y1) f(y2) times the circulant of f, exact in float64: integers < 2^53."""
    f, V = _centred_levels(q, family), _planes(q)
    w = np.broadcast_to(f[V[q]] * f[V[1]], V.shape)
    hist = np.bincount((np.arange(q * q)[:, None] * q + V).ravel(), w.ravel(), q**3)
    T = (hist.reshape(q * q, q) @ f[(np.arange(q)[:, None] + np.arange(q)) % q]).astype(np.int64)
    T.setflags(write=False)
    return T


def _beta3_band(q: int) -> int:
    """The largest triple total t whose beta_3 = rho_1^6 t / q^4 ties the minimum, 0: t <=
    _cut(0) q^4 (q^2-1)^3 / 1728, as rho_1^2 = 12/(q^2-1), from _cut(0)'s exact ratio."""
    num, den = _cut(0.0).as_integer_ratio()
    return num * q**4 * (q * q - 1) ** 3 // (1728 * den)


def _triple_survivors(C: np.ndarray, q: int, family: str, limit: int) -> tuple:
    """The shift vectors of each set of a (B, m, d) coefficient stack whose triple total
    is at most limit: int64 (owner, shifts), the set of each survivor, ascending, (L,),
    and its shift vector, in lexicographic order within each set, (L, m).

    beta_3 = rho_1^6 / q^4 times the total at strength 2. A column triple c = lambda a +
    mu b has S = q^(d-2) T[lambda q + mu, s_c - lambda s_a - mu s_b] (_triple_table,
    _span_coordinates) and adds T^2; one of rank 3 has S = 0. Shift vectors grow one
    dependent column at a time, each live one repeated q times with the new shift
    appended, and add the triples the new column closes; no term is negative, so a partial
    vector over the limit is dropped at once. Each step runs in fieldmath.chunks of its
    (vector, triple) arrays. Digits, not flat indices, are carried: q^m may pass int64.
    """
    (B, m, d), T = C.shape, _triple_table(q, family)
    pa, pb = _subsets(m + d, 2).T
    at = _span_coordinates(column_vectors(C), q, pa, pb)
    # the shifts hold a 0 for each independent column until the end
    owner, shifts, total = np.arange(B), np.zeros((B, d), np.int64), np.zeros(B, np.int64)
    for c in range(d, d + m):
        pairs = np.flatnonzero((pb < c) & (at[:, :, c] >= 0).any(axis=0))  # of rank 2
        at_c, a, b = at[:, pairs, c], pa[pairs], pb[pairs]
        found = [(owner[:0], np.empty((0, c + 1), np.int64), total[:0])]
        for part in chunks(len(owner), 8 * q * (len(pairs) + c + 1)):
            o, s = owner[part].repeat(q), shifts[part].repeat(q, axis=0)
            s = np.column_stack([s, np.arange(len(s)) % q])
            v = at_c[o]
            lam, mu = np.divmod(v, q)
            S = T[v, (s[:, c, None] - lam * s[:, a] - mu * s[:, b]) % q]
            t = np.repeat(total[part], q) + np.where(v < 0, 0, S * S).sum(axis=1)
            kept = t <= limit
            found.append((o[kept], s[kept], t[kept]))
        owner, shifts, total = map(np.concatenate, zip(*found))
    return owner, shifts[:, d:]


def _beta4_keys(C: np.ndarray, q: int) -> np.ndarray:
    """The exact beta_4 key of each set of a (B, m, 2) coefficient stack in each family:
    int64 (2, B), a row per family in FAMILIES order.

    At the closed-form shift, with L the centred levels, p_1 = rho_1 L and
    p_2 = rho_2 (L^2 - (q^2-1)/12), where rho_1^2 = 12/(q^2-1) and rho_2^2 =
    180/((q^2-1)(q^2-4)). Every member is an orthogonal array of strength 2,
    so a degree-4 exponent vector on fewer than three columns sums to zero
    over the runs, and on three columns p_2's constant drops out, as any two
    columns form a full q^2 factorial. Hence N^2 beta_4 (q^2-1)^4 (q^2-4) /
    144 = K = 180 (q^2-1) sum I^2 + 144 (q^2-4) sum J^2, for the integer
    run-sums I of L_a^2 L_b L_c (a column a and a pair {b, c} of other
    columns) and J of L_a L_b L_c L_d (a set of four columns). Returns K /
    36: beta_4 orders the sets as the key does, and two sets tie exactly
    when their keys are equal.

    J is the family's _quad_table read at _coordinates, and I its diagonal. Their
    squares are below 2^53 and the key below 2^63 on every cell SEARCH_CAP admits up to
    MAX_LEVELS (tested). The cross products and coordinates are the family's geometry,
    not its levels, so they are computed once and each family's table is read at them.
    """
    n = C.shape[1] + 2
    X = _cross_products(C, q)
    x, y, z = _subsets(n, 3).T  # each column of each triple, in the basis of the other two
    at_i = np.concatenate([_coordinates(X, q, *r) for r in ((y, z, x), (x, z, y), (x, y, z))])
    a, b, c, d = _subsets(n, 4).T
    at_j = _coordinates(X, q, a, b, c) * q * q + _coordinates(X, q, a, b, d)
    keys = np.empty((len(FAMILIES), len(C)), dtype=np.int64)
    for row, family in zip(keys, FAMILIES):
        J2 = _quad_table(q, family, _shift_centre(q, family)) ** 2
        sum_i2, sum_j2 = J2.diagonal()[at_i].sum(axis=0), J2.ravel()[at_j].sum(axis=0)
        row[:] = 5 * (q * q - 1) * sum_i2 + 4 * (q * q - 4) * sum_j2
    return keys


def _family_ties(C, orbit, reps, keys, q, family) -> tuple:
    """The family's ties in tolist order and the degree that decided them.

    C is the whole cell, orbit its _cell_orbits labels, reps the rows whose
    label is their own, one member of each orbit, and keys the family's
    _beta4_keys of the reps. Column permutation and level reversal preserve
    the pattern at the closed-form shift, so the search works on one set per
    orbit, whichever member it is. Every member is mirror-symmetric at its
    closed-form shift (optimal_shift_linear in the linear family, theorem 4,
    as _theorem4 checks it, in the Williams one), so beta_3 is rounding and
    cuts nothing: the representatives whose integer keys equal the smallest
    are kept, and, only if two or more are, they are ranked on beta_1,
    beta_2, ... at their closed-form shifts. Their level stacks are built
    once; each degree's beta_k_stack column runs in chunks of stack_bytes
    for that degree, and is built only when _rank_candidates reads it: the
    ranking stops at the degree that leaves one orbit, and reads the values
    only through the tie band. Every member of a kept orbit is a tie, found
    by a mask over the labels.
    """
    alive = reps[keys == keys.min()]
    decided = 4 if len(alive) < len(keys) else None
    if len(alive) > 1:
        b = _closed_form_shifts(C[alive], q, family)
        stack = np.concatenate(list(_member_stacks(C[alive], b, q, family)))
        N, n = stack.shape[1:]
        columns = (
            np.concatenate([
                beta_k_stack(stack[part], (k,), q)[:, 0]
                for part in chunks(len(stack), stack_bytes(N, n, q, (k,)))
            ])
            for k in range(1, n * (q - 1) + 1)
        )
        kept, sub_decided = _rank_candidates(len(alive), columns)
        alive = alive[kept]
        if sub_decided is not None:
            decided = sub_decided
    tied = np.zeros(len(C), dtype=bool)
    tied[alive] = True
    return sorted(C[tied[orbit]].tolist()), decided


def search_q2(q: PrimeLevel, n: int) -> Q2Report:
    """Full generator-space search for the best design of each family.

    Every reduced generator set is evaluated at its closed-form shift; the
    per-family winner minimizes the aliasing pattern sequentially, with all
    pattern-equal generator sets reported as ties. Column permutation and
    level reversal (Cheng and Ye, 2004) preserve the pattern, so every set
    of the cell is labelled with its orbit once, from table lookups on each
    set's cross products (_cell_orbits). A label is the row of one member of
    the orbit, and the rows labelled with themselves are the representatives.
    One pass serves both families: their integer beta_4 keys come from one
    set of cross products (_beta4_keys), each family is pruned on its own
    keys, then ranked degree by degree on beta_k_stack columns only where
    two or more orbits survive (_family_ties), so no full pattern is built.
    The ties are whole orbits, sorted, and the winner is the smallest tie.
    Both winners' beta_3 and beta_4 come from one beta_k_stack call, each
    row with the bits of its own member. The standard design's beta_3 and
    beta_4 come from the pair kernel cut off at degree 4, which gives the
    bits of its full pattern. A q above MAX_LEVELS is refused before the
    cell is built.
    """
    q = check_levels(check_odd_prime(q))
    std = standard_generators(q, n)
    C = _q2_coefficients(q, n)
    # the pair kernel, not beta_pattern: above 512 runs beta_pattern(d, 4)
    # enumerates, and its bits differ from the full pattern's (q=23)
    std_beta3, std_beta4 = np.maximum(_pattern_by_pairs(expand(std), 4)[3:], 0.0).tolist()
    orbit = _cell_orbits(C, q)
    reps = np.flatnonzero(orbit == np.arange(len(C)))
    keys = _beta4_keys(C[reps], q)
    found = [_family_ties(C, orbit, reps, k, q, f) for k, f in zip(keys, FAMILIES)]
    wins = np.array([ties[0] for ties, _ in found])
    b = np.stack([_closed_form_shifts(w, q, f) for w, f in zip(wins, FAMILIES)])
    rows = shift_stack(expand_stack(wins, q), b, q)
    rows[1] = williams_levels(rows[1], q)  # FAMILIES: linear, then williams
    betas = beta_k_stack(rows, (3, 4), q).tolist()
    linear, will = (
        FamilyBest(
            family=family,
            generators=ties[0],
            b=shift.tolist(),
            ties=ties,
            evaluations=len(C),
            decided_k=decided,
            beta3=beta3,
            beta4=beta4,
        )
        for family, (ties, decided), shift, (beta3, beta4) in zip(FAMILIES, found, b, betas)
    )
    return Q2Report(
        q=q,
        n=n,
        standard_generators=std.C.tolist(),
        standard_beta3=std_beta3,
        standard_beta4=std_beta4,
        linear=linear,
        williams=will,
    )


def count_recursive(q: PrimeLevel, n: int):
    """Tally (type I, type II, type III) over the reduced two-independent-
    column generator space; counts are cumulative, a type-I design adds to
    all three.
    """
    if q not in (5, 7):
        raise InputError(f"counts are tabulated for q in {{5, 7}}, got {q}")
    labels = _classify_stack(_q2_coefficients(q, n), q)
    c1 = int((labels == RecursiveType.TYPE_I).sum())
    c2 = c1 + int((labels == RecursiveType.TYPE_II).sum())
    c3 = c2 + int((labels == RecursiveType.TYPE_III).sum())
    return c1, c2, c3


# Each theorem checks the cells of one run, _q2_coefficients stacks C in order
# of n, and yields a (set, why) pair per failing set, in cell order.


def _theorem1(cells, q):
    # Every set is checked, not one per orbit: orbit members share beta_3 only
    # at a shift that satisfies the theorem's closed form. A set fails when its
    # sum over the column triples of S2 read at _coordinates, the squares of the
    # run-sums S that T holds at the closed-form offsets, is nonzero. rho is
    # read first, so q > MAX_LEVELS is refused before the table.
    rho = orthonormal_basis(q).rho
    lam_mu = np.stack(np.divmod(np.arange(q * q), q), axis=1)
    S = _triple_table(q, "williams")[np.arange(q * q), _closed_form_shifts(lam_mu, q, "williams")]
    S2 = S * S
    for C in cells:
        n = C.shape[1] + 2
        for part in (C[rows] for rows in chunks(len(C), 4 * n * n)):  # the int32 X of a set
            X = _cross_products(part, q)
            total = sum(S2[_coordinates(X, q, a, b, c)] for a, b, c in _subsets(n, 3))
            yield from ((c, f"beta3={rho**6 * t / q**4:.3g}") for c, t in zip(part, total) if t)


def _theorem2(cells, q):
    # A shift has beta_3 = 0 exactly when its integer triple total is 0, shown
    # exact up to MAX_LEVELS: as in theorem 1, a larger q is refused first.
    check_levels(q)
    for C in cells:
        C = C[_classify_stack(C, q) == RecursiveType.TYPE_II]
        owner, shifts = _triple_survivors(C, q, "williams", 0)
        ends = np.searchsorted(owner, np.arange(len(C) + 1))
        expected = _closed_form_shifts(C, q, "williams").tolist()
        for coeffs, lo, hi, b in zip(C, ends, ends[1:], expected):
            if (zeros := shifts[lo:hi].tolist()) != [b]:
                yield coeffs, f"zero set {zeros}, expected [{b}]"


def _theorem4(cells, q):
    # A member is W(code + (0, 0, b)) and reflecting its levels is W rho W^-1, rho(y) =
    # (q-1)/2 - y: affine, so it maps the coset onto a coset of the same code, and the
    # two are equal exactly when the reflection (rho(0), rho(0), rho(b)) of run 0 is a
    # run, that is when rho(b) - b = C (rho(0), rho(0)) in every dependent column.
    rho = np.array([williams_inverse(q - 1 - w, q) for w in williams_levels(np.arange(q), q)])
    for C in cells:
        b = _closed_form_shifts(C, q, "williams")
        mirrored = ((rho[b] - b - C.sum(axis=-1) * rho[0]) % q == 0).all(axis=1)
        yield from ((coeffs, "not mirror-symmetric") for coeffs in C[~mirrored])


_THEOREMS = {1: _theorem1, 2: _theorem2, 4: _theorem4}


def default_nmax(q: PrimeLevel) -> int:
    """verify's nmax when none is given: q + 1 up to q = 7, else 5, lowered (not below 3)
    while the cell at nmax holds more than SEARCH_CAP sets, as from q = 23."""
    nmax = q + 1 if q <= 7 else 5
    while nmax > 3 and _q2_cell_sets(q, nmax) > SEARCH_CAP:
        nmax -= 1
    return nmax


def verified_nmax(theorem: int, nmax: int) -> int:
    """The largest column count that verify_theorem(theorem, q, nmax) covers.

    Theorem 2 is checked up to n = 4 whatever nmax is.
    """
    return min(nmax, 4) if theorem == 2 else nmax


def verify_theorem(theorem: int, q: PrimeLevel, nmax: int) -> list:
    """Check a structural theorem over every reduced q^2-run generator set.

    Covers n = 3..nmax columns and returns one line per failing set:
        1: the Williams family at the closed-form shift has beta_3 = 0;
        2: a type-II set has exactly one shift with beta_3 = 0 in the
           Williams family, the closed-form one (checked for n <= 4);
        4: the Williams family at the closed-form shift is mirror-symmetric.
    """
    q = check_odd_prime(q)
    if check_int(theorem, "theorem") not in _THEOREMS:
        raise InputError(f"theorem must be one of {tuple(_THEOREMS)}, got {theorem!r}")
    _check_q2_columns(q, nmax, "nmax")
    ns = range(3, verified_nmax(theorem, nmax) + 1)
    for n in ns:
        _check_q2_cell(q, n)
    return [
        f"n={len(coeffs) + 2} C={coeffs.tolist()}: {why}"
        for coeffs, why in _THEOREMS[theorem]((_q2_coefficients(q, n) for n in ns), q)
    ]
