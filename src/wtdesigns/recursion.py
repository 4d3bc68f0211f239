"""Recursive-design classification.

A regular design is recursive when all of its columns can be reached from
some linearly independent starting set by repeatedly forming c1*w1 + c2*w2
from two distinct already-reached columns, where the result must itself be a
column of the design. Coefficient regimes, from most to least restrictive:

    type I   : c1, c2 in {1, q-1}
    type II  : c1 in {1, q-1}, c2 unrestricted (nonzero)
    type III : both coefficients unrestricted (nonzero)

The regimes are nested: every step allowed in one regime is allowed in the
next, so type I implies type II implies type III, and a design takes the
strictest regime under which some starting set reaches every column.

One closure serves every caller. It runs on a (B, n, d) stack of column
vectors, tries every d-subset of the n columns as a starting set, and gives
one label per design: `classify` is the B = 1 call, and `_classify_stack`
labels a whole q^2-run coefficient stack. The q^2 generator space and its
sweeps (`count_recursive`, theorem 2) belong to `optimal`, which calls it.

- Reach levels: for each unordered column pair {a, b} and column j, the
  strictest regime in which c1*w_a + c2*w_b = w_j. The pair's columns are
  independent, so j has at most one coefficient pair, found by Cramer's rule.
  At d = 2 it reads the cross products X[i, j] = det(w_i, w_j): c1 =
  X[j, b] / X[a, b] and c2 = X[a, j] / X[a, b]. Above, it reads a nonzero
  2x2 minor of (w_a, w_b), and the other coordinates confirm the pair. The
  sum of the two coefficients' costs gives its regime (0 on +-1, 1 on
  another unit); a zero coefficient or a failed check gives 3. The same
  solver places the column triples of optimal's beta_3 cut, and optimal
  reads the cross products and their Cramer step for the q^2-run cells.
- Closure: L[j] is the strictest regime in which a start reaches column j,
  0 on the start and 3 elsewhere. Each round lowers L[j] to the least, over
  the pairs {a, b}, of max(L[a], L[b], level of {a, b} for j). The set
  {j : L[j] <= r} after t rounds is regime r's reached set after t rounds,
  so n rounds reach every regime's fixpoint at once. A design's label is
  the min over its starts of the max over its columns.
- Squaring at d = 2: the starts are the pairs, so L, once seeded with the
  pairs' one-step reach, is also a table of pair levels, and a round reads
  it in place of the one-step levels: start s reaches j through pair
  p = {a, b} at max(L[s][a], L[s][b], L[p][j]). That is sound, since a start
  that reaches both columns of p reaches all that p reaches, and L <= the
  one-step levels, so each round lowers L at least as far as a one-step
  round: the same fixpoint in no more rounds, and deep derivations close in
  far fewer. At d > 2 a pair table would be C(n, 2) / C(n, d) times the
  start table, so the rounds there read the one-step levels.
- Starts run in chunks that bound the (design, start, pair, column) cells
  of a round. At d > 2 a design keeps the strictest label of any chunk so
  far, and the sweep stops once every design of a chunk is type I. At
  d = 2 every round reads all of a design's starts, so they close together
  and the round cuts them.

No start set is rank-checked. A dependent d-subset spans a proper subspace,
its closure stays inside it, and it misses a unit column, so it can never
label a design; it only costs work. For d = 2 there are none: no two
columns of a generator set are proportional, so every pair is independent.
"""

import enum
from functools import lru_cache
from itertools import combinations

import numpy as np

from .designs import GeneratorSet, column_vectors
from .fieldmath import chunks, inverse_table


class RecursiveType(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    NOT_RECURSIVE = "NotRecursive"

    def __str__(self):
        return self.value


# regime index -> label; index 3 means no regime reaches every column
_TYPES = (
    RecursiveType.TYPE_I,
    RecursiveType.TYPE_II,
    RecursiveType.TYPE_III,
    RecursiveType.NOT_RECURSIVE,
)


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) read-only array of the k-subsets of range(n), in lexicographic order."""
    out = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    out.setflags(write=False)
    return out


def _cross_products(cols: np.ndarray, q: int) -> np.ndarray:
    """X[i, j] = det(w_i, w_j) mod q of each design of a (B, n, 2) column stack: (n, n, B),
    int32 while it holds the product of two entries below q, and int64 above."""
    dtype = np.int32 if q * q < 2**31 else np.int64
    u, v = np.ascontiguousarray(cols.transpose(2, 1, 0), dtype=dtype)  # (n, B)
    X = u[:, None] * v
    return (X - X.transpose(1, 0, 2)) % q


def _coordinates(X: np.ndarray, q: int, a, b, c) -> tuple:
    """(lambda, mu) with column c = lambda a + mu b, by Cramer's rule on the _cross_products X
    (two columns of a q^2-run set are independent): two (..., B) arrays for index arrays (...)."""
    inv = inverse_table(q)[X[a, b]]
    return X[c, b] * inv % q, X[a, c] * inv % q


def _span_coordinates(cols: np.ndarray, q: int, pa, pb) -> tuple:
    """(lambda, mu), two (B, P, n) integer arrays: column j = lambda w_a + mu w_b for each
    column pair p = (pa[p], pb[p]) of a (B, n, d) stack, and lambda = -1 where j is off the
    pair's span.

    At d = 2 the pair spans the plane, and Cramer's rule reads the cross products
    (_coordinates); their (n, n, B) table is no larger than the output, so it needs no
    chunks. Above, the pair is independent, so some 2x2 minor of (w_a, w_b) is nonzero:
    Cramer's rule on the first gives (lambda, mu), and the other coordinates confirm them.
    Pairs run in fieldmath.chunks of their (B, C(d,2)) minors and (B, n, d) checks.
    """
    B, n, d = cols.shape
    if d == 2:
        at = _coordinates(_cross_products(cols, q), q, pa[:, None], pb[:, None], np.arange(n))
        return tuple(x.transpose(2, 0, 1) for x in at)
    r, s = _subsets(d, 2).T
    rows = np.arange(B)[:, None]
    lam, mu = np.empty((2, B, len(pa), n), dtype=np.int64)
    for part in chunks(len(pa), 8 * max(B, 1) * (len(r) + n * d)):
        wa, wb = cols[:, pa[part]], cols[:, pb[part]]  # (B, p, d)
        minors = (wa[..., r] * wb[..., s] - wa[..., s] * wb[..., r]) % q
        k = (minors != 0).argmax(axis=2)  # (B, p)
        wr, ws = cols[rows, :, r[k]], cols[rows, :, s[k]]  # (B, p, n): every w_j on (r, s)
        p = np.arange(part.stop - part.start)
        a_r, a_s = wr[:, p, pa[part], None], ws[:, p, pa[part], None]
        b_r, b_s = wr[:, p, pb[part], None], ws[:, p, pb[part], None]
        inv = inverse_table(q)[(a_r * b_s - a_s * b_r) % q]
        c1 = (wr * b_s - ws * b_r) * inv % q
        c2 = (a_r * ws - a_s * wr) * inv % q
        off = c1[..., None] * wa[:, :, None] + c2[..., None] * wb[:, :, None] - cols[:, None]
        lam[:, part], mu[:, part] = np.where((off % q).any(axis=3), -1, c1), c2
    return lam, mu


def _reach_levels(cols: np.ndarray, q: int, pa, pb) -> np.ndarray:
    """(B, P, n) strictest regime in which the column pair (pa[p], pb[p]), a < b, yields
    column j; 3 marks a column the pair cannot yield (_span_coordinates' lambda = -1).

    The step c1*w_a + c2*w_b costs 0 per coefficient in {1, q-1}, 1 per other
    unit and 3 per zero, and its regime is the sum capped at 3. The pair is
    unordered, so type II needs a unit coefficient on either column. Off the
    span, c1 = -1 reads the cost vector's extra last entry, 3.
    """
    c1, c2 = _span_coordinates(cols, q, pa, pb)
    cost = np.ones(q + 1, dtype=np.int8)
    cost[[0, 1, q - 1, q]] = 3, 0, 0, 3
    return np.minimum(cost[c1] + cost[c2], 3)


def _minimax_closure(L: np.ndarray, levels: np.ndarray | None, pa, pb) -> np.ndarray:
    """Fixpoint of the (B, S, n) start levels L under a (B, P, n) table of pair levels.

    Each round lowers L[s, j] to the least max(L[s, a], L[s, b], T[p, j]) over
    the pairs p = (a, b), where T is `levels`, or L itself when `levels` is
    None. With the one-step `levels` a round is, thresholded at any regime,
    that regime's boolean round, so it takes at most n rounds.

    Reading L itself squares the closure. It needs S = P, the starts being
    the pairs (d = 2), and L at least one one-step round in, so L <= levels.
    It is sound: a start that reaches both columns of p reaches all that p
    reaches. Reading L <= levels, each round lowers at least as far as a
    one-step round from the same table, so it ends at the same fixpoint in
    no more rounds, and deep derivations close in far fewer.

    The starts of a round run in fieldmath.chunks of (design, start, pair,
    column) cells, each 2 bytes: an int8 of the round's array and of its
    np.maximum temporary. Every chunk reads the previous round's table and
    writes the next.
    """
    B, S, n = L.shape
    parts = chunks(S, 2 * B * len(pa) * n)
    for _ in range(n):
        table = L if levels is None else levels
        lowered = np.empty_like(L)
        for part in parts:
            step = np.maximum(np.maximum(L[:, part, pa], L[:, part, pb])[..., None], table[:, None])
            np.minimum(L[:, part], step.min(axis=2), out=lowered[:, part])
        if np.array_equal(lowered, L):
            break
        L = lowered
    return L


def _closure_types(cols: np.ndarray, q: int) -> np.ndarray:
    """Regime index (position in _TYPES) of each design in a (B, n, d) stack.

    A design is labelled by the strictest regime in which one of its d-subsets
    of columns reaches all n columns. Designs are cut into fieldmath.chunks of
    (design, start, pair, column) cells, 2 bytes each (_minimax_closure).

    At d = 2 the starts are the pairs, so the start table is the pair table:
    each pair starts at its one-step reach, and the closure squares it, all
    starts at once. At d > 2 the closure reads the one-step reach levels, a
    pair table there being C(n, 2) / C(n, d) times the start table; the starts
    run in chunks, and the sweep stops once every design of a chunk is type I.
    """
    B, n, d = cols.shape
    pa, pb = _subsets(n, 2).T
    starts = _subsets(n, d)
    square = d == 2
    types = np.full(B, len(_TYPES) - 1, dtype=np.int8)
    start_bytes = 2 * len(pa) * n  # per (design, start)
    for rows in chunks(B, start_bytes * len(starts)):
        chunk = types[rows]
        levels = _reach_levels(cols[rows], q, pa, pb)
        for tried in [slice(None)] if square else chunks(len(starts), len(chunk) * start_bytes):
            part = starts[tried]
            shape = (len(chunk), len(part), n)
            L = levels.copy() if square else np.full(shape, len(_TYPES) - 1, dtype=np.int8)
            L[:, np.arange(len(part))[:, None], part] = 0
            L = _minimax_closure(L, None if square else levels, pa, pb)
            np.minimum(chunk, L.max(axis=2).min(axis=1), out=chunk)
            if not chunk.any():
                break
    return types


def classify(gen: GeneratorSet) -> RecursiveType:
    """Strongest recursive type of the design, or NOT_RECURSIVE.

    Tries every (n-m)-subset of the n columns as the starting set; the
    successful start need not be the defining independent columns. Dependent
    subsets need no filter: they cannot reach every column.
    """
    return _TYPES[_closure_types(gen.column_vectors()[None], gen.q)[0]]


def _classify_stack(C: np.ndarray, q: int) -> np.ndarray:
    """`classify` of every set in a (B, m, 2) q^2-run coefficient stack.

    Returns a (B,) object array of RecursiveType. The rows of C must be valid
    reduced coefficients, as `_q2_coefficients` builds them: no
    GeneratorSet is built, so nothing checks them.
    """
    return np.array(_TYPES, dtype=object)[_closure_types(column_vectors(C), q)]
