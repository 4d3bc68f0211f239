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
  independent, so j has at most one coefficient pair. Cramer's rule on a
  nonzero 2x2 minor of (w_a, w_b) gives it, the other coordinates confirm
  it, and a (q, q) table gives its regime; a zero coefficient or a failed
  check gives 3.
- Closure: L[j] is the strictest regime in which a start reaches column j,
  0 on the start and 3 elsewhere. Each round lowers L[j] to the least, over
  the pairs {a, b}, of max(L[a], L[b], level of {a, b} for j). The set
  {j : L[j] <= r} after t rounds is regime r's reached set after t rounds,
  so n rounds reach every regime's fixpoint at once. A design's label is
  the min over its starts of the max over its columns.
- Starts run in chunks that bound the (design, start, pair, column) cells
  of a round. A design keeps the strictest label of any chunk so far, and
  the sweep stops once every design of a chunk is type I.

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
def _level_table(q: int) -> np.ndarray:
    """level[c1, c2], read-only and cached: the strictest regime of the step
    c1*w_a + c2*w_b, 3 when a coefficient is 0.

    The pair is unordered: a step may take either column as w1, so type II
    needs a unit coefficient on either column.
    """
    unit = np.zeros(q, dtype=np.int8)
    unit[[1, q - 1]] = 1
    level = 2 - unit[:, None] - unit[None, :]
    level[0] = level[:, 0] = 3
    level.setflags(write=False)
    return level


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) read-only array of the k-subsets of range(n), in lexicographic order."""
    out = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    out.setflags(write=False)
    return out


def _span_coordinates(cols: np.ndarray, q: int, pa, pb) -> np.ndarray:
    """(B, P, n) int64: lambda q + mu where column j = lambda w_a + mu w_b, for each column
    pair p = (pa[p], pb[p]) of a (B, n, d) stack, or -1 where j is off the pair's span.

    The pair is independent, so some 2x2 minor of (w_a, w_b) is nonzero: Cramer's rule on
    the first gives (lambda, mu), and at d > 2 the other coordinates confirm them. Pairs
    run in fieldmath.chunks of their (B, C(d,2)) minors and (B, n, d) checks.
    """
    B, n, d = cols.shape
    r, s = _subsets(d, 2).T
    rows, out = np.arange(B)[:, None], np.empty((B, len(pa), n), dtype=np.int64)
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
        out[:, part] = c1 * q + c2
        if d > 2:  # the pair spans the plane at d = 2: nothing is left to confirm
            off = c1[..., None] * wa[:, :, None] + c2[..., None] * wb[:, :, None] - cols[:, None]
            out[:, part][(off % q).any(axis=3)] = -1
    return out


def _reach_levels(cols: np.ndarray, q: int, pa, pb) -> np.ndarray:
    """(B, P, n) strictest regime in which the column pair (pa[p], pb[p]), a < b, yields
    column j; 3 marks a column the pair cannot yield (_span_coordinates -1)."""
    at = _span_coordinates(cols, q, pa, pb)
    return np.where(at < 0, 3, _level_table(q).ravel()[at]).astype(np.int8)


def _minimax_closure(L: np.ndarray, levels: np.ndarray, pa, pb) -> np.ndarray:
    """Fixpoint of the (B, S, n) start levels L under a (B, P, n) reach-level table.

    Each round lowers L[j] to the least max(L[a], L[b], levels[p, j]) over
    the pairs p = (a, b). Thresholded at any regime it is that regime's
    boolean round, so it takes at most n rounds.
    """
    for _ in range(L.shape[2]):
        step = np.maximum(np.maximum(L[:, :, pa], L[:, :, pb])[..., None], levels[:, None])
        lowered = np.minimum(L, step.min(axis=2))
        if np.array_equal(lowered, L):
            break
        L = lowered
    return L


def _closure_types(cols: np.ndarray, q: int) -> np.ndarray:
    """Regime index (position in _TYPES) of each design in a (B, n, d) stack.

    A design is labelled by the strictest regime in which one of its d-subsets
    of columns reaches all n columns. Designs and then starts are cut into
    fieldmath.chunks of (design, start, pair, column) cells, each 2 bytes: an
    int8 of a round's array and of its np.maximum temporary.
    """
    B, n, d = cols.shape
    pa, pb = _subsets(n, 2).T
    starts = _subsets(n, d)
    types = np.full(B, len(_TYPES) - 1, dtype=np.int8)
    start_bytes = 2 * len(pa) * n  # per (design, start)
    for rows in chunks(B, start_bytes * len(starts)):
        chunk = types[rows]
        levels = _reach_levels(cols[rows], q, pa, pb)
        for tried in chunks(len(starts), len(chunk) * start_bytes):
            part = starts[tried]
            L = np.full((len(chunk), len(part), n), len(_TYPES) - 1, dtype=np.int8)
            L[:, np.arange(len(part))[:, None], part] = 0
            L = _minimax_closure(L, levels, pa, pb)
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
