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

- Reach table: for each unordered column pair and coefficient pair, the
  column that c1*w_a + c2*w_b lands on, if any. Each regime keeps the
  coefficients it allows, which gives a boolean table of the columns each
  pair yields.
- Closure: the reached columns of every (design, start) grow in rounds of
  "pairs with both columns reached" times the reach table, until a
  fixpoint; each round before it adds a column, so n rounds suffice.
- Nesting: the regimes run strictest first. A design that one regime
  labels drops out, and the others carry their reached sets into the next
  regime, whose closure contains them.
- Starts run in bounded chunks. A design keeps the strictest regime any
  chunk has reached so far, later chunks try only stricter regimes, and
  the sweep stops once every design is type I.

No start set is rank-checked. A dependent d-subset spans a proper subspace,
its closure stays inside it, and it misses a unit column, so it can never
label a design; it only costs work. For d = 2 there are none: no two
columns of a generator set are proportional, so every pair is independent.
"""

import enum
from itertools import combinations

import numpy as np

from .designs import GeneratorSet, column_vectors
from .errors import InputError

# target codes per design chunk of a stack: bounds the (B, q-1, q-1, P, d) arrays
_CHUNK_TARGETS = 1 << 16
# (design, start, pair) cells per start chunk: bounds the (B, S, P) round arrays
_CHUNK_CELLS = 1 << 18


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


def _coefficient_levels(q: int) -> tuple:
    """(level, mask) pairs: the (q-1, q-1) mask holds the coefficients
    (c1, c2) whose strictest regime is level 0, 1 or 2.

    Entry (c1 - 1, c2 - 1) forms c1*w_a + c2*w_b from the column pair {a, b}.
    The pair is unordered: a step may take either column as w1, so type II
    needs a unit coefficient on either column.
    """
    unit = np.zeros(q - 1, dtype=bool)
    unit[[0, q - 2]] = True
    either = unit[:, None] | unit[None, :]
    both = unit[:, None] & unit[None, :]
    return (2, ~either), (1, either & ~both), (0, both)


def _subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) array of the k-subsets of range(n), in lexicographic order."""
    return np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)


def _reach_levels(cols: np.ndarray, q: int, pa, pb) -> np.ndarray:
    """(B, P, n) strictest regime in which the column pair p yields column j.

    P runs over the unordered column pairs (pa[p], pb[p]), a < b; 3 marks a
    column the pair cannot yield. Each target c1*w_a + c2*w_b is found among its own set's
    columns by a searchsorted on per-set offset codes, so no q^d-sized table
    is built for d > 2.
    """
    B, n, d = cols.shape
    pows = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    scaled = (cols[:, None] * np.arange(1, q)[None, :, None, None]) % q
    targets = (scaled[:, :, None, pa] + scaled[:, None, :, pb]) % q @ pows
    offsets = np.arange(B, dtype=np.int64) * q**d
    flat = (cols @ pows + offsets[:, None]).ravel()
    order = np.argsort(flat)
    keys = flat[order]
    targets += offsets[:, None, None, None]
    pos = np.minimum(np.searchsorted(keys, targets), len(keys) - 1)
    # a hit at flat position b*n + j gives column j; a miss gives n, a spare slot
    index = np.where(keys[pos] == targets, order[pos] % n, n)

    levels = np.full((B, len(pa), n + 1), 3, dtype=np.int8)
    rows = np.arange(B)[:, None, None]
    pairs = np.arange(len(pa))[None, None, :]
    # the pair's columns are independent, so a column they yield has one
    # coefficient pair and gets one level
    for level, mask in _coefficient_levels(q):
        levels[rows, pairs, index[:, mask]] = level
    return levels[:, :, :n]


def _saturate(reached, reach, pa, pb):
    """Fixpoint of the (B, S, n) reached masks under a (B, P, n) boolean reach table.

    Each round adds every column that some pair (pa[p], pb[p]) of reached
    columns yields, so it takes at most n rounds.
    """
    for _ in range(reached.shape[2]):
        # a boolean product ORs over the pairs: it saturates, so no pair
        # count can wrap it back to zero the way a uint8 sum past 255 would
        grown = reached | ((reached[:, :, pa] & reached[:, :, pb]) @ reach)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return reached


def _lower_types(types, levels, starts, pa, pb):
    """Lower each design's regime index in `types` to the strictest regime
    in which one of the (S, d) `starts` reaches all of its columns.

    Only regimes stricter than a design's current index are tried.
    """
    B, _, n = levels.shape
    reached = np.zeros((B, len(starts), n), dtype=bool)
    reached[:, np.arange(len(starts))[:, None], starts] = True
    live = np.arange(B)
    for regime in range(3):
        live = live[types[live] > regime]
        if not len(live):
            break
        # a stricter regime's fixpoint is a valid start for the next one
        R = _saturate(reached[live], levels[live] <= regime, pa, pb)
        done = R.all(axis=2).any(axis=1)
        types[live[done]] = regime
        reached[live] = R
        live = live[~done]


def _closure_chunk(cols: np.ndarray, starts: np.ndarray, q: int, pa, pb) -> np.ndarray:
    B = len(cols)
    levels = _reach_levels(cols, q, pa, pb)
    types = np.full(B, len(_TYPES) - 1, dtype=np.int8)
    step = max(1, _CHUNK_CELLS // (B * len(pa)))
    for lo in range(0, len(starts), step):
        _lower_types(types, levels, starts[lo : lo + step], pa, pb)
        if not types.any():
            break
    return types


def _closure_types(cols: np.ndarray, q: int) -> np.ndarray:
    """Regime index (position in _TYPES) of each design in a (B, n, d) stack.

    A design is labelled by the strictest regime in which one of its d-subsets
    of columns reaches all n columns. The stack is cut into design chunks that
    bound the target arrays and keep the offset codes in int64, and the starts
    into chunks that bound the per-round arrays.
    """
    B, n, d = cols.shape
    if q**d >= 2**62:
        raise InputError(f"q^d = {q}^{d} column codes do not fit in 64 bits")
    pa, pb = _subsets(n, 2).T
    starts = _subsets(n, d)
    per_set = (n * (n - 1) // 2) * (q - 1) ** 2 * d
    step = max(1, min(_CHUNK_TARGETS // per_set, 2**62 // q**d))
    chunks = [
        _closure_chunk(cols[lo : lo + step], starts, q, pa, pb) for lo in range(0, B, step)
    ]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int8)


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
