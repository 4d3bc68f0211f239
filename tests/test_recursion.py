"""Recursive-type classification and the reduced-space tallies.

The frozen count tuples below are cumulative (a type-I design is also
counted as type II and III). The q=5 cells and q=7 n=3..5 were computed
independently with a separate prototype implementation of the closure rule
before this package existed. The q=7 n=6..8 tuples were taken from the
`count_recursive` of the per-start closure that the stacked closure
replaced (the oracle `_closure_reaches_all` below); criterion 3 covers these
cells too, but it fails by design, so it cannot guard them.

The stacked closure is checked against that per-start closure as an oracle,
and its reach levels against the coefficient-target search they replaced
(`_target_reach_levels` below).
"""

import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from wtdesigns import (
    GeneratorSet,
    InputError,
    RecursiveType,
    classify,
    rank_mod,
)
from wtdesigns.designs import column_vectors
from wtdesigns.optimal import _q2_coefficients, count_recursive
from wtdesigns import recursion
from wtdesigns.recursion import _classify_stack, _minimax_closure, _reach_levels, _subsets

FROZEN_COUNTS = {
    (5, 3): (2, 8, 8),
    (5, 4): (6, 24, 24),
    (5, 5): (20, 32, 32),
    (5, 6): (16, 16, 16),
    (7, 3): (2, 14, 18),
    (7, 4): (6, 133, 135),
    (7, 5): (20, 540, 540),
    (7, 6): (70, 1215, 1215),
    (7, 7): (252, 1458, 1458),
    (7, 8): (267, 729, 729),
}

CLOSURE_REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "closure.json"
)


# --- oracle: one closure per start set and regime, one round at a time ---------

def _closure_reaches_all(cols, start, c1_vals, c2_vals, q) -> bool:
    """Saturate the reachable set from `start`; True if all columns land."""
    n, d = cols.shape
    pows = q ** np.arange(d - 1, -1, -1)
    code_of = {int(c): i for i, c in enumerate(cols @ pows)}
    reached = np.zeros(n, dtype=bool)
    reached[list(start)] = True
    c1 = np.asarray(sorted(c1_vals), dtype=np.int64)
    c2 = np.asarray(sorted(c2_vals), dtype=np.int64)
    while reached.sum() < n:
        V = cols[np.flatnonzero(reached)]
        t = len(V)
        combo = (
            c1[:, None, None, None, None] * V[None, :, None, None, :]
            + c2[None, None, :, None, None] * V[None, None, None, :, :]
        ) % q
        codes = combo @ pows
        # the two source columns must be distinct
        same = np.eye(t, dtype=bool)
        codes = np.where(same[None, :, None, :], -1, codes)
        added = False
        for code in np.unique(codes):
            idx = code_of.get(int(code))
            if idx is not None and not reached[idx]:
                reached[idx] = True
                added = True
        if not added:
            return False
    return True


def _oracle_classify(gen: GeneratorSet) -> RecursiveType:
    q = gen.q
    cols = gen.column_vectors()
    n, d = cols.shape
    starts = [
        s for s in combinations(range(n), d) if rank_mod(cols[list(s)], q) == d
    ]
    regimes = (
        (RecursiveType.TYPE_I, {1, q - 1}, {1, q - 1}),
        (RecursiveType.TYPE_II, {1, q - 1}, set(range(1, q))),
        (RecursiveType.TYPE_III, set(range(1, q)), set(range(1, q))),
    )
    for label, c1_vals, c2_vals in regimes:
        if any(_closure_reaches_all(cols, s, c1_vals, c2_vals, q) for s in starts):
            return label
    return RecursiveType.NOT_RECURSIVE


def _cell(q, n):
    return _q2_coefficients(q, n)


# --- oracle: reach levels by searching every coefficient target ----------------------

def _target_reach_levels(cols, q, pa, pb):
    """(B, P, n) reach levels: every target c1*w_a + c2*w_b, for all (q-1)^2
    coefficient pairs, found among its own set's columns by a searchsorted on
    per-set offset codes."""
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

    unit = np.zeros(q - 1, dtype=bool)
    unit[[0, q - 2]] = True
    either = unit[:, None] | unit[None, :]
    both = unit[:, None] & unit[None, :]
    levels = np.full((B, len(pa), n + 1), 3, dtype=np.int8)
    rows = np.arange(B)[:, None, None]
    pairs = np.arange(len(pa))[None, None, :]
    for level, mask in ((2, ~either), (1, either & ~both), (0, both)):
        levels[rows, pairs, index[:, mask]] = level
    return levels[:, :, :n]


def _assert_same_reach_levels(cols, q):
    pa, pb = _subsets(cols.shape[1], 2).T
    got = _reach_levels(cols, q, pa, pb)
    assert got.dtype == np.int8
    assert np.array_equal(got, _target_reach_levels(cols, q, pa, pb))


# --- oracle: span coordinates by trying every coefficient pair --------------------

def _brute_coordinates(cols, q, pa, pb):
    """(lambda, mu) of each column j of a (B, n, d) stack against each pair (pa[p], pb[p]):
    the one of all q^2 coefficient pairs with lambda w_a + mu w_b = w_j, or (-1, -1)."""
    lam, mu = np.divmod(np.arange(q * q), q)
    combo = (lam[:, None] * cols[:, pa, None] + mu[:, None] * cols[:, pb, None]) % q
    hit = (combo[:, :, :, None] == cols[:, None, None]).all(axis=4)  # (B, P, q^2, n)
    assert hit.sum(axis=2).max(initial=0) <= 1  # an independent pair: at most one
    found, first = hit.any(axis=2), hit.argmax(axis=2)
    return np.where(found, lam[first], -1), np.where(found, mu[first], -1)


def _assert_coordinates_match(cols, q):
    pa, pb = _subsets(cols.shape[1], 2).T
    for rows in range(0, max(len(cols), 1), 128):
        block = cols[rows : rows + 128]
        lam, mu = recursion._span_coordinates(block, q, pa, pb)
        want_lam, want_mu = _brute_coordinates(block, q, pa, pb)
        on = want_lam >= 0  # mu is not read off the span
        assert np.array_equal(lam, want_lam) and np.array_equal(mu[on], want_mu[on])


# every set of the q <= 7 cells, and 40 seeded sets of each q = 11, 13 cell
PLANE_CELLS = [(3, n, None) for n in (3, 4)] + [(5, n, None) for n in range(3, 7)]
PLANE_CELLS += [(7, n, None) for n in range(3, 9)]
PLANE_CELLS += [(11, n, 40) for n in range(4, 8)] + [(13, n, 40) for n in range(4, 7)]


@pytest.mark.parametrize("q,n,sample", PLANE_CELLS)
def test_plane_coordinates_match_every_coefficient_pair(q, n, sample):
    # the d = 2 cross products, stacked and one set at a time
    C = _cell(q, n)
    if sample:
        C = C[np.random.default_rng(q * 10 + n).choice(len(C), sample, replace=False)]
    cols = column_vectors(C)
    _assert_coordinates_match(cols, q)
    for i in range(len(cols)):
        _assert_coordinates_match(cols[i : i + 1], q)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_minor_coordinates_match_every_coefficient_pair(q):
    # seeded d = 3 sets take the 2x2 minors: stacked per m, and one at a time
    for m in range(1, 6):
        gens = _random_sets(q, 3, m, 8, q * 100 + m)
        cols = np.stack([g.column_vectors() for g in gens])
        _assert_coordinates_match(cols, q)
        for i in range(len(cols)):
            _assert_coordinates_match(cols[i : i + 1], q)


# --- examples ---------------------------------------------------------------------

def test_classify_frozen_examples():
    assert classify(GeneratorSet(5, [[1, 1]])) is RecursiveType.TYPE_I
    assert classify(GeneratorSet(7, [[2, 2]])) is RecursiveType.TYPE_II
    assert classify(GeneratorSet(17, [[2, 4]])) is RecursiveType.TYPE_III


def test_classify_uses_any_independent_starting_pair():
    # (1, 2): x1 = 3*x3 + x2 with a unit coefficient, reachable only by
    # starting from a non-defining column pair
    assert classify(GeneratorSet(5, [[2, 3]])) in (
        RecursiveType.TYPE_I,
        RecursiveType.TYPE_II,
    )


def test_type_labels_render():
    assert str(RecursiveType.TYPE_I) == "TypeI"
    assert RecursiveType.NOT_RECURSIVE.value == "NotRecursive"


# --- the stacked closure against the oracle ---------------------------------------

ORACLE_CELLS = [(5, n, 1) for n in range(3, 7)] + [(7, n, 1) for n in range(3, 7)]
ORACLE_CELLS += [(7, 7, 23), (7, 8, 11)]


@pytest.mark.parametrize("q,n,stride", ORACLE_CELLS)
def test_stacked_closure_matches_oracle(q, n, stride):
    C = _cell(q, n)[::stride]
    got = _classify_stack(C, q)
    want = [_oracle_classify(GeneratorSet(q, c)) for c in C]
    assert list(got) == want


REACH_CELLS = [(5, n, 1) for n in range(3, 7)] + [(7, n, 1) for n in (4, 7, 8)]
REACH_CELLS += [(11, 5, 1), (13, 5, 9), (23, 4, 13)]


@pytest.mark.parametrize("q,n,stride", REACH_CELLS)
def test_reach_levels_match_target_search(q, n, stride):
    _assert_same_reach_levels(column_vectors(_cell(q, n)[::stride]), q)


def test_single_and_stacked_calls_agree():
    for q, n in ((5, 4), (7, 5), (11, 4)):
        C = _cell(q, n)[::7]
        assert [classify(GeneratorSet(q, c)) for c in C] == list(_classify_stack(C, q))


def _random_sets(q, d, m, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        try:
            out.append(GeneratorSet(q, rng.integers(0, q, size=(m, d))))
        except InputError:
            continue
    return out


def _has_dependent_start(gen):
    cols = gen.column_vectors()
    n, d = cols.shape
    return any(
        rank_mod(cols[list(s)], gen.q) < d for s in combinations(range(n), d)
    )


@pytest.mark.parametrize("q,m,seed", [(3, 4, 0), (3, 7, 1), (5, 4, 2), (5, 8, 3), (7, 5, 4)])
def test_dependent_starts_match_oracle(q, m, seed):
    # d = 3 sets with dependent 3-subsets among their columns: the oracle
    # skips them, the stacked closure tries them and must gain nothing
    gens = _random_sets(q, 3, m, 6, seed)
    assert any(_has_dependent_start(g) for g in gens)
    assert [classify(g) for g in gens] == [_oracle_classify(g) for g in gens]
    for g in gens:
        _assert_same_reach_levels(g.column_vectors()[None], q)


def _projective_plane(q):
    """Every point of PG(2, q) off the three unit points, first nonzero = 1."""
    rows = [
        v
        for v in np.ndindex(q, q, q)
        if sum(x != 0 for x in v) >= 2 and v[np.flatnonzero(v)[0]] == 1
    ]
    return np.array(rows, dtype=np.int64)


def test_wide_sets_match_oracle():
    # q=5, d=3: all 31 points of the plane, 465 column pairs, a 26-column
    # subset of them and every other point
    full = _projective_plane(5)
    wide = (full, full[[i for i in range(len(full)) if i % 6 != 0]])
    for C in wide + (full[::2],):
        gen = GeneratorSet(5, C)
        assert classify(gen) is _oracle_classify(gen)
        _assert_same_reach_levels(gen.column_vectors()[None], 5)
    assert all(GeneratorSet(5, C).n > 24 for C in wide)


@pytest.mark.parametrize("d", [3, 40])
def test_units_and_all_ones_are_not_recursive(d):
    # a step from two units has weight 2 and one from a unit and the all-ones
    # column weight d - 1 or d with a nonzero unit coefficient: for d > 2 no
    # pair yields any column. At d = 40, 3^40 would not fit a 64-bit column code.
    gen = GeneratorSet(3, [[1] * d])
    cols = gen.column_vectors()[None]
    pa, pb = _subsets(gen.n, 2).T
    assert (_reach_levels(cols, 3, pa, pb) == 3).all()
    assert classify(gen) is RecursiveType.NOT_RECURSIVE
    if d == 3:
        assert _oracle_classify(gen) is RecursiveType.NOT_RECURSIVE
        _assert_same_reach_levels(cols, 3)


def test_reach_levels_memory_is_bounded_in_d():
    # the (n, n, C(d,2)) minors of every column pair peaked at 155.3 MiB
    # (tracemalloc) at d = 60; cut into chunks of pairs, the call stays small
    import tracemalloc

    gen = GeneratorSet(3, [[1] * 60])
    tracemalloc.start()
    try:
        label = classify(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert label is RecursiveType.NOT_RECURSIVE
    assert peak < 16 * 2**20


def test_round_does_not_wrap_the_pair_count():
    # 256 reached pairs all yield column 24 in type I: a uint8 count of them would read 0
    n = 25
    pa, pb = np.triu_indices(n, 1)
    levels = np.full((1, len(pa), n), 3, dtype=np.int8)
    levels[0, np.flatnonzero(pb < n - 1)[:256], n - 1] = 0
    L = np.zeros((1, 1, n), dtype=np.int8)
    L[..., n - 1] = 3
    assert not _minimax_closure(L, levels, pa, pb).any()


def test_stack_matches_recorded_closure_verdicts():
    # every set of the six benchmark cells, against the recorded stdout codes
    with open(CLOSURE_REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    for cell, verdicts in ref["cells"].items():
        q, n = (int(v) for v in cell.split(","))
        got = "".join(ref["codes"][t.value] for t in _classify_stack(_cell(q, n), q))
        assert got == verdicts, cell


def test_empty_stack():
    assert _classify_stack(np.empty((0, 3, 2), dtype=np.int64), 5).shape == (0,)


# a q=7 n=5 design has 10 starts x 10 pairs x 5 columns = 500 cells, of 2
# bytes each: 500 puts one design with all of its starts in a round's chunk,
# 350 splits its starts 7 + 3, and 1 gives one start per chunk
@pytest.mark.parametrize("cells", [500, 350, 1])
def test_small_chunks_give_the_same_labels(budget, cells):
    # a design's label must be the strictest over all chunks of its starts
    C = _cell(7, 5)[::5]
    want = list(_classify_stack(C, 7))
    gens = _random_sets(5, 3, 5, 6, 7) + [GeneratorSet(5, _projective_plane(5)[::2])]
    want_gens = [_oracle_classify(g) for g in gens]
    calls = budget(2 * cells)
    assert list(_classify_stack(C, 7)) == want
    designs, *rest = calls
    assert designs == ("recursion", "_closure_types", len(C), [1] * len(C))
    # at d = 2 the closure cuts each design's starts, once for all of its rounds
    rounds = [sizes for _, caller, _, sizes in rest if caller == "_minimax_closure"]
    assert rounds == [{500: [10], 350: [7, 3], 1: [1] * 10}[cells]] * len(C)
    calls.clear()
    assert [classify(g) for g in gens] == want_gens
    # at d = 3 _closure_types cuts one design's starts between closures
    starts = [sizes for _, caller, count, sizes in calls if caller == "_closure_types" and count > 1]
    assert len(starts) == len(gens) and all(len(sizes) > 1 for sizes in starts)


# --- squared rounds at d = 2 against one-step rounds --------------------------------

def _seeded_starts(cols, q):
    """The reach levels of a (B, n, 2) stack and its start table: 0 on each
    pair's own columns and 3 elsewhere, as the one-step rounds begin."""
    n = cols.shape[1]
    pa, pb = _subsets(n, 2).T
    levels = _reach_levels(cols, q, pa, pb)
    L = np.full(levels.shape, 3, dtype=np.int8)
    p = np.arange(len(pa))
    L[:, p, pa] = L[:, p, pb] = 0
    return L, levels, pa, pb


def _assert_squaring_matches_one_step(C, q):
    # the one-step closure, still the one of d > 2, is the reference: the
    # squared rounds must reach the same start table and so the same labels
    cols = column_vectors(C)
    L, levels, pa, pb = _seeded_starts(cols, q)
    one_step = _minimax_closure(L, levels, pa, pb)
    squared = _minimax_closure(np.minimum(L, levels), None, pa, pb)
    assert np.array_equal(squared, one_step)
    labels = one_step.max(axis=2).min(axis=1)
    assert np.array_equal(recursion._closure_types(cols, q), labels)


SQUARING_CELLS = [(3, n) for n in (3, 4)] + [(5, n) for n in range(3, 7)]
SQUARING_CELLS += [(7, n) for n in range(3, 9)] + [(11, n) for n in (3, 4)]


@pytest.mark.parametrize("q,n", SQUARING_CELLS)
def test_squared_rounds_match_one_step_rounds(q, n):
    _assert_squaring_matches_one_step(_cell(q, n), q)


def test_squared_rounds_never_take_more_rounds(monkeypatch):
    # one fixpoint check per round: on every q=7 n=8 set the squared rounds
    # take no more rounds than the one-step rounds, and fewer in total
    rounds = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array_equal(self, a, b):
            rounds[-1] += 1
            return np.array_equal(a, b)

    monkeypatch.setattr(recursion, "np", CountingNumpy())
    cols = column_vectors(_cell(7, 8))
    L, levels, pa, pb = _seeded_starts(cols, 7)
    counts = []
    for i in range(len(cols)):
        rounds.append(0)
        _minimax_closure(L[i:i + 1], levels[i:i + 1], pa, pb)
        rounds.append(0)
        recursion._closure_types(cols[i:i + 1], 7)
        counts.append(rounds[-2:])
    one_step, squared = np.array(counts).T
    assert (squared <= one_step).all() and squared.sum() < one_step.sum()


def test_squared_rounds_cut_into_start_chunks(budget):
    # a q=7 n=8 set that takes six one-step rounds: 28 starts x 28 pairs x 8
    # columns, of 2 bytes each, cut five starts per chunk, and the cut rounds
    # must end where the uncut ones do
    C = _cell(7, 8)[721:722]
    calls = budget(2 * 5 * 28 * 8)
    _assert_squaring_matches_one_step(C, 7)
    cut = [sizes for _, caller, _, sizes in calls if caller == "_minimax_closure"]
    assert cut[-2:] == [[5] * 5 + [3]] * 2  # squared, then _closure_types


def test_one_design_round_stays_under_the_budget():
    # every point of the q=23 line: 276 starts x 276 pairs x 24 columns make
    # 3.7 MB for an uncut round and its temporary; the default budget cuts it
    import tracemalloc

    gen = GeneratorSet(23, [[1, c] for c in range(1, 23)])
    tracemalloc.start()
    try:
        label = classify(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    _assert_squaring_matches_one_step(gen.C[None], 23)
    assert label is RecursiveType.TYPE_I


# --- tallies ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n", sorted(FROZEN_COUNTS))
def test_counts_match_frozen_values(q, n):
    assert count_recursive(q, n) == FROZEN_COUNTS[(q, n)]


def test_counts_are_cumulative():
    for (q, n), (c1, c2, c3) in FROZEN_COUNTS.items():
        assert c1 <= c2 <= c3


def test_count_guards():
    with pytest.raises(InputError):
        count_recursive(11, 3)
    with pytest.raises(InputError):
        count_recursive(5, 2)
    with pytest.raises(InputError):
        count_recursive(5, 7)
