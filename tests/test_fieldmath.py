"""Prime validation, ranks over Z_q, and factorial enumeration."""

import numpy as np
import pytest

from wtdesigns import (
    InputError,
    check_odd_prime,
    enumerate_tuples,
    full_factorial,
    rank_mod,
)


def test_accepts_odd_primes():
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 97):
        assert check_odd_prime(q) == q


@pytest.mark.parametrize("bad", [1, 2, 4, 6, 9, 15, 21, 25, 49, 0, -3])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(InputError):
        check_odd_prime(bad)


def test_rejects_non_integers():
    for bad in (5.0, "7", None, True):
        with pytest.raises(InputError):
            check_odd_prime(bad)


def test_rejection_messages_name_the_violation():
    with pytest.raises(InputError, match="even"):
        check_odd_prime(4)
    with pytest.raises(InputError, match="composite 9 = 3"):
        check_odd_prime(9)
    with pytest.raises(InputError, match="at least 3"):
        check_odd_prime(1)


def test_rank_identity_and_zero():
    assert rank_mod(np.eye(4, dtype=np.int64), 5) == 4
    assert rank_mod(np.zeros((3, 3), dtype=np.int64), 5) == 0


def test_rank_sees_proportionality_mod_q_only():
    # (3, 9) = (3, 2) mod 7, so the rows are proportional over the field
    # even though the integer matrix has rank 2
    M = [[1, 3], [3, 2]]
    assert np.linalg.matrix_rank(np.array(M)) == 2
    assert rank_mod(M, 7) == 1
    assert rank_mod([[1, 2], [2, 4]], 5) == 1
    assert rank_mod([[1, 1], [1, 2]], 3) == 2


def test_rank_rectangular():
    assert rank_mod([[1, 0, 2], [0, 1, 3]], 5) == 2
    assert rank_mod([[1], [2], [4]], 7) == 1
    assert rank_mod([[2, 4, 1]], 5) == 1


def test_rank_negative_entries_reduce_mod_q():
    assert rank_mod([[-1, 1], [4, -4]], 5) == 1  # -1 = 4 mod 5


def test_rank_refuses_entries_that_are_not_integers():
    for M in ([[1.5, 1], [0, 1]], [[True, False]], [["1", "2"]]):
        with pytest.raises(InputError, match="integer"):
            rank_mod(M, 5)


BAD_LEVELS = [5.0, 4, 9, 2, 1, True, "5"]


@pytest.mark.parametrize("q", BAD_LEVELS)
def test_rank_refuses_level_counts_that_are_not_odd_primes(q):
    with pytest.raises(InputError, match="level count"):
        rank_mod([[2, 0], [0, 1]], q)


@pytest.mark.parametrize("q", BAD_LEVELS)
def test_enumerate_tuples_refuses_level_counts_that_are_not_odd_primes(q):
    with pytest.raises(InputError, match="level count"):
        enumerate_tuples(q, 2)


@pytest.mark.parametrize("q", BAD_LEVELS)
def test_full_factorial_refuses_level_counts_that_are_not_odd_primes(q):
    with pytest.raises(InputError, match="level count"):
        full_factorial(q, 1)


def test_enumerate_tuples_order():
    tups = list(enumerate_tuples(3, 2))
    assert tups == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]


def test_enumerate_tuples_rejects_empty():
    with pytest.raises(InputError):
        enumerate_tuples(5, 0)


def test_tuple_lengths_that_are_not_integers_are_input_errors():
    for call in (lambda: enumerate_tuples(5, 2.0), lambda: full_factorial(5, 2.0)):
        with pytest.raises(InputError, match="must be an integer"):
            call()


def test_full_factorial_matches_tuple_order():
    arr = full_factorial(5, 3)
    assert arr.shape == (125, 3)
    assert [tuple(r) for r in arr] == list(enumerate_tuples(5, 3))


def test_full_factorial_columns_balanced():
    arr = full_factorial(7, 2)
    for j in range(2):
        counts = np.bincount(arr[:, j], minlength=7)
        assert (counts == 7).all()


# --- the one memory budget ----------------------------------------------------

def _spans(slices):
    return [(s.start, s.stop) for s in slices]


def test_chunks_cut_the_range_in_budget_sized_slices(monkeypatch):
    from wtdesigns import fieldmath

    assert fieldmath._CHUNK_BYTES == 2**19
    assert _spans(fieldmath.chunks(10, 2**17)) == [(0, 4), (4, 8), (8, 10)]
    assert _spans(fieldmath.chunks(3, 2**20)) == [(0, 1), (1, 2), (2, 3)]  # at least one item
    assert _spans(fieldmath.chunks(5, 1)) == [(0, 5)]
    assert fieldmath.chunks(0, 8) == []
    monkeypatch.setattr(fieldmath, "_CHUNK_BYTES", 1)
    assert _spans(fieldmath.chunks(3, 1)) == [(0, 1), (1, 2), (2, 3)]


def _blocks(count, step):
    return [step] * (count // step) + ([count % step] if count % step else [])


def test_default_budget_keeps_the_chunk_boundaries(budget):
    # the steps of the separate sizings the budget replaced: the closure held
    # 2^18 (design, start, pair, column) cells, and the pair kernel 2^19
    # bytes of float64 coefficients per block
    from wtdesigns import GeneratorSet, count_recursive, expand
    from wtdesigns.aberration import _pattern_by_pairs

    calls = budget(2**19)
    count_recursive(7, 8)  # 729 sets of 28 starts x 28 pairs x 8 columns
    step = 2**18 // (28 * 28 * 8)
    assert step == 41
    # each chunk of sets cuts its 28 column pairs (_span_coordinates), then its 28 starts
    assert calls == [("recursion", 729, _blocks(729, 41))] + [("recursion", 28, [28])] * 36
    calls.clear()
    _pattern_by_pairs(expand(GeneratorSet(5, [[1, 1, 1, 1]])))  # 625 runs, 21 degrees
    step = 2**19 // (8 * 21)
    assert step == 3120
    assert calls == [
        ("aberration", 625 * 626 // 2, _blocks(625 * 626 // 2, step)),
        ("aberration", 625 * 625, _blocks(625 * 625, step)),
    ]


def test_a_one_byte_budget_changes_no_result(monkeypatch, budget):
    # one item per chunk in every chunked loop gives the default's results;
    # theorems 1 and 2 at a wrong centre, so that they report sets
    from wtdesigns import (
        GeneratorSet, beta_pattern, build_design, count_recursive, optimal, search_q2,
        search_shifts, verify_theorem,
    )

    def results():
        monkeypatch.setattr(optimal, "center_preimage", lambda q: 0)
        wrong = [verify_theorem(1, 5, 4), verify_theorem(2, 5, 4), verify_theorem(2, 7, 4)]
        monkeypatch.setattr(optimal, "center_preimage", center_preimage)
        gen = GeneratorSet(5, [[1, 2], [2, 1]])
        return wrong + [
            verify_theorem(1, 5, 4),
            verify_theorem(2, 5, 4),
            search_q2(5, 4).to_json_dict(),
            search_q2(7, 4).to_json_dict(),
            count_recursive(7, 4),
            search_shifts(gen, "williams"),
            search_shifts(gen, "linear", 6),
            beta_pattern(build_design(gen, [1, 3], "williams")).values,
        ]

    center_preimage = optimal.center_preimage
    want = results()
    assert all(want[:3])
    calls = budget(1)
    assert results() == want
    assert {module for module, _, _ in calls} == {"aberration", "optimal", "recursion"}
    assert {size for _, _, sizes in calls for size in sizes} == {1}
