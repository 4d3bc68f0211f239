"""Design containers, generator sets, level permutations, file round-trips."""

import numpy as np
import pytest

from wtdesigns import (
    CapExceededError,
    Design,
    GeneratorSet,
    InputError,
    add_constant,
    expand,
    full_factorial,
    is_mirror_symmetric,
    linear_permute,
    load_design,
    same_design,
    save_design,
    strength,
    williams,
    williams_inverse,
    williams_value,
)
from wtdesigns.designs import (
    _first_proportional_pair,
    expand_stack,
    mirror_symmetric_stack,
    shift_stack,
    williams_levels,
    williams_table,
)


# --- containers -----------------------------------------------------------

def test_design_validates_levels():
    Design(5, [[0, 4], [2, 3]])
    with pytest.raises(InputError):
        Design(5, [[0, 5]])
    with pytest.raises(InputError):
        Design(5, [[-1, 0]])
    with pytest.raises(InputError):
        Design(4, [[0, 1]])
    with pytest.raises(InputError):
        Design(5, [])


def test_design_rows_are_frozen():
    d = Design(3, [[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        d.rows[0, 0] = 1
    assert d.runs == 2
    assert d.n_factors == 2


def test_generator_set_shape_and_reduction():
    gen = GeneratorSet(5, [[6, 1]])  # 6 reduces to 1 mod 5
    assert gen.C.tolist() == [[1, 1]]
    assert (gen.m, gen.n) == (1, 3)
    gen2 = GeneratorSet(5, [[1, 1], [1, 2]])
    assert (gen2.m, gen2.n) == (2, 4)
    assert gen2.column_vectors().tolist() == [[1, 0], [0, 1], [1, 1], [1, 2]]


def test_generator_set_rejects_zero_rows():
    with pytest.raises(InputError, match="nonzero"):
        GeneratorSet(5, [[0, 0]])
    with pytest.raises(InputError, match="nonzero"):
        GeneratorSet(5, [[5, 10]])  # zero after reduction mod 5


def test_generator_set_rejects_proportional_columns():
    # dependent columns (1,2) and (2,4) point in the same direction mod 5
    with pytest.raises(InputError, match="proportional"):
        GeneratorSet(5, [[1, 2], [2, 4]])
    # a dependent column may not copy an independent one either
    with pytest.raises(InputError, match="proportional"):
        GeneratorSet(5, [[1, 0]])
    GeneratorSet(5, [[1, 1], [1, 2]])  # distinct directions are fine


def _proportional_pairs(vectors, q):
    """Oracle: pairs (i, j) of rows that are proportional mod q (includes zero rows)."""
    V = np.asarray(vectors, dtype=np.int64) % q
    # rows u, v are proportional over the field iff every 2x2 minor vanishes
    outer = V[:, None, :, None] * V[None, :, None, :]
    minors = (outer - outer.transpose(0, 1, 3, 2)) % q
    prop = (minors == 0).all(axis=(2, 3))
    out = []
    for i in range(len(V)):
        for j in range(i + 1, len(V)):
            if prop[i, j]:
                out.append((i, j))
    return out


@pytest.mark.parametrize("q", [3, 5, 7])
def test_first_proportional_pair_equals_the_minor_oracle(q):
    # random nonzero rows, with repeated directions drawn often enough that
    # most sets hold one or more proportional pairs, some none
    rng = np.random.default_rng(q)
    found = 0
    for _ in range(300):
        n, d = rng.integers(2, 8), rng.integers(1, 4)
        V = rng.integers(0, q, size=(n, d))
        V[~V.any(axis=1), rng.integers(d)] = 1  # rows must be nonzero
        copies = rng.integers(n, size=rng.integers(0, 3))
        V[copies] = V[rng.integers(n, size=len(copies))] * rng.integers(1, q, size=(len(copies), 1))
        want = _proportional_pairs(V, q)
        assert _first_proportional_pair(V, q) == (want[0] if want else None), V.tolist()
        found += bool(want)
    assert 100 < found < 300


def test_proportional_check_stays_small_on_many_columns():
    # 61 columns of 60 coordinates: the minor oracle holds (n, n, d, d)
    # products, over 300 MiB at its peak; one direction per column does not
    import tracemalloc

    tracemalloc.start()
    try:
        GeneratorSet(3, [[1] * 60])
        with pytest.raises(InputError, match="^columns 1 and 61 are proportional mod 3;"):
            GeneratorSet(3, [[1] + [0] * 59])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --- expansion and permutation ---------------------------------------------

def test_expand_small_design_rows():
    d = expand(GeneratorSet(3, [[1, 1]]))
    assert d.rows.tolist() == [
        [0, 0, 0], [0, 1, 1], [0, 2, 2],
        [1, 0, 1], [1, 1, 2], [1, 2, 0],
        [2, 0, 2], [2, 1, 0], [2, 2, 1],
    ]


def test_expand_respects_cap(monkeypatch):
    from wtdesigns import designs

    monkeypatch.setattr(designs, "RUN_CAP", 24)
    with pytest.raises(CapExceededError, match="run count 25 exceeds the cap of 24"):
        expand(GeneratorSet(5, [[1, 1]]))
    monkeypatch.setattr(designs, "RUN_CAP", 25)
    assert expand(GeneratorSet(5, [[1, 1]])).runs == 25


def test_linear_permute_shifts_dependent_columns_only():
    gen = GeneratorSet(5, [[1, 1]])
    d0 = expand(gen)
    d2 = linear_permute(gen, [2])
    assert np.array_equal(d2.rows[:, :2], d0.rows[:, :2])
    assert np.array_equal(d2.rows[:, 2], (d0.rows[:, 2] + 2) % 5)


def test_linear_permute_checks_shift_length():
    with pytest.raises(InputError):
        linear_permute(GeneratorSet(5, [[1, 1]]), [1, 2])


def test_stacked_builders_match_single_designs():
    gens = [GeneratorSet(5, C) for C in ([[1, 1], [1, 2]], [[1, 3], [1, 4]], [[2, 1], [1, 2]])]
    expanded = expand_stack(np.stack([g.C for g in gens]), 5)
    assert [e.tolist() for e in expanded] == [expand(g).rows.tolist() for g in gens]
    # one design at every shift, then the Williams levels
    shifts = np.array([[0, 0], [1, 3], [4, 2]])
    shifted = shift_stack(expanded[:1], shifts, 5)
    for rows, b in zip(shifted, shifts):
        design = linear_permute(gens[0], b)
        assert np.array_equal(rows, design.rows)
        assert np.array_equal(williams_levels(rows, 5), williams(design).rows)
    # a stack of designs, each at its own shift
    for rows, g, b in zip(shift_stack(expanded, shifts, 5), gens, shifts):
        assert np.array_equal(rows, linear_permute(g, b).rows)


# --- the Williams transformation -------------------------------------------

def test_williams_tables_frozen():
    assert williams_table(5).tolist() == [0, 2, 4, 3, 1]
    assert williams_table(7).tolist() == [0, 2, 4, 6, 5, 3, 1]


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17])
def test_williams_is_a_bijection_with_inverse(q):
    image = [williams_value(x, q) for x in range(q)]
    assert sorted(image) == list(range(q))
    for x in range(q):
        assert williams_inverse(williams_value(x, q), q) == x
        assert williams_value(williams_inverse(x, q), q) == x


def test_williams_range_check():
    with pytest.raises(InputError):
        williams_value(7, 7)
    with pytest.raises(InputError):
        williams_inverse(-1, 7)


def test_williams_applies_elementwise():
    d = Design(5, [[0, 1], [3, 4]])
    w = williams(d)
    assert w.rows.tolist() == [[0, 2], [3, 1]]


def test_add_constant_wraps():
    d = Design(5, [[4, 0]])
    assert add_constant(d, 2).rows.tolist() == [[1, 2]]


def test_integer_input_is_refused_unless_it_is_an_integer():
    gen = GeneratorSet(5, [[1, 1]])
    d = Design(5, [[0, 1]])
    for make in (
        lambda: GeneratorSet(5, [[1.5, 1]]),
        lambda: GeneratorSet(5, [["2", "1"]]),
        lambda: GeneratorSet(5, [[True, True]]),
        lambda: Design(5, [[4.9, 1]]),
        lambda: Design(5, np.ones((2, 2))),  # integer-valued floats too
        lambda: linear_permute(gen, [1.7]),
        lambda: add_constant(d, 1.5),
        lambda: add_constant(d, True),
        lambda: williams_value(2.5, 5),
        lambda: williams_inverse(2.0, 5),
        lambda: strength(d, 2.5),
    ):
        with pytest.raises(InputError, match="integer"):
            make()
    # integer dtypes of any width pass, as their int64 values
    assert GeneratorSet(5, np.array([[6, 1]], dtype=np.uint8)).C.tolist() == [[1, 1]]
    assert Design(5, np.array([[4, 1]], dtype=np.int8)).rows.dtype == np.int64
    assert linear_permute(gen, np.array([2], dtype=np.int16)).rows.tolist() == (
        linear_permute(gen, [2]).rows.tolist()
    )
    assert add_constant(d, np.int32(2)).rows.tolist() == [[2, 3]]
    assert williams_value(np.int64(3), 5) == 3


# --- strength ---------------------------------------------------------------

def test_strength_of_full_factorial():
    assert strength(Design(3, full_factorial(3, 2))) == 2


def test_strength_of_regular_fraction():
    d = expand(GeneratorSet(5, [[1, 1]]))
    assert strength(d) == 2
    assert strength(d, t_max=1) == 1


def test_strength_unbalanced_is_zero():
    assert strength(Design(3, [[0, 0], [0, 1], [1, 2]])) == 0
    assert strength(Design(3, [[0, 0], [1, 1]])) == 0  # N not divisible by q


def test_strength_rejects_large_t_max():
    with pytest.raises(InputError):
        strength(Design(3, [[0, 0]]), t_max=3)


def test_strength_rejects_negative_t_max():
    d = expand(GeneratorSet(5, [[1, 1]]))
    with pytest.raises(InputError, match=r"t_max=-3 out of range 0\.\.3"):
        strength(d, -3)
    assert strength(d, 0) == 0


# --- comparison and symmetry -----------------------------------------------

def test_same_design_ignores_row_order():
    a = Design(5, [[0, 1], [2, 3], [4, 4]])
    b = Design(5, [[4, 4], [0, 1], [2, 3]])
    assert same_design(a, b)
    c = Design(5, [[0, 1], [2, 3], [4, 3]])
    assert not same_design(a, c)


def test_same_design_requires_matching_shape():
    with pytest.raises(InputError):
        same_design(Design(5, [[0]]), Design(5, [[0], [1]]))
    with pytest.raises(InputError):
        same_design(Design(5, [[0]]), Design(7, [[0]]))


def test_mirror_symmetry_examples():
    from wtdesigns import build_design, optimal_shift_williams

    gen = GeneratorSet(7, [[2, 2]])
    symmetric = build_design(gen, optimal_shift_williams(gen), "williams")
    assert is_mirror_symmetric(symmetric)
    assert not is_mirror_symmetric(expand(GeneratorSet(5, [[1, 1]])))


def _row_multiset(rows):
    return sorted(map(tuple, rows.tolist()))


def test_same_design_over_several_key_words():
    # at q=23 one int64 key holds 13 columns, so 30 columns take three keys
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 23, size=(40, 30))
    a = Design(23, rows)
    assert same_design(a, Design(23, rows[rng.permutation(40)]))
    for col in (0, 13, 29):
        changed = rows.copy()
        changed[3, col] = (changed[3, col] + 1) % 23
        assert not same_design(a, Design(23, changed))


def test_mirror_symmetric_stack_matches_single_designs():
    rng = np.random.default_rng(11)
    half = rng.integers(0, 5, size=(6, 10, 4))
    symmetric = np.concatenate([half, 4 - half], axis=1)
    stack = np.concatenate([symmetric, rng.integers(0, 5, size=(6, 20, 4))])
    want = [_row_multiset(d) == _row_multiset(4 - d) for d in stack]
    assert want[:6] == [True] * 6 and not any(want[6:])
    assert mirror_symmetric_stack(stack, 5).tolist() == want
    assert [is_mirror_symmetric(Design(5, d)) for d in stack] == want


# --- file format -------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    d = linear_permute(GeneratorSet(7, [[2, 2]]), [6])
    path = tmp_path / "design.txt"
    save_design(d, path)
    back = load_design(path)
    assert back.q == 7
    assert np.array_equal(back.rows, d.rows)
    header = path.read_text().splitlines()[0]
    assert header == "# q=7 N=49 n=3"


def test_load_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 0\n")
    with pytest.raises(InputError, match="header"):
        load_design(p)


def test_load_names_the_offending_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# q=3 N=2 n=3\n0 0 0\n0 0\n")
    with pytest.raises(InputError, match=r":3:"):
        load_design(p)


def test_load_checks_promised_row_count(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# q=3 N=5 n=2\n0 0\n1 1\n")
    with pytest.raises(InputError, match="promised 5 rows"):
        load_design(p)


def test_load_rejects_malformed_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# q=three N=9 n=3\n")
    with pytest.raises(InputError, match="malformed header"):
        load_design(p)
