"""Closed-form shifts, exhaustive shift searches, generator-space searches."""

import json
from itertools import product

import numpy as np
import pytest

from wtdesigns import (
    CapExceededError,
    GeneratorSet,
    InputError,
    beta_k,
    beta_pattern,
    build_design,
    center_preimage,
    compare_patterns,
    enumerate_q2_generators,
    linear_permute,
    optimal_shift_linear,
    optimal_shift_williams,
    orthonormal_basis,
    search_q2,
    search_shifts,
    shift_grid_beta,
    standard_generators,
    williams,
    williams_value,
)


# --- closed-form shifts -----------------------------------------------------

def test_center_preimage_frozen():
    assert {q: center_preimage(q) for q in (5, 7, 11, 13, 17)} == {
        5: 1, 7: 5, 11: 8, 13: 3, 17: 4,
    }


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_center_preimage_defining_property(q):
    # the Williams transformation must send it to the middle level
    assert williams_value(center_preimage(q), q) == (q - 1) // 2


def test_closed_form_shift_values():
    assert optimal_shift_williams(GeneratorSet(5, [[1, 1]])) == [4]
    assert optimal_shift_williams(GeneratorSet(7, [[2, 2]])) == [6]
    assert optimal_shift_williams(GeneratorSet(17, [[2, 4]])) == [14]
    assert optimal_shift_williams(GeneratorSet(5, [[1, 1], [1, 2]])) == [4, 3]
    assert optimal_shift_linear(GeneratorSet(5, [[1, 1]])) == [3]
    assert optimal_shift_linear(GeneratorSet(7, [[2, 2]])) == [5]
    assert optimal_shift_linear(GeneratorSet(5, [[1, 2]])) == [1]


@pytest.mark.parametrize("family,shift_of", [
    ("linear", optimal_shift_linear),
    ("williams", optimal_shift_williams),
])
def test_closed_form_shift_kills_degree_three(family, shift_of):
    for q, C in ((5, [[1, 1]]), (5, [[2, 3]]), (7, [[2, 2]]), (7, [[1, 3], [2, 5]])):
        gen = GeneratorSet(q, C)
        d = build_design(gen, shift_of(gen), family)
        assert beta_k(d, 3) <= 1e-9


def test_build_design_dispatch():
    gen = GeneratorSet(5, [[1, 1]])
    lin = build_design(gen, [2], "linear")
    assert np.array_equal(lin.rows, linear_permute(gen, [2]).rows)
    wil = build_design(gen, [2], "williams")
    assert np.array_equal(wil.rows, williams(linear_permute(gen, [2])).rows)
    with pytest.raises(InputError):
        build_design(gen, [2], "cubic")


# --- grid evaluation ---------------------------------------------------------

def test_grid_matches_per_shift_evaluation():
    gen = GeneratorSet(5, [[1, 1], [1, 2]])
    basis = orthonormal_basis(5)
    for family in ("linear", "williams"):
        for k in (3, 4):
            grid = shift_grid_beta(gen, family, k, basis)
            assert grid.shape == (5, 5)
            for b in product(range(5), repeat=2):
                direct = beta_k(build_design(gen, list(b), family), k, basis)
                assert grid[b] == pytest.approx(direct, abs=1e-9)


def test_grid_rejects_unknown_family():
    with pytest.raises(InputError):
        shift_grid_beta(GeneratorSet(5, [[1, 1]]), "affine", 3)


# --- exhaustive shift search ---------------------------------------------------

def test_search_25_run_winner():
    report = search_shifts(GeneratorSet(5, [[1, 1]]), "williams")
    assert report.b == [4]
    assert report.ties == [[4]]
    assert report.decided_k == 3
    assert report.evaluations == 5
    assert report.pattern[2] <= 1e-12
    assert report.pattern[3] == pytest.approx(0.0274285714, abs=1e-9)


def test_search_49_run_linear_ties():
    # three shifts kill the degree-3 measure; two of them tie at degree 4
    report = search_shifts(GeneratorSet(7, [[2, 2]]), "linear")
    assert report.b == [0]
    assert report.ties == [[0], [3]]
    assert report.decided_k == 4
    assert report.pattern[3] == pytest.approx(1 / 24, abs=1e-9)


def test_search_winner_is_lexicographically_first_tie():
    report = search_shifts(GeneratorSet(7, [[2, 2]]), "linear")
    assert report.b == min(report.ties)


def test_search_respects_cap():
    with pytest.raises(CapExceededError):
        search_shifts(GeneratorSet(5, [[1, 1], [1, 2]]), "williams", cap=10)


def test_search_validates_k_max():
    with pytest.raises(InputError):
        search_shifts(GeneratorSet(5, [[1, 1]]), "williams", k_max=0)
    with pytest.raises(InputError):
        search_shifts(GeneratorSet(5, [[1, 1]]), "williams", k_max=13)


def test_staged_search_agrees_with_grid_minimum():
    # 7^5 shift vectors forces the staged pruning path; the winner must
    # reach the true grid minimum of the first deciding degree and beat
    # a spread of spot-checked candidates on the full pattern
    gen = GeneratorSet(7, [[1, 1], [1, 2], [1, 3], [1, 4], [1, 5]])
    basis = orthonormal_basis(7)
    report = search_shifts(gen, "williams")
    assert report.evaluations == 7**5
    grid3 = shift_grid_beta(gen, "williams", 3, basis)
    win = build_design(gen, report.b, "williams")
    assert beta_k(win, 3, basis) == pytest.approx(float(grid3.min()), abs=1e-9)
    rng = np.random.default_rng(20260817)
    win_pattern = beta_pattern(win, basis=basis)
    for _ in range(60):
        b = rng.integers(0, 7, size=5).tolist()
        other = beta_pattern(build_design(gen, b, "williams"), basis=basis)
        assert compare_patterns(win_pattern, other) <= 0


def test_staged_search_with_fallback_matches_direct_path(monkeypatch):
    # these two shift vectors tie on the whole pattern, so with the direct
    # limit forced down to 1 the staged search runs every degree, and the
    # per-candidate evaluation takes over above degree 5
    from wtdesigns import optimal

    gen = GeneratorSet(5, [[2, 2], [2, 4]])
    direct = search_shifts(gen, "linear")
    assert direct.ties == [[0, 3], [3, 2]]
    monkeypatch.setattr(optimal, "_DIRECT_LIMIT", 1)
    staged = search_shifts(gen, "linear")
    assert staged == direct


def test_search_report_json_shape():
    report = search_shifts(GeneratorSet(5, [[1, 1]]), "williams")
    d = json.loads(json.dumps(report.to_json_dict(5, 3)))
    assert d["q"] == 5 and d["n"] == 3
    assert d["family"] == "williams"
    assert d["b"] == [4]
    assert d["generators"] == [[1, 1]]
    assert len(d["beta"]) == 12
    assert d["ties"] == [[4]]
    assert d["evaluations"] == 5


# --- generator enumeration -----------------------------------------------------

def test_enumeration_counts():
    assert len(list(enumerate_q2_generators(5, 3))) == 8
    assert len(list(enumerate_q2_generators(5, 4))) == 24
    assert len(list(enumerate_q2_generators(5, 5))) == 32
    assert len(list(enumerate_q2_generators(5, 6))) == 16
    assert len(list(enumerate_q2_generators(7, 3))) == 18


def test_enumeration_is_reduced_and_distinct():
    gens = list(enumerate_q2_generators(5, 4))
    seen = {tuple(map(tuple, g.C.tolist())) for g in gens}
    assert len(seen) == len(gens)
    half = (5 - 1) // 2
    for g in gens:
        assert (g.m, g.n) == (2, 4)
        assert all(1 <= row[0] <= half for row in g.C.tolist())


def test_enumeration_range_check():
    with pytest.raises(InputError):
        list(enumerate_q2_generators(5, 2))
    with pytest.raises(InputError):
        list(enumerate_q2_generators(5, 7))


def test_standard_generators_frozen():
    assert standard_generators(5, 3).C.tolist() == [[1, 1]]
    assert standard_generators(5, 5).C.tolist() == [[1, 1], [1, 2], [1, 3]]
    with pytest.raises(InputError):
        standard_generators(5, 7)


# --- generator-space search -----------------------------------------------------

def test_search_q2_25_run_three_columns():
    rep = search_q2(5, 3)
    assert rep.standard_generators == [[1, 1]]
    assert rep.standard_beta3 == pytest.approx(0.125, abs=1e-9)
    assert rep.standard_beta4 == pytest.approx(0.525, abs=1e-9)
    assert rep.linear.generators == [[1, 2]]
    assert rep.linear.b == [1]
    assert rep.linear.beta3 <= 1e-9
    assert rep.linear.beta4 == pytest.approx(0.2714285714, abs=1e-9)
    assert rep.linear.ties == [[[1, 2]], [[1, 3]], [[2, 1]], [[2, 2]], [[2, 3]], [[2, 4]]]
    assert rep.williams.generators == [[1, 1]]
    assert rep.williams.b == [4]
    assert rep.williams.beta4 == pytest.approx(0.0274285714, abs=1e-9)
    assert rep.williams.ties == [[[1, 1]], [[1, 4]]]
    assert rep.linear.evaluations == rep.williams.evaluations == 8


def test_search_q2_winner_heads_tie_list():
    rep = search_q2(7, 4)
    assert rep.linear.generators == rep.linear.ties[0]
    assert rep.williams.generators == rep.williams.ties[0]
    assert rep.williams.beta3 <= 1e-9


def test_search_q2_json_shape():
    d = json.loads(json.dumps(search_q2(5, 3).to_json_dict()))
    assert set(d) == {"q", "n", "standard", "linear", "williams"}
    assert set(d["linear"]) == {
        "family", "generators", "b", "beta", "ties", "evaluations", "decided_k",
    }
    assert d["standard"]["beta"] == pytest.approx([0.125, 0.525], abs=1e-9)
