"""Second-order model matrices, information matrices, variance factors."""

import numpy as np
import pytest

from wtdesigns import (
    Design,
    GeneratorSet,
    InputError,
    build_design,
    estimate_variances,
    expand,
    full_factorial,
    information_matrix,
    model_matrix,
    orthonormal_basis,
)
from wtdesigns.models import info_matrix_csv, term_labels


def test_term_labels_order():
    assert term_labels(3) == [
        "const",
        "x1", "x2", "x3",
        "x1^2", "x2^2", "x3^2",
        "x1:x2", "x1:x3", "x2:x3",
    ]
    assert len(term_labels(5)) == 1 + 2 * 5 + 10


def test_model_matrix_columns():
    d = expand(GeneratorSet(5, [[1, 1]]))
    basis = orthonormal_basis(5)
    mm = model_matrix(d)
    assert mm.values.shape == (25, 10)
    assert np.allclose(mm.values[:, 0], 1.0)
    assert np.allclose(mm.values[:, 1], basis.values[1][d.rows[:, 0]])
    assert np.allclose(mm.values[:, 4], basis.values[2][d.rows[:, 0]])
    # bilinear column x1:x2 is the product of the two linear columns
    assert np.allclose(mm.values[:, 7], mm.values[:, 1] * mm.values[:, 2])


def test_model_matrix_is_frozen():
    mm = model_matrix(expand(GeneratorSet(5, [[1, 1]])))
    with pytest.raises(ValueError):
        mm.values[0, 0] = 5.0


def test_full_factorial_information_is_identity():
    info = information_matrix(Design(3, full_factorial(3, 2)))
    assert np.abs(info.matrix - np.eye(6)).max() < 1e-9


def test_information_matrix_is_symmetric_with_unit_diagonal():
    d = build_design(GeneratorSet(5, [[1, 2]]), [1], "linear")
    info = information_matrix(d)
    assert np.allclose(info.matrix, info.matrix.T, atol=1e-12)
    assert np.allclose(np.diag(info.matrix), 1.0, atol=1e-12)


def test_variance_factors_of_best_25_run_designs():
    # the shifted design and its Williams transform disagree in the
    # quadratic and bilinear blocks; both sets of factors are frozen here
    # at four decimals from an independent computation
    shifted = build_design(GeneratorSet(5, [[1, 2]]), [1], "linear")
    v = dict(estimate_variances(shifted))
    assert v["x1^2"] == pytest.approx(0.0466, abs=5e-5)
    assert v["x2^2"] == pytest.approx(0.0407, abs=5e-5)
    assert v["x3^2"] == pytest.approx(0.0466, abs=5e-5)
    assert v["x1:x2"] == pytest.approx(0.0513, abs=5e-5)
    assert v["x1:x3"] == pytest.approx(0.0500, abs=5e-5)
    assert v["x2:x3"] == pytest.approx(0.0513, abs=5e-5)
    transformed = build_design(GeneratorSet(5, [[1, 1]]), [4], "williams")
    w = dict(estimate_variances(transformed))
    for lab in ("x1^2", "x2^2", "x3^2"):
        assert w[lab] == pytest.approx(0.0404, abs=5e-5)
    for lab in ("x1:x2", "x1:x3", "x2:x3"):
        assert w[lab] == pytest.approx(0.0409, abs=5e-5)


def test_singular_model_raises():
    # 9 runs cannot estimate the 10-term second-order model
    with pytest.raises(InputError, match="singular"):
        estimate_variances(expand(GeneratorSet(3, [[1, 1]])))


def test_csv_round_trips_full_precision():
    info = information_matrix(expand(GeneratorSet(5, [[1, 1]])))
    text = info_matrix_csv(info)
    lines = text.strip().splitlines()
    assert lines[0].split(",")[1:] == info.labels
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == info.labels[i]
        assert np.allclose([float(c) for c in cells[1:]], info.matrix[i], atol=0)
