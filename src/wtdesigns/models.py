"""Second-order polynomial model diagnostics.

For n quantitative factors the model has an intercept, n linear terms
p_1(x_j), n quadratic terms p_2(x_j) and n(n-1)/2 bilinear terms
p_1(x_j) p_1(x_k), j < k. The information matrix (M^T M)/N and the
variance factors diag((M^T M)^-1), in units of the error variance, are the
quantities used to compare candidate designs.
"""

from dataclasses import dataclass, field

import numpy as np

from .designs import Design
from .errors import InputError
from .orthopoly import orthonormal_basis

_SINGULAR_TOL = 1e-10


def term_labels(n: int) -> list:
    labels = ["const"]
    labels += [f"x{j}" for j in range(1, n + 1)]
    labels += [f"x{j}^2" for j in range(1, n + 1)]
    labels += [f"x{j}:x{k}" for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    return labels


@dataclass(frozen=True)
class ModelMatrix:
    labels: list
    values: np.ndarray = field(repr=False)
    q: int
    n: int

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class InfoSummary:
    labels: list
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)


def model_matrix(design: Design) -> ModelMatrix:
    """N x (1 + 2n + n(n-1)/2) matrix in the fixed column order above."""
    P = orthonormal_basis(design.q).values
    rows = design.rows
    N, n = rows.shape
    lin = P[1][rows]
    quad = P[2][rows]
    cols = [np.ones(N)]
    cols += [lin[:, j] for j in range(n)]
    cols += [quad[:, j] for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            cols.append(lin[:, j] * lin[:, k])
    return ModelMatrix(
        labels=term_labels(n), values=np.stack(cols, axis=1), q=design.q, n=n
    )


def information_matrix(design: Design) -> InfoSummary:
    """(M^T M)/N for the second-order model matrix."""
    mm = model_matrix(design)
    M = mm.values
    return InfoSummary(labels=mm.labels, matrix=(M.T @ M) / design.runs)


def estimate_variances(design: Design) -> list:
    """Variance factor per coefficient: the diagonal of (M^T M)^-1.

    Multiples of the error variance. Raises when the information matrix is
    singular, meaning the model is not estimable on this design.
    """
    mm = model_matrix(design)
    M = mm.values
    mtm = M.T @ M
    svals = np.linalg.svd(mtm, compute_uv=False)
    if svals[-1] < _SINGULAR_TOL * max(svals[0], 1.0):
        raise InputError(
            "singular information matrix: the second-order model is not "
            "estimable on this design"
        )
    inv = np.linalg.inv(mtm)
    return list(zip(mm.labels, np.diag(inv).tolist()))


def info_matrix_csv(summary: InfoSummary) -> str:
    """CSV rendering at full precision: every entry printed with repr."""
    lines = ["," + ",".join(summary.labels)]
    for label, row in zip(summary.labels, summary.matrix):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
