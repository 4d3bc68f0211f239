"""Optimal level-permutation searches.

Closed-form shift vectors for both design families, exhaustive best-shift
search over all q^m shift vectors, and the generator-space search over all
regular designs with two independent columns (q^2 runs).

Families:
    linear   : the design with dependent columns shifted by b
    williams : the Williams transformation of that shifted design
"""

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from .aberration import (
    DEFAULT_TOL,
    beta_k_stack,
    beta_pattern,
    compositions,
    designs_per_chunk,
)
from .designs import (
    Design,
    GeneratorSet,
    expand,
    expand_stack,
    linear_permute,
    mirror_symmetric_stack,
    shift_stack,
    williams,
    williams_levels,
    williams_table,
)
from .errors import CapExceededError, InputError
from .fieldmath import PrimeLevel, check_odd_prime
from .orthopoly import orthonormal_basis
from .recursion import RecursiveType, classify

FAMILIES = ("linear", "williams")
SEARCH_CAP = 2_000_000
_DIRECT_LIMIT = 2048  # below this many candidates, rank full patterns directly
_ZERO_TOL = 1e-9  # a measure at most this large counts as zero in verify_theorem


def center_preimage(q: PrimeLevel) -> int:
    """The level that the Williams transformation sends to the middle level.

    Equals (q-1)/4 when q = 1 mod 4 and (3q-1)/4 when q = 3 mod 4.
    """
    q = check_odd_prime(q)
    return (q - 1) // 4 if q % 4 == 1 else (3 * q - 1) // 4


def _closed_form_shifts(C: np.ndarray, q: int, family: str) -> np.ndarray:
    """Closed-form shift vectors of a (..., m, d) coefficient stack, shape (..., m)."""
    g = center_preimage(q) if family == "williams" else (q - 1) // 2
    return ((1 - C.sum(axis=-1)) * g) % q


def optimal_shift_williams(gen: GeneratorSet) -> list:
    """Closed-form shift vector for the Williams family.

    Component i is (1 - sum_j c_ij) * center_preimage(q) mod q. The
    Williams-transformed design at this shift is mirror-symmetric, so its
    odd-degree aliasing measures all vanish.
    """
    return _closed_form_shifts(gen.C, gen.q, "williams").tolist()


def optimal_shift_linear(gen: GeneratorSet) -> list:
    """Closed-form shift vector for the plain linear-permutation family.

    Component i is (1 - sum_j c_ij) * (q-1)/2 mod q; the shifted design is
    mirror-symmetric around the center level.
    """
    return _closed_form_shifts(gen.C, gen.q, "linear").tolist()


def build_design(gen: GeneratorSet, b, family: str) -> Design:
    """The family member at shift vector b."""
    if family not in FAMILIES:
        raise InputError(f"family must be one of {FAMILIES}, got {family!r}")
    design = linear_permute(gen, b)
    return williams(design) if family == "williams" else design


def _family_rows(expanded: np.ndarray, b: np.ndarray, q: int, family: str) -> np.ndarray:
    """Family members of expanded designs at the (B, m) shift stack b, shape (B, N, n).

    The stacked form of build_design: shift_stack, then williams_levels for
    the Williams family.
    """
    rows = shift_stack(expanded, b, q)
    return williams_levels(rows, q) if family == "williams" else rows


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


def _keep_minimal(values: np.ndarray, tol: float) -> np.ndarray:
    mn = float(values.min())
    return values <= mn + tol * max(1.0, mn)


def _rank_candidates(patterns: np.ndarray, tol: float):
    """Sequentially filter candidate rows; returns (kept indices, decided_k)."""
    alive = np.arange(patterns.shape[0])
    decided = None
    for k in range(patterns.shape[1]):
        vals = patterns[alive, k]
        keep = _keep_minimal(vals, tol)
        if not keep.all():
            decided = k + 1
            alive = alive[keep]
        if len(alive) == 1:
            break
    return alive, decided


def shift_grid_beta(gen: GeneratorSet, family: str, k: int, basis=None) -> np.ndarray:
    """beta_k of every shift vector at once, as an array of shape (q,)*m.

    Each exponent vector u touches at most k columns, so its contribution
    depends only on the shifts of the dependent columns in its support.
    Summing small per-support tables over the full shift grid evaluates all
    q^m candidates for the price of the tables.
    """
    if family not in FAMILIES:
        raise InputError(f"family must be one of {FAMILIES}, got {family!r}")
    if basis is None:
        basis = orthonormal_basis(gen.q)
    q, m, n = gen.q, gen.m, gen.n
    d = n - m
    full = expand_stack(gen.C[None], q)[0]
    base, dep = full[:, :d], full[:, d:]
    N = base.shape[0]
    relabel = williams_table(q) if family == "williams" else np.arange(q)
    B = basis.values
    ind_vals = [B[:, relabel[base[:, j]]] for j in range(d)]
    dep_tabs = [
        np.stack([B[:, relabel[(dep[:, i] + s) % q]] for s in range(q)])
        for i in range(m)
    ]  # (q shifts, q degrees, N)
    letters = "abcdefgh"
    total = np.zeros((q,) * m)
    const = 0.0
    for u in compositions(k, n, q - 1):
        support = np.flatnonzero(u)
        fixed = np.ones(N)
        dep_axes = []
        arrays = []
        for j in support:
            if j < d:
                fixed = fixed * ind_vals[j][u[j]]
            else:
                dep_axes.append(j - d)
                arrays.append(dep_tabs[j - d][:, u[j], :])
        if not dep_axes:
            s = float(fixed.sum())
            const += s * s / N**2
            continue
        spec = ",".join(["n"] + [letters[i] + "n" for i in range(len(dep_axes))])
        spec += "->" + letters[: len(dep_axes)]
        sums = np.einsum(spec, fixed, *arrays)
        term = sums * sums / N**2
        shape = [1] * m
        for ax in dep_axes:
            shape[ax] = q
        total += term.reshape(shape)
    return total + const


def _shift_vectors(idx, q: int, m: int) -> np.ndarray:
    """The (len(idx), m) shift vectors at the flat indices idx of the (q,)*m grid."""
    return np.stack(np.unravel_index(idx, (q,) * m), axis=1)


def _shift_stacks(gen, family, shifts, ks=()):
    """Level stacks of the family members at each shift vector, in chunks.

    The generator set is expanded once; each member shifts its dependent
    columns. Chunks hold designs_per_chunk designs for the degrees ks.
    """
    expanded = expand(gen).rows[None]
    step = designs_per_chunk(expanded.shape[1], gen.n, gen.q, ks)
    for lo in range(0, len(shifts), step):
        yield _family_rows(expanded, shifts[lo : lo + step], gen.q, family)


def shift_betas(gen: GeneratorSet, family: str, shifts, ks, basis=None) -> np.ndarray:
    """beta_k of the family member at each shift vector, shape (len(shifts), len(ks)).

    shifts is an (S, m) array of shift vectors; column t holds beta_{ks[t]}.
    Bit-identical to beta_k(build_design(gen, b, family), k) per shift, but
    the generator set is expanded once and the members are evaluated as
    stacks.
    """
    if family not in FAMILIES:
        raise InputError(f"family must be one of {FAMILIES}, got {family!r}")
    shifts = np.asarray(shifts, dtype=np.int64)
    if shifts.ndim != 2 or shifts.shape[1] != gen.m:
        raise InputError(f"shifts must have shape (S, {gen.m}), got {shifts.shape}")
    K = gen.n * (gen.q - 1)
    for k in ks:
        if not 1 <= k <= K:
            raise InputError(f"k={k} out of range 1..{K}")
    if basis is None:
        basis = orthonormal_basis(gen.q)
    out = np.empty((len(shifts), len(ks)))
    lo = 0
    for rows in _shift_stacks(gen, family, shifts, ks):
        out[lo : lo + len(rows)] = beta_k_stack(rows, ks, basis)
        lo += len(rows)
    return out


def _patterns_for(gen, family, shifts, k_max, basis) -> np.ndarray:
    out = []
    for stack in _shift_stacks(gen, family, shifts):
        for rows in stack:
            out.append(beta_pattern(Design(gen.q, rows), k_max, basis).values)
    return np.asarray(out, dtype=float)


def search_shifts(
    gen: GeneratorSet,
    family: str,
    k_max: int = None,
    cap: int = SEARCH_CAP,
    tol: float = DEFAULT_TOL,
) -> SearchReport:
    """Exhaustively evaluate all q^m shift vectors and rank them sequentially.

    The winner is the lexicographically smallest shift vector among all
    pattern minimizers; the tie list holds every minimizer. While more than
    _DIRECT_LIMIT candidates are alive, they are pruned one degree at a
    time with the grid evaluation, which is exact, so the result never
    depends on the pruning path; the survivors are ranked on full patterns.
    """
    if family not in FAMILIES:
        raise InputError(f"family must be one of {FAMILIES}, got {family!r}")
    q, m = gen.q, gen.m
    total = q**m
    if total > cap:
        raise CapExceededError(
            f"shift space of size {total} exceeds the cap of {cap}"
        )
    K = gen.n * (q - 1)
    if k_max is None:
        k_max = K
    if not 1 <= k_max <= K:
        raise InputError(f"k_max={k_max} out of range 1..{K}")
    basis = orthonormal_basis(q)

    alive_idx = np.arange(total)
    decided = None
    k = 0
    while k < k_max and len(alive_idx) > _DIRECT_LIMIT:
        k += 1
        if k > 5:
            # supports get wide and the grid tables stop paying off;
            # fall back to per-candidate evaluation of the survivors
            vals = shift_betas(gen, family, _shift_vectors(alive_idx, q, m), (k,), basis)[:, 0]
        else:
            vals = shift_grid_beta(gen, family, k, basis).reshape(-1)[alive_idx]
        keep = _keep_minimal(vals, tol)
        if not keep.all():
            decided = k
            alive_idx = alive_idx[keep]

    shifts = _shift_vectors(alive_idx, q, m)
    patterns = _patterns_for(gen, family, shifts, k_max, basis)
    sub_alive, sub_decided = _rank_candidates(patterns, tol)
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
    Yields exactly C(q-1, n-2) * ((q-1)/2)^(n-2) generator sets.
    """
    for block in _q2_coefficient_blocks(q, n):
        for C in block:
            yield GeneratorSet(q, C)


def _q2_coefficient_blocks(q: PrimeLevel, n: int):
    """The coefficients of enumerate_q2_generators, in its order.

    Yields one (((q-1)/2)^m, m, 2) block per slope set, m = n - 2: dependent
    column i is (c_i, c_i * s_i mod q) for the slopes s_i and every scale
    vector c in product order.
    """
    q = check_odd_prime(q)
    if not 3 <= n <= q + 1:
        raise InputError(f"n={n} out of range 3..{q + 1} for q={q}")
    m = n - 2
    half = (q - 1) // 2
    scales = np.array(list(product(range(1, half + 1), repeat=m)), dtype=np.int64)
    for slopes in combinations(range(1, q), m):
        yield np.stack([scales, (scales * np.array(slopes)) % q], axis=2)


@dataclass(frozen=True)
class FamilyBest:
    """Winner of a generator-space search for one family."""

    family: str
    generators: list
    b: list
    beta3: float
    beta4: float
    pattern: tuple
    ties: list
    evaluations: int
    decided_k: Optional[int]


@dataclass(frozen=True)
class Q2Report:
    q: int
    n: int
    standard_generators: list
    standard_beta3: float
    standard_beta4: float
    standard_pattern: tuple
    linear: FamilyBest
    williams: FamilyBest

    def to_json_dict(self) -> dict:
        def fam(f):
            return {
                "family": f.family,
                "generators": f.generators,
                "b": f.b,
                "beta": [f.beta3, f.beta4],
                "ties": f.ties,
                "evaluations": f.evaluations,
                "decided_k": f.decided_k,
            }

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
    if not 3 <= n <= q + 1:
        raise InputError(f"n={n} out of range 3..{q + 1} for q={q}")
    return GeneratorSet(q, [[1, s] for s in range(1, n - 1)])


def _closed_form_stacks(q: int, n: int, family: str, ks=()):
    """Every reduced q^2-run generator set at its closed-form shift, in chunks.

    Yields (C, b, rows): the (B, m, 2) coefficients in enumerate_q2_generators
    order, their (B, m) closed-form shift vectors for the family, and the
    family members' (B, N, n) level stack, designs_per_chunk designs for the
    degrees ks at a time. No GeneratorSet or Design objects are built.
    """
    C = np.concatenate(list(_q2_coefficient_blocks(q, n)))
    b = _closed_form_shifts(C, q, family)
    step = designs_per_chunk(q * q, n, q, ks)
    for lo in range(0, len(C), step):
        part = slice(lo, lo + step)
        yield C[part], b[part], _family_rows(expand_stack(C[part], q), b[part], q, family)


def closed_form_sweep(q: PrimeLevel, n: int, family: str, ks, basis=None):
    """beta_k of every reduced q^2-run generator set at its closed-form shift.

    Returns (C, b, betas): the (B, m, 2) coefficient stack in
    enumerate_q2_generators order, the (B, m) closed-form shift vectors of
    the family, and the (B, len(ks)) measures, evaluated chunk by chunk on
    the integer stacks of _closed_form_stacks.
    """
    if family not in FAMILIES:
        raise InputError(f"family must be one of {FAMILIES}, got {family!r}")
    if basis is None:
        basis = orthonormal_basis(q)
    parts = [
        (C, b, beta_k_stack(rows, ks, basis))
        for C, b, rows in _closed_form_stacks(q, n, family, ks)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _family_best(q, n, family, basis, tol) -> FamilyBest:
    C, b, betas = closed_form_sweep(q, n, family, (3, 4), basis)
    alive = np.arange(len(C))
    decided = None
    for col, k in ((0, 3), (1, 4)):
        keep = _keep_minimal(betas[alive, col], tol)
        if not keep.all():
            decided = k
            alive = alive[keep]

    # Design objects and full patterns only for the survivors; the
    # winner's pattern is among them
    survivors = _family_rows(expand_stack(C[alive], q), b[alive], q, family)
    patterns = [beta_pattern(Design(q, rows), basis=basis).values for rows in survivors]
    if len(alive) > 1:
        idx, sub_decided = _rank_candidates(np.array(patterns), tol)
        if sub_decided is not None:
            decided = sub_decided
        alive = alive[idx]
        patterns = [patterns[i] for i in idx]

    order = sorted(range(len(alive)), key=lambda i: C[alive[i]].tolist())
    win = alive[order[0]]
    return FamilyBest(
        family=family,
        generators=C[win].tolist(),
        b=b[win].tolist(),
        beta3=float(betas[win, 0]),
        beta4=float(betas[win, 1]),
        pattern=patterns[order[0]],
        ties=[C[alive[i]].tolist() for i in order],
        evaluations=len(C),
        decided_k=decided,
    )


def search_q2(q: PrimeLevel, n: int, tol: float = DEFAULT_TOL) -> Q2Report:
    """Full generator-space search for the best design of each family.

    Every reduced generator set is evaluated at its closed-form shift; the
    per-family winner minimizes the aliasing pattern sequentially, with all
    pattern-equal generator sets reported as ties.
    """
    basis = orthonormal_basis(q)
    std = standard_generators(q, n)
    std_pattern = beta_pattern(expand(std), basis=basis)
    linear = _family_best(q, n, "linear", basis, tol)
    will = _family_best(q, n, "williams", basis, tol)
    return Q2Report(
        q=q,
        n=n,
        standard_generators=std.C.tolist(),
        standard_beta3=std_pattern.values[2],
        standard_beta4=std_pattern.values[3],
        standard_pattern=std_pattern.values,
        linear=linear,
        williams=will,
    )


def _theorem1(q, nmax) -> list:
    basis = orthonormal_basis(q)
    failures = []
    for n in range(3, nmax + 1):
        C, _, betas = closed_form_sweep(q, n, "williams", (3,), basis)
        for coeffs, v in zip(C, betas[:, 0]):
            if v > _ZERO_TOL:
                failures.append(f"n={n} C={coeffs.tolist()}: beta3={v:.3g}")
    return failures


def _theorem2(q, nmax) -> list:
    basis = orthonormal_basis(q)
    failures = []
    for n in range(3, min(nmax, 4) + 1):
        shifts = _shift_vectors(np.arange(q ** (n - 2)), q, n - 2)
        for gen in enumerate_q2_generators(q, n):
            if classify(gen) is not RecursiveType.TYPE_II:
                continue
            betas = shift_betas(gen, "williams", shifts, (3,), basis)[:, 0]
            zeros = shifts[betas <= _ZERO_TOL].tolist()
            expect = optimal_shift_williams(gen)
            if zeros != [expect]:
                failures.append(
                    f"n={n} C={gen.C.tolist()}: zero set {zeros}, expected [{expect}]"
                )
    return failures


def _theorem4(q, nmax) -> list:
    failures = []
    for n in range(3, nmax + 1):
        for C, _, rows in _closed_form_stacks(q, n, "williams"):
            for coeffs in C[~mirror_symmetric_stack(rows, q)]:
                failures.append(f"n={n} C={coeffs.tolist()}: not mirror-symmetric")
    return failures


_THEOREMS = {1: _theorem1, 2: _theorem2, 4: _theorem4}


def verify_theorem(theorem: int, q: PrimeLevel, nmax: int) -> list:
    """Check a structural theorem over every reduced q^2-run generator set.

    Covers n = 3..nmax columns and returns one line per failing set:
        1: the Williams family at the closed-form shift has beta_3 = 0;
        2: a type-II set has exactly one shift with beta_3 = 0 in the
           Williams family, the closed-form one (checked for n <= 4);
        4: the Williams family at the closed-form shift is mirror-symmetric.
    """
    q = check_odd_prime(q)
    if theorem not in _THEOREMS:
        raise InputError(f"theorem must be one of {tuple(_THEOREMS)}, got {theorem!r}")
    if not 3 <= nmax <= q + 1:
        raise InputError(f"nmax={nmax} out of range 3..{q + 1} for q={q}")
    return _THEOREMS[theorem](q, nmax)
