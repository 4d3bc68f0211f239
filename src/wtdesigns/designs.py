"""Designs, generator sets, level permutations and the Williams transformation.

A regular design with N = q^(n-m) runs is specified by m linear generators:
column n-m+i equals c_i1 x_1 + ... + c_i(n-m) x_(n-m) mod q over the full
factorial in the independent columns. Shifting dependent columns by constants
(a linear level permutation) and applying the Williams transformation
elementwise are the two constructions everything else evaluates.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceededError, InputError
from .fieldmath import PrimeLevel, check_int, check_odd_prime, full_factorial, int_array

RUN_CAP = 10**6  # guard against accidental q^(n-m) blowups


class Design:
    """Immutable N x n array of levels in {0, ..., q-1}."""

    __slots__ = ("q", "rows")

    def __init__(self, q: PrimeLevel, rows):
        self.q = check_odd_prime(q)
        arr = int_array(rows, "design entries")
        if arr.ndim != 2 or arr.size == 0:
            raise InputError("design rows must form a nonempty 2-D array")
        if arr.min() < 0 or arr.max() >= self.q:
            raise InputError(f"design entries must lie in 0..{self.q - 1}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.rows = arr

    @property
    def runs(self) -> int:
        return self.rows.shape[0]

    @property
    def n_factors(self) -> int:
        return self.rows.shape[1]

    def __repr__(self):
        return f"Design(q={self.q}, N={self.runs}, n={self.n_factors})"


class GeneratorSet:
    """m x (n-m) coefficient array defining a regular design.

    Validation enforces the strength-2 guard: among the n implied coefficient
    vectors (unit vectors for the independent columns, rows of C for the
    dependent ones) no two may be proportional mod q, and no row of C may be
    zero.
    """

    __slots__ = ("q", "C", "m", "n")

    def __init__(self, q: PrimeLevel, C):
        self.q = check_odd_prime(q)
        arr = np.atleast_2d(int_array(C, "generator coefficients"))
        if arr.ndim != 2 or arr.size == 0:
            raise InputError("generator coefficients must form a 2-D array")
        arr = arr % self.q
        self.m, d = arr.shape
        self.n = self.m + d
        if not arr.any(axis=1).all():
            raise InputError("generator rows must be nonzero")
        prop = _first_proportional_pair(column_vectors(arr), self.q)
        if prop:
            i, j = prop
            raise InputError(
                f"columns {i + 1} and {j + 1} are proportional mod {self.q}; "
                "the design would not have strength 2"
            )
        arr.setflags(write=False)
        self.C = arr

    def column_vectors(self) -> np.ndarray:
        """Coefficient vectors of all n columns in the independent basis."""
        return column_vectors(self.C)

    def __repr__(self):
        return f"GeneratorSet(q={self.q}, C={self.C.tolist()})"


def column_vectors(C: np.ndarray) -> np.ndarray:
    """The (..., m + d, d) column vectors of a (..., m, d) stack: d unit vectors, then C's rows."""
    d = C.shape[-1]
    cols = np.empty(C.shape[:-2] + (d + C.shape[-2], d), dtype=np.int64)
    cols[..., :d, :] = np.eye(d, dtype=np.int64)
    cols[..., d:, :] = C
    return cols


def _first_proportional_pair(vectors: np.ndarray, q: int):
    """The first pair (i, j), i < j in lexicographic order, of nonzero rows proportional
    mod q, or None: each row is scaled by the inverse of its first nonzero entry."""
    V = np.asarray(vectors, dtype=np.int64) % q
    lead = V[np.arange(len(V)), (V != 0).argmax(axis=1)]
    inverse = np.array([pow(int(x), -1, q) for x in lead], dtype=np.int64)
    directions = (V * inverse[:, None] % q).tolist()
    first = {}
    pairs = [(first.setdefault(tuple(row), j), j) for j, row in enumerate(directions)]
    return min(((i, j) for i, j in pairs if i != j), default=None)


def expand_stack(C: np.ndarray, q: int) -> np.ndarray:
    """Regular designs of a (B, m, d) coefficient stack, shape (B, q^d, d + m).

    Independent columns run through the full factorial in enumerate_tuples
    order; dependent column i is the generator linear combination mod q.
    """
    base = full_factorial(q, C.shape[2])
    dep = (base @ C.transpose(0, 2, 1)) % q
    return np.concatenate([np.broadcast_to(base, dep.shape[:1] + base.shape), dep], axis=2)


def shift_stack(rows: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Level stacks with the last m columns shifted by a (B, m) stack b mod q.

    rows is (B, N, n), or (1, N, n) to shift one design by every b.
    """
    m = b.shape[1]
    out = np.array(np.broadcast_to(rows, (len(b),) + rows.shape[1:]))
    out[:, :, -m:] = (out[:, :, -m:] + b[:, None, :] % q) % q
    return out


def expand(gen: GeneratorSet) -> Design:
    """Expand a generator set into its regular design (see expand_stack).

    Designs of more than RUN_CAP runs are refused with CapExceededError.
    """
    runs = gen.q ** (gen.n - gen.m)
    if runs > RUN_CAP:
        raise CapExceededError(f"run count {runs} exceeds the cap of {RUN_CAP}")
    return Design(gen.q, expand_stack(gen.C[None], gen.q)[0])


def linear_permute(gen: GeneratorSet, b) -> Design:
    """The design with dependent column i shifted by b[i] mod q."""
    b = int_array(b, "shift vector").ravel()
    if b.size != gen.m:
        raise InputError(f"shift vector has length {b.size}, expected {gen.m}")
    return Design(gen.q, shift_stack(expand(gen).rows[None], b[None], gen.q)[0])


def williams_value(x: int, q: PrimeLevel) -> int:
    """The Williams transformation of a single level.

    W(x) = 2x for x < q/2 and 2(q - x) - 1 otherwise. A bijection of Z_q.
    """
    q = check_odd_prime(q)
    if not 0 <= check_int(x, "level") < q:
        raise InputError(f"level {x} out of range for q={q}")
    return 2 * x if 2 * x < q else 2 * (q - x) - 1


def williams_inverse(x: int, q: PrimeLevel) -> int:
    """Inverse of the Williams transformation: x/2 for even x, q-(x+1)/2 odd."""
    q = check_odd_prime(q)
    if not 0 <= check_int(x, "level") < q:
        raise InputError(f"level {x} out of range for q={q}")
    return x // 2 if x % 2 == 0 else q - (x + 1) // 2


@lru_cache(maxsize=None)
def williams_table(q: PrimeLevel) -> np.ndarray:
    """Lookup table t with t[x] = williams_value(x, q), read-only and cached."""
    table = np.array([williams_value(x, q) for x in range(q)], dtype=np.int64)
    table.setflags(write=False)
    return table


def williams_levels(rows: np.ndarray, q: PrimeLevel) -> np.ndarray:
    """The Williams transformation of every entry of a level array or stack."""
    return williams_table(q)[rows]


def williams(design: Design) -> Design:
    """Apply the Williams transformation elementwise."""
    return Design(design.q, williams_levels(design.rows, design.q))


def add_constant(design: Design, s: int) -> Design:
    """Shift every entry of the design by s mod q."""
    return Design(design.q, (design.rows + check_int(s, "shift") % design.q) % design.q)


def strength(design: Design, t_max: int = None) -> int:
    """Largest t <= t_max such that every t-column projection is balanced.

    Returns 0 when t_max is 0 or even single columns are unbalanced.
    """
    n = design.n_factors
    if t_max is None:
        t_max = n
    if not 0 <= check_int(t_max, "t_max") <= n:
        raise InputError(f"t_max={t_max} out of range 0..{n}")
    q, N, rows = design.q, design.runs, design.rows
    best = 0
    for t in range(1, t_max + 1):
        if N % q**t != 0:
            return best
        want = N // q**t
        ok = True
        for cols in combinations(range(n), t):
            codes = rows[:, cols] @ (q ** np.arange(t - 1, -1, -1))
            counts = np.bincount(codes, minlength=q**t)
            if (counts != want).any():
                ok = False
                break
        if not ok:
            return best
        best = t
    return best


def _canonical_keys(rows: np.ndarray, q: int) -> np.ndarray:
    """Sorted row keys of each design in a (..., N, n) level stack, shape (G, ..., N).

    Each row's base-q code is split into G int64 keys of as many columns as
    fit, so two designs have equal row multisets iff their keys are equal.
    """
    n = rows.shape[-1]
    width = 1
    while q ** (width + 1) < 2**62:
        width += 1
    keys = np.stack(
        [
            rows[..., lo : lo + width] @ (q ** np.arange(min(width, n - lo) - 1, -1, -1))
            for lo in range(0, n, width)
        ]
    )
    order = np.lexsort(keys[::-1], axis=-1)
    return np.take_along_axis(keys, np.broadcast_to(order, keys.shape), axis=-1)


def same_design(a: Design, b: Design) -> bool:
    """True iff the two designs have equal row multisets."""
    if a.q != b.q or a.rows.shape != b.rows.shape:
        raise InputError("designs must share q and shape to be compared")
    return bool(np.array_equal(_canonical_keys(a.rows, a.q), _canonical_keys(b.rows, b.q)))


def mirror_symmetric_stack(rows: np.ndarray, q: int) -> np.ndarray:
    """Per design of a (B, N, n) level stack: does reflecting every level
    (x -> q-1-x) reproduce the design's row multiset? Shape (B,)."""
    same = _canonical_keys(rows, q) == _canonical_keys((q - 1) - rows, q)
    return same.all(axis=(0, 2))


def is_mirror_symmetric(design: Design) -> bool:
    """True iff reflecting every level (x -> q-1-x) reproduces the design."""
    return bool(mirror_symmetric_stack(design.rows[None], design.q)[0])


def save_design(design: Design, path) -> None:
    """Write the text format: header '# q=Q N=N n=N', then one row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# q={design.q} N={design.runs} n={design.n_factors}\n")
        for row in design.rows:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def load_design(path) -> Design:
    """Read the text format written by save_design. Round-trip is lossless."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise InputError(f"{path}: missing '# q=.. N=.. n=..' header line")
        fields = dict(
            part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part
        )
        try:
            q = int(fields["q"])
            N = int(fields["N"])
            n = int(fields["n"])
        except (KeyError, ValueError) as exc:
            raise InputError(f"{path}: malformed header {header!r}") from exc
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            vals = line.split()
            if len(vals) != n:
                raise InputError(f"{path}:{lineno}: expected {n} values")
            try:
                rows.append([int(v) for v in vals])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: levels must be integers") from exc
    if len(rows) != N:
        raise InputError(f"{path}: header promised {N} rows, found {len(rows)}")
    return Design(q, rows)
