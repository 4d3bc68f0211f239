"""Arithmetic over Z_q for an odd prime q.

Primality validation, matrix rank and inverses over the prime field,
deterministic tuple enumeration, and the one memory budget of every chunked
kernel. Everything here is pure and cheap; every other module builds on
these.
"""

from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

from .errors import InputError

# A validated odd-prime level count. Plain int at runtime; the alias marks
# values that went through check_odd_prime.
PrimeLevel = int

_CHUNK_BYTES = 2**19  # about 0.5 MB per array of a chunked kernel, read by chunks alone


def chunks(count: int, item_bytes: int) -> list:
    """range(count) as consecutive slices of about _CHUNK_BYTES, item_bytes per item.

    Every slice but the last holds max(1, _CHUNK_BYTES // item_bytes) items,
    so an item wider than the budget gets a slice of its own.
    """
    step = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def check_int(value, name: str) -> int:
    """value as a plain int; a value that is not an integer by type, bool included, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def int_array(values, name: str) -> np.ndarray:
    """values as an int64 array, refusing any non-integer dtype, bool included.

    Float, string, bool and object input is refused with InputError, not
    truncated. An empty input passes, so the caller's shape check names it.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise InputError(f"{name} must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def check_odd_prime(q) -> PrimeLevel:
    """Validate that q is an odd prime and return it as a plain int.

    Trial division only. Level counts stay far below 10**4 in practice,
    so deterministic trial division beats any probabilistic test on
    simplicity alone.
    """
    q = check_int(q, "level count")
    if q < 3:
        raise InputError(f"level count must be at least 3, got {q}")
    if q % 2 == 0:
        raise InputError(f"level count must be odd, got even value {q}")
    d = 3
    while d * d <= q:
        if q % d == 0:
            raise InputError(
                f"level count must be prime, got composite {q} = {d} * {q // d}"
            )
        d += 2
    return q


def rank_mod(M, q: PrimeLevel) -> int:
    """Rank of an integer matrix over the field with q elements.

    Gaussian elimination with exact integer arithmetic mod q.
    """
    q = check_odd_prime(q)
    A = np.atleast_2d(int_array(M, "matrix entries")) % q
    if A.ndim != 2:
        raise InputError("rank_mod expects a 2-D array")
    nrow, ncol = A.shape
    r = 0
    for c in range(ncol):
        piv = None
        for i in range(r, nrow):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, q)
        A[r] = (A[r] * inv) % q
        for i in range(nrow):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % q
        r += 1
        if r == nrow:
            break
    return r


@lru_cache(maxsize=None)
def inverse_table(q: int) -> np.ndarray:
    """inv[x] = x^-1 mod q for x in 1..q-1 and inv[0] = 0, read-only and cached."""
    inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int32)
    inv.setflags(write=False)
    return inv


def enumerate_tuples(q: PrimeLevel, k: int) -> Iterator[tuple]:
    """All q**k tuples of Z_q^k in lexicographic order, last coordinate fastest.

    The ordering is part of the contract: design row order, file output and
    test goldens all depend on it being stable.
    """
    q = check_odd_prime(q)
    if check_int(k, "tuple length") < 1:
        raise InputError(f"tuple length must be at least 1, got {k}")
    return product(range(q), repeat=k)


def full_factorial(q: PrimeLevel, k: int) -> np.ndarray:
    """The q**k x k level array whose rows follow enumerate_tuples order."""
    q = check_odd_prime(q)
    if check_int(k, "column count") < 1:
        raise InputError(f"column count must be at least 1, got {k}")
    idx = np.arange(q**k, dtype=np.int64)
    cols = [(idx // q**j) % q for j in range(k - 1, -1, -1)]
    return np.stack(cols, axis=1)
