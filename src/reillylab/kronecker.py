"""Generalized Kronecker deltas and cached antisymmetrized index sums.

delta^{i1..il}_{j1..jl} is the determinant of the l x l matrix of plain
Kronecker deltas; equivalently the sign of the permutation taking the lower
tuple to the upper one, and 0 on repeated indices or a set mismatch.

Sums of the form  sum_{I,J} delta^{I}_{J} * (product of factors indexed by
slots of I, J)  are evaluated by iterating over strictly increasing index
subsets and permutation pairs instead of full index ranges.  That costs
C(n, l) * (l!)^2 terms, cheap for the dimensions used here (n <= 8); the
term tables are cached per (n, l) and the factor products are vectorized.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ShapeError


def perm_sign(perm) -> int:
    """Sign of a permutation of distinct comparable items."""
    perm = list(perm)
    order = {v: i for i, v in enumerate(sorted(perm))}
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[perm[j]]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def gen_kronecker(upper, lower) -> int:
    """delta^{upper}_{lower} for integer index tuples of equal length."""
    upper = tuple(upper)
    lower = tuple(lower)
    if len(upper) != len(lower):
        raise ShapeError("upper and lower index tuples must have equal length")
    if len(set(upper)) != len(upper) or len(set(lower)) != len(lower):
        return 0
    if set(upper) != set(lower):
        return 0
    pos = {v: i for i, v in enumerate(lower)}
    return perm_sign([pos[v] for v in upper])


@lru_cache(maxsize=None)
def _perm_table(l: int):
    perms = np.array(list(itertools.permutations(range(l))), dtype=np.int64)
    signs = np.array([perm_sign(p) for p in perms], dtype=np.int64)
    return perms, signs


@lru_cache(maxsize=None)
def index_sum_terms(n: int, l: int):
    """All nonzero terms of sum_{I,J in range(n)^l} delta^{I}_{J}.

    Returns (upper, lower, sign): integer arrays of shape (T, l), (T, l)
    and (T,), listing every pair of tuples with nonvanishing delta together
    with its value.  T = C(n, l) * (l!)^2.
    """
    if l > n:
        return (np.zeros((0, l), dtype=np.int64),
                np.zeros((0, l), dtype=np.int64),
                np.zeros((0,), dtype=np.float64))
    perms, signs = _perm_table(l)
    m = len(perms)
    ups, los, sgs = [], [], []
    for subset in itertools.combinations(range(n), l):
        tup = np.asarray(subset, dtype=np.int64)[perms]       # (m, l)
        ups.append(np.repeat(tup, m, axis=0))
        los.append(np.tile(tup, (m, 1)))
        sgs.append(np.multiply.outer(signs, signs).ravel())
    return (np.concatenate(ups),
            np.concatenate(los),
            np.concatenate(sgs).astype(np.float64))


def scatter_sum(shape, index, values) -> np.ndarray:
    """Zeros of `shape` with each value added at its multi-index, for
    values (T,) or one result per row of values (..., T).

    The result of np.add.at on zeros, bit for bit, row by row: np.bincount
    also adds in input order, but in one compiled pass instead of a ufunc
    loop; rows go to disjoint bins by offsetting each row's flat index.
    """
    values = np.asarray(values, dtype=float)
    lead = values.shape[:-1]
    size = math.prod(shape)
    rows = np.arange(math.prod(lead))[:, None] * size
    flat = (rows + np.ravel_multi_index(index, shape)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=rows.size * size).reshape(lead + tuple(shape))


def contraction_factor(n: int, l: int, t: int) -> float:
    """(n - t)! / (n - l)!, the factor in the trailing-index contraction of a
    generalized delta from length l down to length t."""
    if not 0 <= t <= l <= n:
        raise ShapeError("need 0 <= t <= l <= n")
    return math.factorial(n - t) / math.factorial(n - l)
