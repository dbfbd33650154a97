"""Generalized Kronecker deltas and cached antisymmetrized index sums.

delta^{i1..il}_{j1..jl} is the determinant of the l x l matrix of plain
Kronecker deltas; equivalently the sign of the permutation taking the lower
tuple to the upper one, and 0 on repeated indices or a set mismatch.

Sums of the form  sum_{I,J} delta^{I}_{J} * (product of factors indexed by
slots of I, J)  are evaluated by iterating over strictly increasing index
subsets and permutation pairs instead of full index ranges.  That is
C(n, l) * (l!)^2 terms, of which a sum adds one representative per orbit
of its factors' slot symmetries, weighted by the orbit size: with k
symmetric slot pairs C(n, l) * (l!)^2 / (2^k k!), or / (4^k k!) when
upper and lower slots swap separately (`term_offsets`).  The factor
products are vectorized.  The sums gather their factors and scatter their
results through flat offsets into the factor arrays; those offsets and the
weighted term signs are cached (`term_offsets`), the full (T, l) index
tables of the unreduced sum are not (`index_sum_terms`).
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


def index_sum_terms(n: int, l: int):
    """All nonzero terms of sum_{I,J in range(n)^l} delta^{I}_{J}.

    Returns (upper, lower, sign): integer arrays of shape (T, l), (T, l)
    and (T,), listing every pair of tuples with nonvanishing delta together
    with its value.  T = C(n, l) * (l!)^2.  Built anew on every call: the
    unreduced reference for the cached `term_offsets`, whose terms are the
    rows of this table that are orbit representatives, in this table's
    order.
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


def term_offsets(n: int, l: int, *groups, pairs: int = 0,
                 split: bool = False):
    """(weighted sign, offsets...) of one term per orbit of the terms of
    `index_sum_terms(n, l)`, in its term order, one flat offset array per
    column group.

    The orbits are those of the slot symmetries that leave a term's
    sign * product unchanged.  The first `pairs` slot pairs (2s, 2s + 1)
    carry factors that may be permuted whole, and whose two slots may be
    swapped in upper and lower together (a Newton gram factor); with
    `split` the upper and the lower swap separately, each flipping the
    factor's sign like the delta's (a curvature factor).  The
    representatives have I[2s] < I[2s + 1] with the leaders I[2s]
    increasing, and with `split` also J[2s] < J[2s + 1]; each sign is
    multiplied by its orbit size 2^pairs pairs!, times 2^pairs with
    `split`.  pairs = 0 is the unreduced sum.  Every other slot stays
    fixed, so the free, scattered indices must not lie in a symmetric pair.

    A group is a tuple of columns of the stacked table [upper | lower]
    (columns 0..l-1 upper, l..2l-1 lower); its offsets are those columns
    raveled in base n, the flat index into an array with one axis of
    length n per column.  The signs are cached once per (n, l, pairs,
    split) and each group's offsets once per (n, l, group, pairs, split);
    all are read-only.  For l > n every array is empty, and no permutation
    table is built.
    """
    if not 0 <= 2 * pairs <= l:
        raise ShapeError("need 0 <= 2 * pairs <= l, got pairs=%d, l=%d"
                         % (pairs, l))
    return (_term_signs(n, l, pairs, split),) + tuple(
        _group_offsets(n, l, g, pairs, split) for g in groups)


@lru_cache(maxsize=None)
def _orbit_table(l: int, pairs: int, split: bool):
    """(upper perms, lower perms, weighted sign of each (upper, lower)
    pair) of the orbit representatives.  A subset is increasing, so
    I[a] < I[b] exactly when perm[a] < perm[b]: one filter of the
    permutation table serves every subset."""
    perms, signs = _perm_table(l)
    ordered = np.ones(len(perms), dtype=bool)
    for s in range(pairs):
        ordered &= perms[:, 2 * s] < perms[:, 2 * s + 1]
    leaders = ordered.copy()
    for s in range(pairs - 1):
        leaders &= perms[:, 2 * s] < perms[:, 2 * s + 2]
    lower = ordered if split else np.ones(len(perms), dtype=bool)
    weight = 2 ** (pairs * (1 + split)) * math.factorial(pairs)
    sign = np.multiply.outer(signs[leaders], signs[lower]) * weight
    return perms[leaders], perms[lower], sign.ravel().astype(np.float64)


@lru_cache(maxsize=None)
def _term_signs(n: int, l: int, pairs: int = 0,
                split: bool = False) -> np.ndarray:
    if l > n:
        return _frozen(np.zeros((0,), dtype=np.float64))
    return _frozen(np.tile(_orbit_table(l, pairs, split)[2],
                           math.comb(n, l)))


@lru_cache(maxsize=None)
def _group_offsets(n: int, l: int, group, pairs: int = 0,
                   split: bool = False) -> np.ndarray:
    """Base-n ravel of `group`'s columns, one index subset at a time: a
    subset's terms pair upper representative i with lower representative
    j at row i * (lower count) + j, so its block is U[:, None] + V[None, :]
    with U from the upper columns and V from the lower ones."""
    if l > n:
        return _frozen(np.zeros((0,), dtype=np.int64))
    uppers, lowers, _ = _orbit_table(l, pairs, split)
    weight = n ** np.arange(len(group) - 1, -1, -1, dtype=np.int64)
    group = np.asarray(group, dtype=np.int64)
    upper = group < l
    blocks = []
    for subset in itertools.combinations(range(n), l):
        subset = np.asarray(subset, dtype=np.int64)
        U = subset[uppers][:, group[upper]] @ weight[upper]
        V = subset[lowers][:, group[~upper] - l] @ weight[~upper]
        blocks.append((U[:, None] + V[None, :]).ravel())
    return _frozen(np.concatenate(blocks))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def scatter_sum(shape, flat, values) -> np.ndarray:
    """Zeros of `shape` with each value added at its flat index into
    `shape`, for values (T,) or one result per row of values (..., T).

    The result of np.add.at on zeros, bit for bit, row by row: np.bincount
    also adds in input order, but in one compiled pass instead of a ufunc
    loop; rows go to disjoint bins by offsetting each row's flat index.
    """
    values = np.asarray(values, dtype=float)
    lead = values.shape[:-1]
    size = math.prod(shape)
    rows = np.arange(math.prod(lead))[:, None] * size
    flat = (rows + flat).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=rows.size * size).reshape(lead + tuple(shape))


def contraction_factor(n: int, l: int, t: int) -> float:
    """(n - t)! / (n - l)!, the factor in the trailing-index contraction of a
    generalized delta from length l down to length t."""
    if not 0 <= t <= l <= n:
        raise ShapeError("need 0 <= t <= l <= n")
    return math.factorial(n - t) / math.factorial(n - l)
