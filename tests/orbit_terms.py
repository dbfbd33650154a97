"""Orbit representatives of the unreduced term table, chosen from the
indices of `index_sum_terms` itself: the reference that the cached orbit
sums of `kronecker.term_offsets` are checked against, term for term."""

import math

import numpy as np

from reillylab.kronecker import index_sum_terms


def orbit_terms(n, l, pairs=0, split=False):
    """(upper, lower, weighted sign) of the rows of `index_sum_terms(n, l)`
    with I[2s] < I[2s+1] and increasing leaders I[2s] over the first
    `pairs` slot pairs, and with `split` also J[2s] < J[2s+1]; each sign
    times the orbit size."""
    up, lo, sg = index_sum_terms(n, l)
    keep = np.ones(len(sg), dtype=bool)
    for s in range(pairs):
        keep &= up[:, 2 * s] < up[:, 2 * s + 1]
        if split:
            keep &= lo[:, 2 * s] < lo[:, 2 * s + 1]
    for s in range(pairs - 1):
        keep &= up[:, 2 * s] < up[:, 2 * s + 2]
    size = 2 ** (pairs * (2 if split else 1)) * math.factorial(pairs)
    return up[keep], lo[keep], sg[keep] * size
