"""Newton transformations of a second fundamental form.

Two independent evaluation paths are provided.  The antisymmetrized-sum
path spells out the defining generalized-Kronecker contraction and serves
as the oracle; the recursion path builds the whole family iteratively from
T_0 = I and is the production implementation.  Tests require the two to
agree to machine precision.  For codimension p > 1 the recursion path takes
its odd, vector-valued ranks from the oracle itself, so there the two agree
by construction; those ranks are checked through the trace law and through
the even rank that consumes them.

For odd rank the transformation is vector valued (one matrix per normal
direction); for hypersurfaces it collapses to the scalar-valued convention
(component along the unit normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError, UnsupportedConfiguration
from .kronecker import scatter_sum, term_offsets
from .secondform import form_array


@dataclass(frozen=True)
class NewtonTensor:
    """Newton transformation of rank r, of one form or of each form of a
    batch (leading axes ...).

    data has shape (..., n, n) when scalar valued (even r, or any r with
    p = 1) and (..., p, n, n) when vector valued (odd r with p > 1).
    """

    r: int
    data: np.ndarray
    vector_valued: bool

    @property
    def n(self) -> int:
        return self.data.shape[-1]

    def as_matrix(self) -> np.ndarray:
        if self.vector_valued:
            raise UnsupportedConfiguration(
                "rank %d Newton tensor is vector valued for codimension > 1; "
                "no scalar matrix payload exists" % self.r)
        return self.data

    def trace(self):
        if self.vector_valued:
            return np.einsum("...xii->...x", self.data)
        return np.trace(self.data, axis1=-2, axis2=-1)


def newton_kronecker(h, r: int) -> NewtonTensor:
    """Oracle path: evaluate the defining antisymmetrized sum directly,
    for one form or for every form of a batch (..., p, n, n)."""
    h = form_array(h)
    n, p = h.shape[-1], h.shape[-3]
    lead = h.shape[:-3]
    if not 0 <= r <= n:
        raise ArgumentError("rank must satisfy 0 <= r <= n, got %d" % r)
    vector = r % 2 == 1 and p > 1
    if r == 0:
        return NewtonTensor(0, np.broadcast_to(np.eye(n), lead + (n, n)).copy(),
                            vector_valued=False)
    l = r + 1
    # offset groups: the scattered slot r, the gram factors
    # gram[I[2s], J[2s], I[2s+1], J[2s+1]] and, for odd r, the form
    # factor h[I[r-1], J[r-1]]; a gram factor is symmetric under swapping
    # its two slot pairs, so the sum adds one term per orbit
    grams = [(2 * s, l + 2 * s, 2 * s + 1, l + 2 * s + 1) for s in range(r // 2)]
    sg, target, *offsets = term_offsets(n, l, (r, l + r), *grams,
                                        *[(r - 1, l + r - 1)] * (r % 2),
                                        pairs=r // 2)
    if len(sg) == 0:
        return NewtonTensor(r, np.zeros(lead + (p,) * vector + (n, n)), vector)
    nn = n * n
    # np.take over flat offsets gathers about ten times faster than
    # indexing with four index arrays
    gram = np.einsum("...xab,...xcd->...abcd", h, h).reshape(lead + (nn * nn,))
    prod = sg
    for offset in offsets[:r // 2]:
        prod = prod * np.take(gram, offset, axis=-1)
    fact = math.factorial(r)
    if r % 2 == 0:
        return NewtonTensor(r, scatter_sum((n, n), target, prod) / fact,
                            vector_valued=False)
    # one row per normal direction: (..., p, T) terms
    hpair = np.take(h.reshape(lead + (p, nn)), offsets[-1], axis=-1)
    out = scatter_sum((n, n), target, prod[..., None, :] * hpair)
    out /= fact
    return NewtonTensor(r, out if vector else out[..., 0, :, :], vector)


def newton_chain(h, rmax: int):
    """Recursion path: all Newton tensors and curvature scalars up to rmax,
    for one form or for every form of a batch (..., p, n, n).

    Returns (tensors, scalars, vectors) where tensors[r] is a NewtonTensor,
    scalars[r] = S_r for even r (every r when p = 1) and vectors[r] holds
    the normal components of S_r for odd r, each with the batch's leading
    axes.  Every row is bitwise the chain of its own form.

    The even step is the recursion T_r = S_r I - sum_alpha h^alpha
    T^alpha_{r-1} with S_r = (1/r) sum T^alpha_{r-1} : h^alpha.  For p = 1
    the analogous scalar relation T_r = S_r I - h T_{r-1} closes the chain
    at every rank.  For p > 1 no one-step recursion exists for the odd,
    vector-valued ranks (the obvious candidate S^alpha_r I - h^alpha
    T_{r-1} reproduces the correct trace but not the tensor), so odd
    intermediates are evaluated from the defining antisymmetrized sum
    (newton_kronecker) and agree with the oracle by construction.
    """
    h = form_array(h)
    n, p = h.shape[-1], h.shape[-3]
    if not 0 <= rmax <= n:
        raise ArgumentError("rank must satisfy 0 <= rmax <= n, got %d" % rmax)
    eye = np.eye(n)
    tensors = {0: newton_kronecker(h, 0)}
    scalars = {0: 1.0}
    vectors = {}
    prev = eye  # scalar-valued payload of T_{r-1}
    prev_vec = None  # (..., p, n, n) payload of T_{r-1} when r - 1 is odd
    for r in range(1, rmax + 1):
        if r % 2 == 1:
            svec = np.einsum("...ij,...xij->...x", prev, h) / r
            vectors[r] = svec
            if p == 1:
                cur = (svec[..., None, None] * eye
                       - np.einsum("...xik,...kj->...xij", h, prev))
                scalars[r] = svec[..., 0][()]
                tensors[r] = NewtonTensor(r, cur[..., 0, :, :], vector_valued=False)
            else:
                tensors[r] = newton_kronecker(h, r)
                cur = tensors[r].data
            prev_vec = cur
        else:
            s = np.einsum("...xij,...xij->...", prev_vec, h) / r
            scalars[r] = s
            cur = (s[..., None, None] * eye
                   - np.einsum("...xik,...xkj->...ij", h, prev_vec))
            tensors[r] = NewtonTensor(r, cur, vector_valued=False)
            prev = cur
    return tensors, scalars, vectors


def newton_tensor(h, r: int) -> NewtonTensor:
    """Newton transformation of rank r, through the recursion path, for one
    form or for every form of a batch (..., p, n, n)."""
    tensors, _, _ = newton_chain(h, r)
    return tensors[r]


def weighted_mean_curvature(T, h) -> np.ndarray:
    """Normal components of H_T = sum_{i,j,alpha} h^alpha_ij T_ij e_alpha."""
    h = form_array(h)
    if isinstance(T, NewtonTensor):
        if T.vector_valued:
            raise UnsupportedConfiguration(
                "H_T requires a scalar-valued (even rank) weight tensor")
        T = T.data
    T = np.asarray(T, dtype=float)
    if T.shape[-2:] != h.shape[-2:]:
        raise ShapeError("weight tensor must be n x n")
    return np.einsum("...xij,...ij->...x", h, T)
