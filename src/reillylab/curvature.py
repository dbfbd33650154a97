"""Induced curvature from the Gauss equations and Lovelock-type tensors.

Conventions: R4[i,j,k,l] is antisymmetric in (i,j) and (k,l) and symmetric
under pair swap; Ric[i,k] = sum_j R4[i,j,k,j]; scalar = trace of Ric.

The Lovelock family is built from antisymmetrized curvature products:

    L_k           = 2^-k     sum delta^{I}_{J} R..R            (2k slots)
    E2[k][i,j]    = -2^-(k+1) sum delta^{I i}_{J j} R..R        (2k+1 slots)
    P4[k][s,t,l,m] = 2^-k    sum delta^{I s t}_{J l m} R..R     (k-1 factors)

where each R factor couples two upper slots with the matching two lower
slots.  E2 is the Einstein tensor for k = 1 and vanishes identically when
2k + 1 > n.  The sums add one term per orbit of the factors' slot
symmetries (kronecker.term_offsets): R factors permuted whole, and each
factor's upper or lower slots swapped.  That is the defining sum when R4's
pair antisymmetries hold exactly, as they do for gauss_curvature; a
CurvatureData built from another tensor stores it as given, so the caller
projects it onto those symmetries first (the tests do so for random
tensors).

The printed source for the rank-(2k-1) contraction identity (the relation
between sum_a T^a_{2k-1} h^a and the Lovelock data) drops a factor 2^(t+1)
when collapsing antisymmetrized curvature blocks into P4, and its k = 1
specialization contradicts the directly verifiable relation
sum_a T^a_1 h^a = Ric - (n-1) c I.  The coefficients implemented in
contraction_rhs below are re-derived from scratch; the identity suite and
the tests pin them against the independent antisymmetrized-sum evaluation
of the left-hand side (newton_contraction of newton.newton_kronecker's
T_{2k-1}) for k = 1..3 and all ambient curvatures.  In the same spirit
the convention E2[0] = -I/2 (rather than -I) is what makes the trace
relation sum_s P4[k][s,i,s,j] = -(n-2k+1) E2[k-1][i,j] hold at k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .kronecker import scatter_sum, term_offsets
from .secondform import SecondFundamentalForm


@dataclass(frozen=True)
class CurvatureData:
    """Riemann, Ricci and scalar curvature of an induced metric."""

    R4: np.ndarray
    Ric: np.ndarray
    scalar: float
    c: float

    @property
    def n(self) -> int:
        return self.Ric.shape[0]


def gauss_curvature(h, c: float) -> CurvatureData:
    """Curvature of the induced metric from the Gauss equations in an
    ambient space form of curvature c."""
    if not isinstance(h, SecondFundamentalForm):
        h = SecondFundamentalForm(np.asarray(h, dtype=float))
    n = h.n
    eye = np.eye(n)
    dd = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    hh = np.einsum("xik,xjl->ijkl", h.h, h.h) - np.einsum("xil,xjk->ijkl", h.h, h.h)
    R4 = c * dd + hh
    Ric = np.einsum("ijkj->ik", R4)
    return CurvatureData(R4=R4, Ric=Ric, scalar=float(np.trace(Ric)), c=float(c))


def _r_groups(l: int, pairs: int):
    """Offset groups of the first `pairs` curvature factors of an l-slot
    sum: factor s is R4[I[2s], I[2s+1], J[2s], J[2s+1]]."""
    return [(2 * s, 2 * s + 1, l + 2 * s, l + 2 * s + 1) for s in range(pairs)]


def _r_product(R4, sg, offsets) -> np.ndarray:
    flat = R4.ravel()
    prod = sg
    for offset in offsets:
        prod = prod * np.take(flat, offset)
    return prod


def lovelock_scalar(curv: CurvatureData, k: int) -> float:
    n = curv.n
    if not 1 <= k <= n // 2:
        raise ArgumentError("order must satisfy 1 <= k <= n/2")
    sg, *offsets = term_offsets(n, 2 * k, *_r_groups(2 * k, k), pairs=k,
                                split=True)
    return float(_r_product(curv.R4, sg, offsets).sum()) / 2 ** k


def lovelock_einstein(curv: CurvatureData, k: int):
    """E2[k]; returns None when 2k + 1 > n."""
    n = curv.n
    if k == 0:
        return -0.5 * np.eye(n)
    if 2 * k + 1 > n:
        return None
    l = 2 * k + 1
    sg, target, *offsets = term_offsets(n, l, (2 * k, l + 2 * k),
                                        *_r_groups(l, k), pairs=k, split=True)
    out = scatter_sum((n, n), target, _r_product(curv.R4, sg, offsets))
    return -out / 2 ** (k + 1)


def lovelock_p4(curv: CurvatureData, k: int) -> np.ndarray:
    """Four-index polynomial P4[k][s,t,l,m] with k-1 curvature factors."""
    n = curv.n
    if not 1 <= k <= n // 2:
        raise ArgumentError("order must satisfy 1 <= k <= n/2")
    # the free slots form the last curvature group, which stays fixed
    sg, *offsets, target = term_offsets(n, 2 * k, *_r_groups(2 * k, k),
                                        pairs=k - 1, split=True)
    prod = _r_product(curv.R4, sg, offsets)
    return scatter_sum((n, n, n, n), target, prod) / 2 ** k


def contraction_rhs(curv: CurvatureData, k: int) -> np.ndarray:
    """Lovelock-side of the rank-(2k-1) contraction identity.

    Evaluates, for r = 2k,

      sum_{m,a} T^a_{r-1, mj} h^a_{mi}
        = 1/(2k-1)! * sum_{t=0}^{k-1} (-c)^(k-1-t) C(k-1, t)
            (n-2t-2)!/(n-2k)! [ W_{t+1} + 2 c (n-2t-1) E2[t] ]

    where W_u[i,j] = sum_{s,t,l} P4[u][s,t,l,j] R[s,t,l,i] equals
    (E2[u] + L_u I / 2)/u whenever 2u < n.  W is used directly so the
    formula stays valid at the boundary case 2k = n.
    """
    n = curv.n
    c = curv.c
    if not 1 <= k <= n // 2:
        raise ArgumentError("order must satisfy 1 <= k <= n/2")
    eye = np.eye(n)
    acc = np.zeros((n, n))
    for t in range(k):
        P = lovelock_p4(curv, t + 1)
        W = np.einsum("stlj,stli->ij", P, curv.R4)
        E = lovelock_einstein(curv, t)
        if E is None:
            raise ArgumentError("contraction identity needs 2t < n for all t < k")
        coeff = ((-c) ** (k - 1 - t) * math.comb(k - 1, t)
                 * math.factorial(n - 2 * t - 2) / math.factorial(n - 2 * k))
        acc += coeff * (W + 2.0 * c * (n - 2 * t - 1) * E)
    return acc / math.factorial(2 * k - 1)


def newton_contraction(T, h: SecondFundamentalForm) -> np.ndarray:
    """sum_{m,a} T^a_{mj} h^a_{mi} for a Newton tensor T of the form h."""
    payload = T.data if T.data.ndim == 3 else T.data[None]
    return np.einsum("xmj,xmi->ij", payload, h.h)

