"""Pointwise second fundamental form data and mean curvature profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

_SYM_TOL = 1e-12


def symmetrized(h) -> np.ndarray:
    """Forms h (..., p, n, n) checked for symmetry and symmetrized.

    Each form h[k] of a batch is checked against its own scale
    max(1, max |h[k]|); raises ShapeError on a bad shape, on n < 2 or on
    an asymmetric form.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 3 or h.shape[-1] != h.shape[-2]:
        raise ShapeError("h must have shape (p, n, n)")
    if h.shape[-1] < 2:
        raise ShapeError("need intrinsic dimension n >= 2")
    ht = np.swapaxes(h, -1, -2)
    axes = (-3, -2, -1)
    scale = np.maximum(1.0, np.max(np.abs(h), axis=axes))
    if np.any(np.max(np.abs(h - ht), axis=axes) > _SYM_TOL * scale):
        raise ShapeError("each h[alpha] must be symmetric")
    return 0.5 * (h + ht)


def form_array(h) -> np.ndarray:
    """Checked, symmetrized forms (..., p, n, n) of a SecondFundamentalForm,
    of one (n, n) hypersurface form or of an array of forms."""
    if isinstance(h, SecondFundamentalForm):
        return h.h
    h = np.asarray(h, dtype=float)
    return symmetrized(h[None] if h.ndim == 2 else h)


def rowdot(u, v) -> np.ndarray:
    """Dot products of the last axes, bitwise equal to the 1-D np.dot."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Second fundamental form at a point, stored as h[alpha, i, j] in an
    orthonormal tangent/normal frame.  alpha runs over the p normal
    directions, i, j over the n tangent directions."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim == 2:
            h = h[None, :, :]
        if h.ndim != 3:
            raise ShapeError("h must have shape (p, n, n)")
        object.__setattr__(self, "h", symmetrized(h))

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def p(self) -> int:
        return self.h.shape[0]

    @classmethod
    def from_principal(cls, curvatures) -> "SecondFundamentalForm":
        """Hypersurface (p = 1) form with the given principal curvatures."""
        k = np.asarray(curvatures, dtype=float)
        return cls(np.diag(k)[None, :, :])

    def mean_vector(self) -> np.ndarray:
        """Mean curvature vector components (trace average per normal)."""
        return np.einsum("xii->x", self.h) / self.n

    def norm2(self) -> float:
        """Squared length of the full form, sum over all components."""
        return float(np.sum(self.h * self.h))

@dataclass(frozen=True)
class MeanCurvatureProfile:
    """Symmetric-function data of a second fundamental form.

    scalars[r] holds S_r for even r (and for every r when p = 1, the
    hypersurface scalar convention).  vectors[r] holds the normal components
    of the vector-valued S_r for odd r.  means[r] = S_r / C(n, r).
    """

    n: int
    p: int
    scalars: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    hvec: np.ndarray = None
    hlen: float = 0.0
    norm2: float = 0.0
    tau2: float = None

    def mean(self, r: int) -> float:
        return self.scalars[r] / math.comb(self.n, r)
