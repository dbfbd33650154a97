"""Pointwise second fundamental form data."""

from __future__ import annotations

from dataclasses import dataclass

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
    scale = np.maximum(1.0, _form_max(np.abs(h)))
    if np.any(_form_max(np.abs(h - ht)) > _SYM_TOL * scale):
        raise ShapeError("each h[alpha] must be symmetric")
    return 0.5 * (h + ht)


def _form_max(a) -> np.ndarray:
    """Largest entry of each set of forms a (..., p, n, n), entry by entry
    (a reduction over short trailing axes costs far more per row)."""
    flat = a.reshape(a.shape[:-3] + (-1,))
    top = flat[..., 0]
    for i in range(1, flat.shape[-1]):
        top = np.maximum(top, flat[..., i])
    return top


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

    def mean_vector(self) -> np.ndarray:
        """Mean curvature vector components (trace average per normal)."""
        return np.einsum("xii->x", self.h) / self.n

    def norm2(self) -> float:
        """Squared length of the full form, sum over all components."""
        return float(np.sum(self.h * self.h))
