"""The mean curvature weight tensor and the closed-form minimum behind its
positivity.

For an immersion with nonvanishing mean curvature the tensor
T = nH I - h_principal (h_principal = component of the second fundamental
form along the unit mean curvature vector) drives a sharp second-eigenvalue
bound.  Positivity of T and of T' = tr(T) I - 2 T is what makes the bound
usable; for n = 4 it reduces to a constrained minimization of
3 x1 + x2 + x3 + x4 over the set {e1(x) = a, e2(x) = b}, solved here in
closed form (the tests hold it against dense sampling).  The reports take
the eigenvalue minima of T and T' in their one sample pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateNormalError
from .secondform import form_array, rowdot


@dataclass(frozen=True)
class WeightTensorData:
    """T = nH I - h_principal with the mean curvatures it is built from,
    for one form or with the leading axes of a batch of forms."""

    T: np.ndarray
    H: float
    H2: float
    principal: np.ndarray  # h_principal, the form along the unit mean vector


def _mean_scalars(h):
    """Mean curvature vectors hvec (..., p), lengths H = |hvec| (...) and
    second mean curvatures H2 (...) of checked forms h (..., p, n, n)."""
    n = h.shape[-1]
    hvec = np.einsum("...xii->...x", h) / n
    H = np.sqrt(rowdot(hvec, hvec))
    H2 = ((n * H) ** 2 - np.sum(h * h, axis=(-3, -2, -1))) / (n * (n - 1))
    return hvec, H, H2


def mean_curvature_tensor(h) -> WeightTensorData:
    """Build T = nH I - h_principal, for one form or for every form of a
    batch (..., p, n, n).

    Requires |H| > 0 at every form.  H2 is the second mean curvature
    defined through n(n-1) H2 = (nH)^2 - |h|^2.
    """
    h = form_array(h)
    n = h.shape[-1]
    hvec, H, H2 = _mean_scalars(h)
    if np.any(H < 1e-14):
        raise DegenerateNormalError("mean curvature tensor undefined at |H| = 0")
    principal = np.einsum("...x,...xij->...ij", hvec / H[..., None], h)
    T = n * H[..., None, None] * np.eye(n) - principal
    return WeightTensorData(T=T, H=H, H2=H2, principal=principal)


def tilted_sum_minimum(a: float, b: float):
    """Minimum of f(x) = 3 x1 + x2 + x3 + x4 over
    K = {x in R^4 : e1(x) = a, e2(x) = b} with a, b > 0 and 9 a^2 > 24 b.

    Returns (minimum, witness).  The witness has the form
    x = (a - 3t, t, t, t) with t = (3a + sqrt(9 a^2 - 24 b)) / 12.
    """
    if a <= 0 or b <= 0:
        raise ArgumentError("need a > 0 and b > 0")
    disc = 9.0 * a * a - 24.0 * b
    if disc <= 0:
        raise ArgumentError("constraint set degenerates unless 9 a^2 > 24 b")
    root = math.sqrt(disc)
    t = (3.0 * a + root) / 12.0
    witness = np.array([a - 3.0 * t, t, t, t])
    return (3.0 * a - root) / 2.0, witness
