"""The mean curvature weight tensor and its positivity certificates.

For an immersion with nonvanishing mean curvature the tensor
T = nH I - h_principal (h_principal = component of the second fundamental
form along the unit mean curvature vector) drives a sharp second-eigenvalue
bound.  Positivity of T and of T' = tr(T) I - 2 T is what makes the bound
usable; for n = 4 it reduces to a constrained minimization of
3 x1 + x2 + x3 + x4 over the set {e1(x) = a, e2(x) = b}, solved here in
closed form and cross-checked by dense sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateNormalError
from .secondform import form_array, rowdot


@dataclass(frozen=True)
class WeightTensorData:
    """T = nH I - h_principal with its positivity diagnostics, for one form
    or with the leading axes of a batch of forms."""

    T: np.ndarray
    trace: float
    H: float
    H2: float
    eigmin_T: float
    eigmin_Tprime: float
    principal: np.ndarray  # h_principal, the form along the unit mean vector
    principal_curvatures: np.ndarray  # eigenvalues of h_principal, ascending


def _mean_scalars(h):
    """Mean curvature vectors hvec (..., p), lengths H = |hvec| (...) and
    second mean curvatures H2 (...) of checked forms h (..., p, n, n)."""
    n = h.shape[-1]
    hvec = np.einsum("...xii->...x", h) / n
    H = np.sqrt(rowdot(hvec, hvec))
    H2 = ((n * H) ** 2 - np.sum(h * h, axis=(-3, -2, -1))) / (n * (n - 1))
    return hvec, H, H2


def mean_curvature_tensor(h) -> WeightTensorData:
    """Build T = nH I - h_principal and report its eigenvalue minima, for
    one form or for every form of a batch (..., p, n, n).

    Requires |H| > 0 at every form.  H2 is the second mean curvature
    defined through n(n-1) H2 = (nH)^2 - |h|^2.
    """
    h = form_array(h)
    n = h.shape[-1]
    hvec, H, H2 = _mean_scalars(h)
    if np.any(H < 1e-14):
        raise DegenerateNormalError("mean curvature tensor undefined at |H| = 0")
    principal = np.einsum("...x,...xij->...ij", hvec / H[..., None], h)
    eye = np.eye(n)
    T = n * H[..., None, None] * eye - principal
    trT = np.trace(T, axis1=-2, axis2=-1)
    Tprime = trT[..., None, None] * eye - 2.0 * T
    return WeightTensorData(
        T=T, trace=trT, H=H, H2=H2,
        eigmin_T=np.min(np.linalg.eigvalsh(T), axis=-1),
        eigmin_Tprime=np.min(np.linalg.eigvalsh(Tprime), axis=-1),
        principal=principal,
        principal_curvatures=np.linalg.eigvalsh(principal))


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


def tilted_sum_minimum_sampled(a: float, b: float, samples: int = 200000,
                               seed: int = 0) -> float:
    """Independent check of tilted_sum_minimum by dense sampling.

    The constraint set is the round 2-sphere
    {x = (a/4) 1 + R u : |u| = 1, u ⊥ 1},  R^2 = 3 a^2 / 4 - 2 b,
    so f is sampled over random unit u and the best sample is polished
    with a derivative-free local descent in a tangent chart.
    """
    from scipy.optimize import minimize

    if a <= 0 or b <= 0:
        raise ArgumentError("need a > 0 and b > 0")
    R2 = 0.75 * a * a - 2.0 * b
    if R2 <= 0:
        raise ArgumentError("constraint set is empty unless 3 a^2 > 8 b")
    R = math.sqrt(R2)
    ones = np.ones(4) / 2.0
    basis = []
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        v -= np.dot(v, ones) * ones
        for w in basis:
            v -= np.dot(v, w) * w
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
    B = np.array(basis[:3]).T  # (4, 3) orthonormal columns spanning 1-perp

    def value(u):
        x = a / 4.0 + R * (B @ u)
        return 3.0 * x[0] + x[1] + x[2] + x[3]

    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = a / 4.0 + R * u @ B.T
    f = 3.0 * x[:, 0] + x[:, 1:].sum(axis=1)
    i0 = int(np.argmin(f))
    u0 = u[i0]
    # tangent chart at u0
    t1 = np.cross(u0, [1.0, 0.0, 0.0])
    if np.linalg.norm(t1) < 1e-6:
        t1 = np.cross(u0, [0.0, 1.0, 0.0])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(u0, t1)

    def chart(ab):
        w = u0 + ab[0] * t1 + ab[1] * t2
        return value(w / np.linalg.norm(w))

    res = minimize(chart, np.zeros(2), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return float(min(f[i0], res.fun))
