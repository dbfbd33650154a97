"""Dense-sampling oracle of `reillylab.ellipticity.tilted_sum_minimum`,
the closed-form minimum of 3 x1 + x2 + x3 + x4 over
{x in R^4 : e1(x) = a, e2(x) = b}."""

import math

import numpy as np
from scipy.optimize import minimize

from reillylab.errors import ArgumentError


def tilted_sum_minimum_sampled(a: float, b: float, samples: int = 200000,
                               seed: int = 0) -> float:
    """Independent check of tilted_sum_minimum by dense sampling.

    The constraint set is the round 2-sphere
    {x = (a/4) 1 + R u : |u| = 1, u ⊥ 1},  R^2 = 3 a^2 / 4 - 2 b,
    so f is sampled over random unit u and the best sample is polished
    with a derivative-free local descent in a tangent chart.
    """
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
