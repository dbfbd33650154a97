"""Moebius transformations of the ball and the conformal chains to the sphere.

All three space forms are handled through one composite: a point is first
carried to the unit sphere (identity for curvature 1, inverse stereographic
projection for curvature 0, Poincare-ball then inverse stereographic for
curvature -1), then moved by the ball Moebius map gamma_g.  The conformal
factor of the composite against the space-form metric has a closed form,
as does its tangential gradient.  gamma_g and its derivatives take one
point (N,) or a batch (..., N) and share one evaluation of gamma_g(x).
The chain and the chart values and Jacobians take a point or a batch
through one code path, and a batch row has the bits of the one-point
call; ball_to_hyperboloid_value is a one-point reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, PoleProximityError
from .immersion import AmbientSpace, CallableMap, ComposedMap
from .secondform import rowdot

_POLE_TOL = 1e-14


@dataclass(frozen=True)
class MoebiusParam:
    """Ball Moebius parameter g with |g| < 1.

    lam = (1 - |g|^2)^{-1/2}; mu is (lam - 1)/|g|^2 continued through
    g = 0, where it equals 1/2.
    """

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.ndim != 1:
            raise ArgumentError("parameter g must be a vector")
        if np.dot(g, g) >= 1.0:
            raise ArgumentError("parameter g must lie inside the unit ball")

    @property
    def lam(self) -> float:
        return 1.0 / math.sqrt(1.0 - float(np.dot(self.g, self.g)))

    @property
    def mu(self) -> float:
        # equals (lam - 1)/|g|^2 without cancellation
        lam = self.lam
        return lam * lam / (1.0 + lam)


def _pole_check(param: MoebiusParam, x):
    """x as an array and f = <x, g>, after raising PoleProximityError if
    a point lies at the Moebius pole; f is a float for one point (N,) and
    (..., 1) for a batch."""
    g = param.g
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        f = low = float(x @ g)
    else:
        # one row dot per point, as the 1-D x @ g computes it; x @ g does not
        f = rowdot(x, g)[..., None]
        low = float(np.min(f, initial=np.inf))
    if 1.0 + low <= _POLE_TOL:
        raise PoleProximityError("point at the Moebius pole: 1 + <x, g> = %g" % (1.0 + low))
    return x, f


def _moebius(param: MoebiusParam, x):
    """x as an array, f = <x, g>, lam, mu and gamma_g(x) after the pole
    check of `_pole_check`."""
    x, f = _pole_check(param, x)
    lam, mu = param.lam, param.mu
    return x, f, lam, mu, (x + (mu * f + lam) * param.g) / (lam * (1.0 + f))


def gamma_value(param: MoebiusParam, x: np.ndarray) -> np.ndarray:
    """gamma_g(x): shape (N,) for one point, (..., N) for a batch."""
    return _moebius(param, x)[-1]


def gamma_jacobian(param: MoebiusParam, x: np.ndarray) -> np.ndarray:
    """Derivative of gamma_g in x: (N, N) for one point, (..., N, N) for a batch."""
    x, f, lam, mu, val = _moebius(param, x)
    g = param.g
    one_f = np.expand_dims(1.0 + f, -1)
    return ((np.eye(g.size) + mu * np.outer(g, g)) / (lam * one_f)
            - val[..., :, None] * g / one_f)


def gamma_hessian(param: MoebiusParam, x: np.ndarray) -> np.ndarray:
    """H[..., i, j, k] = d_j d_k gamma_g^i in x: (N, N, N) for one point,
    (..., N, N, N) for a batch.  With A = I + mu g g^T, H_ijk =
    (2 gamma_i g_j g_k - (A_ij g_k + A_ik g_j) / lam) / (1 + <x, g>)^2."""
    x, f, lam, mu, val = _moebius(param, x)
    g = param.g
    one_f = np.expand_dims(1.0 + f, (-2, -1))
    a = (np.eye(g.size) + mu * np.outer(g, g))[:, :, None] * g
    return (2.0 * val[..., :, None, None] * np.outer(g, g)
            - (a + np.swapaxes(a, 1, 2)) / lam) / one_f**2


def gamma_parameter_jacobian(param: MoebiusParam, x: np.ndarray) -> np.ndarray:
    """Derivative in g at fixed x: (N, N) for one point, (..., N, N) for a batch."""
    x, f, lam, mu, val = _moebius(param, x)
    g = param.g
    dlam = lam**3 * g
    dmu = lam**4 * (lam + 2.0) / (1.0 + lam) ** 2 * g
    dscalar = f * dmu + mu * x + dlam
    dnum = (g[:, None] * dscalar[..., None, :]
            + np.expand_dims(mu * f + lam, -1) * np.eye(g.size))
    den = np.expand_dims(lam * (1.0 + f), -1)
    dden = (1.0 + f) * dlam + lam * x
    return dnum / den - val[..., :, None] * dden[..., None, :] / den


def gamma_map(param: MoebiusParam) -> CallableMap:
    """gamma_g as an ambient map with analytic first and second derivatives."""
    return CallableMap(lambda x: gamma_value(param, x),
                       jacobian_fn=lambda x: gamma_jacobian(param, x),
                       hessian_fn=lambda x: gamma_hessian(param, x))


def plane_to_sphere_value(x: np.ndarray) -> np.ndarray:
    """Inverse stereographic image (..., N+1) of x (..., N)."""
    x = np.asarray(x, dtype=float)
    xx = rowdot(x, x)[..., None]
    return np.concatenate([2.0 * x, xx - 1.0], axis=-1) / (1.0 + xx)


def plane_to_sphere_jacobian(x: np.ndarray) -> np.ndarray:
    """Jacobian (..., N+1, N) of the inverse stereographic projection."""
    x = np.asarray(x, dtype=float)
    s = 1.0 + rowdot(x, x)[..., None, None]
    top = 2.0 * np.eye(x.shape[-1]) / s - 4.0 * (x[..., :, None] * x[..., None, :]) / s**2
    return np.concatenate([top, 4.0 * x[..., None, :] / s**2], axis=-2)


def plane_to_sphere_hessian(x: np.ndarray) -> np.ndarray:
    """Hessian (..., N+1, N, N) of the inverse stereographic projection."""
    x = np.asarray(x, dtype=float)
    s = 1.0 + rowdot(x, x)[..., None, None, None]
    s2, s3 = s * s, s * s * s
    eye = np.eye(x.shape[-1])
    xi, xj, xk = x[..., :, None, None], x[..., None, :, None], x[..., None, None, :]
    top = (-4.0 * (eye[:, :, None] * xk + eye[:, None, :] * xj + xi * eye) / s2
           + 16.0 * xi * xj * xk / s3)
    return np.concatenate([top, 4.0 * eye / s2 - 16.0 * xj * xk / s3], axis=-3)


def plane_to_sphere() -> CallableMap:
    """Inverse stereographic projection of R^N onto S^N minus the pole."""
    return CallableMap(plane_to_sphere_value,
                       jacobian_fn=plane_to_sphere_jacobian,
                       hessian_fn=plane_to_sphere_hessian)


def sphere_to_plane(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    den = 1.0 - y[-1]
    if den <= _POLE_TOL:
        raise PoleProximityError("stereographic pole: 1 - y0 = %g" % den)
    return y[:-1] / den


def ball_to_hyperboloid_value(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    s = 1.0 - float(w @ w)
    if s <= _POLE_TOL:
        raise PoleProximityError("point on the ball boundary")
    return np.concatenate([2.0 * w, [1.0 + float(w @ w)]]) / s


def hyperboloid_to_ball(x: np.ndarray) -> np.ndarray:
    """Chart of one point (N+1,) or a batch (..., N+1) into the ball."""
    x = np.asarray(x, dtype=float)
    den = 1.0 + x[..., -1:]
    if np.min(den, initial=np.inf) <= _POLE_TOL:
        raise PoleProximityError("hyperboloid chart pole")
    return x[..., :-1] / den


def hyperboloid_to_ball_jacobian(x: np.ndarray) -> np.ndarray:
    """Jacobian (..., N, N+1) of the chart at x (..., N+1)."""
    x = np.asarray(x, dtype=float)
    den = 1.0 + x[..., -1, None, None]
    return np.concatenate([np.eye(x.shape[-1] - 1) / den,
                           -x[..., :-1, None] / den**2], axis=-1)


def hyperboloid_to_ball_hessian(x: np.ndarray) -> np.ndarray:
    """Hessian (..., N, N+1, N+1) of the chart at x (..., N+1)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] - 1
    den = 1.0 + x[..., -1, None]
    hess = np.zeros(x.shape[:-1] + (n, n + 1, n + 1))
    diag = np.arange(n)
    hess[..., diag, diag, n] = hess[..., diag, n, diag] = -1.0 / (den * den)
    hess[..., diag, n, n] = 2.0 * x[..., :n] / (den * den * den)
    return hess


def hyperboloid_to_ball_map() -> CallableMap:
    """Upper hyperboloid sheet onto the Poincare ball."""
    return CallableMap(hyperboloid_to_ball,
                       jacobian_fn=hyperboloid_to_ball_jacobian,
                       hessian_fn=hyperboloid_to_ball_hessian)


class ConformalChain:
    """Composite map of a space form into the round sphere.

    For curvature c the chain is gamma_g (c = 1), gamma_g after inverse
    stereographic projection (c = 0), or that after the hyperboloid-to-ball
    chart (c = -1).  rho is the log conformal factor of the chain against
    the space-form metric; grad_rho is its gradient, tangent to the space
    form at the argument.  Every method takes one point (N,) or a batch
    (..., N) of space-form coordinates through one code path; a batch row
    has the bits of the one-point call.  value, rho, factor and grad_rho
    raise PoleProximityError at a point that the chain takes to the
    Moebius pole, and a batch raises it when one of its rows would.
    """

    def __init__(self, c: float, param: MoebiusParam, dim: int):
        if c not in (-1.0, 0.0, 1.0):
            raise ArgumentError("curvature must be -1, 0, or 1")
        self.c = float(c)
        self.param = param
        self.dim = int(dim)  # dimension N of the space form
        if param.g.size != dim + 1:
            raise ArgumentError("parameter g must have %d components" % (dim + 1))
        self.space = AmbientSpace(self.c, dim)

    def sphere_point(self, x: np.ndarray) -> np.ndarray:
        """The pre-Moebius point on the unit sphere."""
        x = np.asarray(x, dtype=float)
        if self.c == 1.0:
            return x
        return plane_to_sphere_value(x if self.c == 0.0 else hyperboloid_to_ball(x))

    def test_map(self) -> CallableMap:
        """The chain as an ambient map with analytic first derivatives."""
        gam = gamma_map(self.param)
        if self.c == 1.0:
            return gam
        if self.c == 0.0:
            return ComposedMap(gam, plane_to_sphere())
        return ComposedMap(gam, ComposedMap(plane_to_sphere(),
                                            hyperboloid_to_ball_map()))

    def value(self, x: np.ndarray) -> np.ndarray:
        return gamma_value(self.param, self.sphere_point(x))

    def rho(self, x: np.ndarray):
        """Log conformal factor, a scalar for one point, (...,) for a batch."""
        x = np.asarray(x, dtype=float)
        y = self.sphere_point(x)
        _pole_check(self.param, y)
        moeb = -math.log(self.param.lam) - np.log1p(rowdot(y, self.param.g))
        if self.c == 1.0:
            return moeb
        if self.c == 0.0:
            return moeb + math.log(2.0) - np.log1p(rowdot(x, x))
        w = hyperboloid_to_ball(x)
        ww = rowdot(w, w)
        return moeb + np.log((1.0 - ww) / (1.0 + ww))

    def factor(self, x: np.ndarray):
        """Conformal factor e^{2 rho} of the chain at x."""
        return np.exp(2.0 * self.rho(x))

    def grad_rho(self, x: np.ndarray) -> np.ndarray:
        """Gradient of rho, tangent to the space form (ambient components);
        c = 0 and c = -1 share the flat chain's gradient at the plane point y.
        Raises PoleProximityError where rho does."""
        x = np.asarray(x, dtype=float)
        g = self.param.g
        if self.c == 1.0:
            _pole_check(self.param, x)
            grad = -g / (1.0 + rowdot(x, g)[..., None])
            return grad - rowdot(grad, x)[..., None] * x
        y = x if self.c == 0.0 else hyperboloid_to_ball(x)
        yy = rowdot(y, y)[..., None]
        grad = -2.0 * y / (1.0 + yy)
        if self.c == -1.0:
            # gradient of the ball chart's log factor log((1 - |w|^2) / 2)
            grad = -2.0 * y / (1.0 - yy) + grad
        sphere_y, _ = _pole_check(self.param, plane_to_sphere_value(y))
        f = rowdot(sphere_y, g)[..., None]
        grad = grad - np.swapaxes(plane_to_sphere_jacobian(y), -1, -2) @ g / (1.0 + f)
        if self.c == 0.0:
            return grad
        coord = (np.swapaxes(hyperboloid_to_ball_jacobian(x), -1, -2)
                 @ grad[..., None])[..., 0]
        return self.space.project_radial_out(x, coord * self.space.metric_diag)
