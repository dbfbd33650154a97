"""Parametric immersions into space forms with orthonormal frames.

A ParametricImmersion couples a parameter domain (a product of unit
spheres) with an ambient-valued map and a target space form.  The
frame machinery produces, at domain points, an orthonormal tangent and
normal frame together with the second fundamental form expressed in that
frame, which is the raw material for every curvature and eigenvalue
computation downstream.

frame_at takes one point (embed_dim,) or a batch (K, embed_dim) and returns
a FrameBatch of arrays, with no leading axis for one point; one point is
the one-row case of the same pass.  The pass works on coordinate-major
arrays (..., K): short loops over n, p and the ambient coordinates of
elementwise products over all points, so each row gets the bits of its
one-point call whatever the batch.  Tangents and coeff = L^-1
(g = L L^T) come from a Gram-Schmidt recurrence over the chart
derivatives.  Normals and sphere-chart tangents come from masked
Gram-Schmidt: a candidate is projected, twice, against the fixed vectors
(the point, or the radial and tangent vectors) and the basis slots that
can be filled (unfilled ones hold zeros), and a row takes it only while
it still needs vectors and the candidate's norm passes the threshold.
The second pass leaves the charts and frames orthonormal to rounding
even where a remainder is short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ImmersionError, ShapeError
from .secondform import rowdot, symmetrized

_CONSTRAINT_TOL = 1e-8
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class AmbientSpace:
    """Simply connected space form of curvature c realized in coordinates.

    c = 0 is flat space R^dim; c = 1 the unit sphere in R^(dim+1); c = -1
    the hyperboloid <x,x>' = -1, x^last >= 1, in Lorentz coordinates with
    signature (+,...,+,-), time axis stored last.
    """

    c: float
    dim: int

    def __post_init__(self):
        if self.c not in (-1.0, 0.0, 1.0):
            raise ArgumentError("curvature must be one of -1, 0, 1")
        if self.dim < 2:
            raise ArgumentError("ambient dimension must be at least 2")

    @property
    def lorentz(self) -> bool:
        return self.c == -1.0

    @property
    def coords(self) -> int:
        """Number of stored coordinates for points of this space."""
        return self.dim if self.c == 0.0 else self.dim + 1

    @property
    def metric_diag(self) -> np.ndarray:
        d = np.ones(self.coords)
        if self.lorentz:
            d[-1] = -1.0
        return d

    def inner(self, u, v) -> float:
        """Ambient inner product (Lorentz-aware); broadcasts over leading axes."""
        return _dot(np.moveaxis(np.asarray(u), -1, 0),
                    np.moveaxis(np.asarray(v), -1, 0), self.metric_diag)

    def geodesic_radius(self, r0: float) -> float:
        """Geodesic radius of the sphere of this space whose Euclidean
        radius parameter is r0: r0, asin r0 or asinh r0 for c = 0, 1, -1."""
        if self.c == 0.0:
            return r0
        if self.c == 1.0:
            return math.asin(min(r0, 1.0))
        return math.asinh(r0)

    def constraint_residual(self, x):
        """Deviation of x (..., coords) from the model constraint (0 for
        flat space), one value per point."""
        x = np.asarray(x, dtype=float)
        if self.c == 0.0:
            return np.zeros(x.shape[:-1])
        target = 1.0 if self.c == 1.0 else -1.0
        return np.abs(self.inner(x, x) - target)

    def project_radial_out(self, x, v) -> np.ndarray:
        """Remove from v the component along the position direction x.

        For c = 1 the position is a unit vector; for c = -1 it is timelike
        with <x,x>' = -1, so the projection coefficient flips sign.  x and
        v broadcast over leading axes.
        """
        if self.c == 0.0:
            return np.asarray(v, dtype=float)
        coeff = np.expand_dims(self.inner(v, x), -1)
        if self.c == 1.0:
            return v - coeff * x
        return v + coeff * x


class ParamDomain:
    """Abstract parameter domain.  Points are stored in an embedding of
    dimension embed_dim; charts are normal-coordinate charts at a point."""

    dim: int
    embed_dim: int

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def chart(self, w: np.ndarray) -> np.ndarray:
        """Orthonormal tangent basis tau (dim, embed_dim) at w, or one per
        row (K, dim, embed_dim) of a batch w (K, embed_dim)."""
        raise NotImplementedError

    def chart_point(self, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Domain point reached from w by chart coordinates u."""
        raise NotImplementedError

    def chart_second(self, w: np.ndarray) -> np.ndarray:
        """Second derivatives (dim, dim, embed_dim) of chart_point at u = 0,
        or one set per row (K, dim, dim, embed_dim) of a batch."""
        raise NotImplementedError

    def centroid(self, points) -> np.ndarray:
        """Representative domain point of a small cluster (k, embed_dim) of
        points, or one per cluster of a batch (..., k, embed_dim)."""
        return np.mean(np.asarray(points, dtype=float), axis=-2)


class SphereProduct(ParamDomain):
    """Product of unit spheres S^{d_1} x ... x S^{d_k}.

    Points are concatenated unit vectors, one slot of length d_f + 1 per
    factor.  The chart at w moves each factor along its tangent plane and
    renormalizes, so first derivatives are the tangents themselves and the
    only second-derivative term is the in-factor radial pullback -w_f.
    """

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ArgumentError("factor dimensions must be positive")
        self.dims = dims
        self.dim = sum(dims)
        self.embed_dim = sum(d + 1 for d in dims)
        self.slices = []
        start = 0
        for d in dims:
            self.slices.append(slice(start, start + d + 1))
            start += d + 1

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        w = np.empty(self.embed_dim)
        for sl in self.slices:
            v = rng.standard_normal(sl.stop - sl.start)
            w[sl] = v / np.linalg.norm(v)
        return w

    def chart(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        tau = np.zeros(w.shape[:-1] + (self.dim, self.embed_dim))
        row = 0
        for d, sl in zip(self.dims, self.slices):
            tau[..., row:row + d, sl] = _sphere_tangents(w[..., sl])
            row += d
        return tau

    def chart_point(self, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        tau = self.chart(w)
        moved = np.asarray(w, dtype=float) + u @ tau
        out = moved.copy()
        for sl in self.slices:
            out[sl] = moved[sl] / np.linalg.norm(moved[sl])
        return out

    def chart_second(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        sec = np.zeros(w.shape[:-1] + (self.dim, self.dim, self.embed_dim))
        row = 0
        for d, sl in zip(self.dims, self.slices):
            for a in range(row, row + d):
                sec[..., a, a, sl] = -w[..., sl]
            row += d
        return sec

    def centroid(self, points) -> np.ndarray:
        mean = np.mean(np.asarray(points, dtype=float), axis=-2)
        for sl in self.slices:
            part = mean[..., sl]
            # sqrt(dot) per cluster, as the 1-D np.linalg.norm computes it
            norm = np.sqrt(rowdot(part, part))[..., None]
            if np.any(norm < 1e-12):
                raise ArgumentError("point cluster spans a whole factor")
            mean[..., sl] = part / norm
        return mean


def _dot(u, v, signs) -> np.ndarray:
    """Sum over the first axis of u * v * signs (signs +-1, a metric
    diagonal), left to right as np.sum adds and with its bits: dot products
    of coordinate-major vectors (C, ...), far cheaper per row than a
    reduction over a short last axis."""
    total = u[0] * v[0] if signs[0] > 0 else -(u[0] * v[0])
    for i in range(1, len(signs)):
        total = total + u[i] * v[i] if signs[i] > 0 else total - u[i] * v[i]
    return total


def _point_major(a) -> np.ndarray:
    """A coordinate-major array (..., K) as a contiguous (K, ...)."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _coord_major(a) -> np.ndarray:
    """A point-major array (K, ...) as a contiguous (..., K)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _take_candidate(v, k, fixed, basis, found, signs, tol) -> None:
    """Step k of a masked Gram-Schmidt: the candidate v (C, K) is made
    orthogonal to the vectors u (C, K) of the (u, 1 / <u, u>) pairs in
    fixed and to the slots of basis (m, C, K) that can be filled, then
    stored, unit, in slot found of each row still short of vectors whose
    squared norm passes tol; basis and found are updated in place.

    The projection runs twice: after one pass a remainder of length s
    keeps components of about eps / s along what it left, and a second
    pass takes them to rounding ("twice is enough")."""
    slots = basis.shape[0]
    for _ in range(2):
        for u, weight in fixed:
            v = v - weight * _dot(v, u, signs) * u
        for s in range(min(k, slots)):
            v = v - _dot(v, basis[s], signs) * basis[s]
    norm2 = _dot(v, v, signs)
    take = (found < slots) & (norm2 > tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = v / np.sqrt(norm2)
    for s in range(min(k + 1, slots)):
        basis[s] = np.where(take & (found == s), unit, basis[s])
    found += take


def _sphere_tangents(w: np.ndarray) -> np.ndarray:
    """Orthonormal bases (..., d, d + 1) of the tangent planes of S^d at
    the points w (..., d + 1): masked Gram-Schmidt on the coordinate axes
    in ascending order, each made orthogonal to w first."""
    size = w.shape[-1]
    at = np.ascontiguousarray(w.reshape(-1, size).T)
    basis = np.zeros((size - 1,) + at.shape)
    found = np.zeros(at.shape[1], dtype=int)
    for k in range(size):
        if np.all(found == size - 1):
            break
        v = np.zeros(at.shape)
        v[k] = 1.0
        _take_candidate(v, k, [(at, 1.0)], basis, found, np.ones(size), 1e-14)
    if np.any(found != size - 1):
        raise ImmersionError("failed to span the sphere tangent plane")
    return _point_major(basis).reshape(w.shape[:-1] + (size - 1, size))


class AmbientMap:
    """Map from domain embedding coordinates to ambient coordinates, with
    exact jets.

    value, jacobian and hessian take one point (in,) or a batch (..., in)
    and return (..., out), (..., out, in) and (..., out, in, in).  A jet
    with no leading axis is constant, the same at every point of a batch.
    """

    def value(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PolynomialMap(AmbientMap):
    """Quadratic polynomial map x = A0 + A1 w + w.A2.w with exact jets.

    value and jacobian take one point (in,) or a batch (K, in); the
    hessian is constant.
    """

    def __init__(self, a0, a1, a2=None):
        self.a0 = np.asarray(a0, dtype=float)
        self.a1 = np.asarray(a1, dtype=float)
        if self.a1.ndim != 2 or self.a1.shape[0] != self.a0.size:
            raise ShapeError("a1 must have shape (out, in)")
        if a2 is None:
            a2 = np.zeros((self.a0.size, self.a1.shape[1], self.a1.shape[1]))
        a2 = np.asarray(a2, dtype=float)
        if a2.shape != (self.a0.size, self.a1.shape[1], self.a1.shape[1]):
            raise ShapeError("a2 must have shape (out, in, in)")
        self.a2 = 0.5 * (a2 + np.swapaxes(a2, 1, 2))

    def _a2_w(self, w: np.ndarray) -> np.ndarray:
        """a2[c, i, j] w_j as (..., out, in): one product over all points."""
        return (w @ self.a2.reshape(-1, w.shape[-1]).T).reshape(
            w.shape[:-1] + self.a1.shape)

    def value(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return (self.a0 + (self.a1 @ w[..., None])[..., 0]
                + (self._a2_w(w) @ w[..., None])[..., 0])

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        return self.a1 + 2.0 * self._a2_w(np.asarray(w, dtype=float))

    def hessian(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * self.a2


class CallableMap(AmbientMap):
    """Wrap a plain function and its analytic derivative callbacks, each
    taking one point or a batch as AmbientMap's methods do."""

    def __init__(self, fn, jacobian_fn=None, hessian_fn=None):
        if jacobian_fn is None or hessian_fn is None:
            raise ArgumentError("an ambient map needs both derivative callbacks")
        self.fn = fn
        self.jacobian_fn = jacobian_fn
        self.hessian_fn = hessian_fn

    def value(self, w):
        return np.asarray(self.fn(w), dtype=float)

    def jacobian(self, w):
        return np.asarray(self.jacobian_fn(w), dtype=float)

    def hessian(self, w):
        return np.asarray(self.hessian_fn(w), dtype=float)


class ComposedMap(AmbientMap):
    """Composition outer(inner(w)) with exact chain-rule jets over the
    leading axes of a batch; a constant jet of either map broadcasts."""

    def __init__(self, outer, inner: AmbientMap):
        self.outer = outer
        self.inner = inner

    def value(self, w):
        return np.asarray(self.outer.value(self.inner.value(w)), dtype=float)

    def jacobian(self, w):
        return self.outer.jacobian(self.inner.value(w)) @ self.inner.jacobian(w)

    def hessian(self, w):
        x = self.inner.value(w)
        ji = self.inner.jacobian(w)
        return (np.einsum("...nd,...dab->...nab", self.outer.jacobian(x),
                          self.inner.hessian(w))
                + np.einsum("...nde,...da,...eb->...nab",
                            self.outer.hessian(x), ji, ji))


@dataclass(frozen=True)
class FrameBatch:
    """Orthonormal frame data of an immersion at one or more parameter
    points: the only frame type.

    Struct of arrays over leading axes (..., ) -- none for one point, (K,)
    for a batch -- with C the ambient coordinates: point (..., C), metric
    (..., n, n), tangent (..., n, C), normal (..., p, C), the symmetric
    second fundamental forms h (..., p, n, n) and the Gram-Schmidt
    coefficients coeff (..., n, n), tangent = coeff @ chart derivatives.
    A frame is not iterable: callbacks take the whole batch and work on
    its arrays.
    """

    point: np.ndarray
    metric: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    h: np.ndarray
    coeff: np.ndarray

    @property
    def n(self) -> int:
        return self.tangent.shape[-2]

    @property
    def p(self) -> int:
        return self.normal.shape[-2]

    def weighted_normal(self, T: np.ndarray) -> np.ndarray:
        """Normal-frame components (..., p) of H_T = sum_{ij,alpha} T_ij
        h^alpha_ij e_alpha for tensors T (..., n, n)."""
        return np.einsum("...aij,...ij->...a", self.h, np.asarray(T, dtype=float))


@dataclass(frozen=True)
class ParametricImmersion:
    """Immersed submanifold given by a map from a parameter domain."""

    domain: ParamDomain
    mapping: AmbientMap
    ambient: AmbientSpace
    name: str = "immersion"
    reference: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.domain.dim

    @property
    def p(self) -> int:
        extra = 0 if self.ambient.c == 0.0 else 1
        return self.ambient.coords - self.n - extra

    def position(self, w) -> np.ndarray:
        return np.asarray(self.mapping.value(np.asarray(w, dtype=float)), dtype=float)

    def jets(self, w):
        """Position (C,), first (n, C) and second (n, n, C) chart
        derivatives at w, or (K, C), (K, n, C), (K, n, n, C) for a batch
        w (K, embed_dim).

        The exact jets of the map, pushed through the domain chart in one
        batched pass; a constant map jet (no leading axis) broadcasts over
        the batch and is never copied per point.
        """
        w = np.asarray(w, dtype=float)
        x = self.position(w)
        n = self.domain.dim
        size = w.shape[-1]
        coords = x.shape[-1]
        lead = w.shape[:-1]
        tau = _coord_major(self.domain.chart(w).reshape(-1, n, size))
        sec = _coord_major(self.domain.chart_second(w).reshape(-1, n, n, size))
        # (C, e, K) and (C, e, e, K), or (..., 1) for a constant jet
        jac = _coord_major(self.mapping.jacobian(w).reshape(-1, coords, size))
        hess = _coord_major(self.mapping.hessian(w).reshape(-1, coords, size, size))
        # hess(tau_a, e_f) as (n, C, e, K)
        half = sum(tau[:, None, i, None] * hess[None, :, i] for i in range(size))
        d1 = np.zeros((n, coords) + tau.shape[-1:])
        d2 = np.zeros((n, n, coords) + tau.shape[-1:])
        for i in range(size):
            d1 += tau[:, None, i] * jac[None, :, i]
            d2 += half[:, None, :, i] * tau[None, :, None, i]
            d2 += sec[:, :, None, i] * jac[None, None, :, i]
        # point-major views; _frames takes their coordinate-major base
        return (x, np.moveaxis(d1, -1, 0).reshape(lead + (n, coords)),
                np.moveaxis(d2, -1, 0).reshape(lead + (n, n, coords)))

    def frame_at(self, w):
        """Orthonormal tangent/normal frames and second fundamental forms.

        w is one domain point (embed_dim,) or a batch (K, embed_dim); the
        FrameBatch has no leading axis for a point and (K,) for a batch,
        and a point is the one-row case of the same pass, with the same
        bits.  Tangents come from Gram-Schmidt on the chart derivatives in
        fixed parameter order; normals from masked Gram-Schmidt completion
        by the ambient coordinate axes in ascending order (with the
        position direction removed first for curved ambients).  Each normal
        is flipped, deterministically, so that tr h^alpha >= 0, which makes
        a round sphere carry positive principal curvature.  A batch raises
        the ImmersionError of its first row off the ambient constraint,
        else of its first row with a singular chart, as the one-point call
        at that row would.
        """
        w = np.asarray(w, dtype=float)
        batch = self._frames(*self.jets(w.reshape(-1, w.shape[-1])))
        if w.ndim == 1:
            return FrameBatch(**{k: v[0] for k, v in vars(batch).items()})
        return batch

    def _frames(self, x, d1, d2) -> FrameBatch:
        """Batched orthonormalization of jets x (K, C), d1 (K, n, C) and
        d2 (K, n, n, C).  A row's chart is singular when lambda_min(g) <=
        1e-10 max(1, lambda_max(g)); the Gram-Schmidt pivots bound
        lambda_min from below, and only rows that bound leaves in doubt
        get eigvalsh."""
        space = self.ambient
        if x.shape[-1] != space.coords:
            raise ShapeError("map output does not match the ambient coordinates")
        resid = space.constraint_residual(x)
        bad = np.flatnonzero(resid > _CONSTRAINT_TOL)
        if bad.size:
            raise ImmersionError(
                "image point violates the ambient constraint by %.3e"
                % resid[bad[0]])
        diag = space.metric_diag
        count, n, coords = d1.shape
        p = self.p
        xc = _coord_major(x)
        d1c = _coord_major(d1)
        d2c = _coord_major(d2)
        d1m = np.moveaxis(d1c, 1, 0)
        g = _dot(d1m[:, :, None], d1m[:, None], diag)

        # Gram-Schmidt on the chart derivatives in parameter order; coeff
        # (lower triangular) is L^-1 for g = L L^T, so tangent = coeff d1,
        # and the pivots are the squared diagonal of L
        tangent = np.empty((n, coords, count))
        coeff = np.zeros((n, n, count))
        pivot = np.empty((n, count))
        with np.errstate(divide="ignore", invalid="ignore"):
            for a in range(n):
                v = d1c[a]
                row = np.zeros((n, count))
                row[a] = 1.0
                for b in range(a):
                    dot = _dot(v, tangent[b], diag)
                    v = v - dot * tangent[b]
                    row = row - dot * coeff[b]
                pivot[a] = _dot(v, v, diag)
                norm = np.sqrt(pivot[a])
                tangent[a] = v / norm
                coeff[a] = row / norm
        # lambda_min(g) >= det g / tr(g)^(n-1) once every pivot is positive;
        # only the rows this bound does not clear get their eigenvalues
        trace = sum(g[a, a] for a in range(n))
        doubt = ~(np.all(pivot > 0.0, axis=0) & (np.prod(pivot, axis=0) > 2.0
                  * _RANK_TOL * np.maximum(1.0, trace) * trace ** (n - 1)))
        eigs = np.linalg.eigvalsh(_point_major(g[..., doubt]))
        if np.any(eigs[:, 0] <= _RANK_TOL * np.maximum(1.0, eigs[:, -1])):
            raise ImmersionError("singular chart: induced metric is rank deficient")

        # normals: masked Gram-Schmidt on the coordinate axes in ascending
        # order, each without its radial and tangent parts first
        # (<x, x> = 1 / c)
        fixed = ([(xc, space.c)] if space.c != 0.0 else []) + [
            (tangent[t], 1.0) for t in range(n)]
        normal = np.zeros((p, coords, count))
        found = np.zeros(count, dtype=int)
        for k in range(coords):
            if np.all(found == p):
                break
            v = np.zeros((coords, count))
            v[k] = 1.0
            _take_candidate(v, k, fixed, normal, found, diag, 1e-10)
        if np.any(found != p):
            raise ImmersionError("failed to complete the normal frame")

        # h^c = coeff <d2, nu_c> coeff^T, all (c, a, b) at once per term
        proj = _dot(np.moveaxis(d2c, 2, 0)[:, None],
                    np.moveaxis(normal, 1, 0)[:, :, None, None], diag)
        half = sum(coeff[:, a, None] * proj[:, None, a] for a in range(n))
        hmat = sum(half[:, :, b, None] * coeff[:, b] for b in range(n))
        flip = sum(hmat[:, i, i] for i in range(n)) < -1e-9
        hmat = np.where(flip[:, None, None], -hmat, hmat)
        normal = np.where(flip[:, None], -normal, normal)
        return FrameBatch(point=x, metric=_point_major(g),
                          tangent=_point_major(tangent),
                          normal=_point_major(normal),
                          h=symmetrized(_point_major(hmat)),
                          coeff=_point_major(coeff))

    def sample_points(self, count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.array([self.domain.random_point(rng) for _ in range(count)])


def pushforward_under_map(imm: ParametricImmersion, gamma,
                          ambient: AmbientSpace, name: str = None) -> ParametricImmersion:
    """Immersion obtained by composing an ambient transform after the map.

    gamma is an AmbientMap on ambient points; the composed jets are its
    exact chain-rule jets with the immersion's map, for a point or a batch.
    """
    composed = ComposedMap(gamma, imm.mapping)
    return ParametricImmersion(
        domain=imm.domain, mapping=composed, ambient=ambient,
        name=name or (imm.name + "+map"), reference={}, metadata=dict(imm.metadata))
