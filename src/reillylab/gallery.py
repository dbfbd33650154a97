"""Closed-form example immersions with attached reference values.

Every item returns a ParametricImmersion whose `reference` dict maps an
operator tag ("identity", "newton:2", "mean_curvature") to a
ReferenceRecord holding the expected second eigenvalue, the expected
right-hand side of the sharp bound, equality-case data, and the factors
of the operator's closed-form spectrum where one exists.  Values carry
a `source` tag: "closed-form" for exact formulas, "derived" for values
obtained by composing closed forms, "measured" when no exact value exists
and the number must come out of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .immersion import (AmbientSpace, ParametricImmersion, PolynomialMap,
                        SphereProduct)


@dataclass(frozen=True)
class ReferenceRecord:
    """Reference values of one operator on one gallery item.

    `radius` is the geodesic radius of a sphere that holds the item,
    which the radius estimate of an equality case recovers.  `factors`
    gives the operator as sum_f t_f Laplace_f on a product of round
    spheres S^dim_f(radius_f), as (t, dim, radius) triples; it is None
    where no closed form exists and lambda_2 comes from the mesh.
    """

    lambda2: float = None
    rhs: float = None
    equality: bool = None
    source: str = "measured"
    center: np.ndarray = None
    radius: float = None
    factors: tuple = None
    extras: dict = field(default_factory=dict)


def sphere(n: int = 2, a: float = 1.0, codim: int = 1, c: float = 0.0) -> ParametricImmersion:
    """Round n-sphere of intrinsic radius a in an ambient of curvature c.

    Realized as w -> a*w (padded) for c = 0, (a*w, 0.., sqrt(1-a^2)) on the
    unit sphere, and (a*w, 0.., sqrt(1+a^2)) on the hyperboloid.  The
    single curved normal has principal curvature k = sqrt(1/a^2 - c); any
    extra normals are flat.
    """
    if n < 1 or codim < 1:
        raise ArgumentError("need n >= 1 and codim >= 1")
    if a <= 0:
        raise ArgumentError("radius must be positive")
    if c == 1.0 and a > 1.0:
        raise ArgumentError("a sphere of curvature 1 admits intrinsic radius <= 1 only")
    space = AmbientSpace(c=float(c), dim=n + codim)
    coords = space.coords
    a0 = np.zeros(coords)
    a1 = np.zeros((coords, n + 1))
    a1[: n + 1, : n + 1] = a * np.eye(n + 1)
    if c == 1.0:
        a0[-1] = math.sqrt(max(0.0, 1.0 - a * a))
    elif c == -1.0:
        a0[-1] = math.sqrt(1.0 + a * a)
    k = math.sqrt(max(0.0, 1.0 / (a * a) - c))
    lam2 = n / (a * a)
    center = np.zeros(coords)
    if c != 0.0:
        center[-1] = 1.0
    reference = {
        "identity": ReferenceRecord(
            lambda2=lam2, rhs=lam2, equality=True,
            source="closed-form", center=center, radius=space.geodesic_radius(a),
            factors=((1.0, n, a),)),
    }
    if n >= 4 and k > 0.0:
        scale = (n - 1) * k
        reference["mean_curvature"] = ReferenceRecord(
            lambda2=scale * lam2, rhs=scale * lam2,
            equality=True, source="closed-form", center=center,
            radius=space.geodesic_radius(a), factors=((scale, n, a),))
    return ParametricImmersion(
        domain=SphereProduct((n,)), mapping=PolynomialMap(a0, a1), ambient=space,
        name="sphere(n=%d,a=%g,codim=%d,c=%g)" % (n, a, codim, c),
        reference=reference, metadata={"topology": "sphere"})


def clifford_torus(m: int = 2, n: int = 4, a: float = math.sqrt(0.5),
                   c: float = 0.0) -> ParametricImmersion:
    """Product torus S^m(a) x S^{n-m}(sqrt(1-a^2)) inside the unit sphere.

    For c = 0 the unit sphere is the Euclidean S^{n+1}(1) in R^{n+2}; for
    c = -1 it is a geodesic sphere of the hyperboloid in Lorentz R^{n+3},
    reached by appending the constant coordinate sqrt(2).  In both cases
    the submanifold has codimension 2 in the space form and its rank-2
    Newton tensor is block constant, so the second eigenvalue of the
    associated operator is available in closed form.
    """
    if c not in (0.0, -1.0):
        raise ArgumentError("torus gallery entries exist for curvature 0 and -1 only")
    if not 1 <= m <= n - 1:
        raise ArgumentError("need 1 <= m <= n-1")
    if not 0.0 < a < 1.0:
        raise ArgumentError("torus parameter a must lie in (0, 1)")
    b = math.sqrt(1.0 - a * a)
    space = AmbientSpace(c=float(c), dim=n + 2)
    coords = space.coords
    a0 = np.zeros(coords)
    a1 = np.zeros((coords, n + 2))
    a1[: m + 1, : m + 1] = a * np.eye(m + 1)
    a1[m + 1: n + 2, m + 1: n + 2] = b * np.eye(n - m + 1)
    if c == -1.0:
        a0[-1] = math.sqrt(2.0)

    lam = -b / a
    mu = a / b
    t = 0.5 * ((m - 2) * (m - 1) / (a * a)
               + (n - m) * (n - m - 1) / (b * b)
               - (n - 1) * (n - 2) * c)
    s = 0.5 * (m * (m - 1) / (a * a)
               + (n - m - 2) * (n - m - 1) / (b * b)
               - (n - 1) * (n - 2) * c)
    tr2 = m * t + (n - m) * s
    lam2_l2 = min(m * t / (a * a), (n - m) * s / (b * b))
    in_sphere = m * t * lam + (n - m) * s * mu
    second_h = 1.0 if c == 0.0 else math.sqrt(2.0)
    ht2 = in_sphere ** 2 + (tr2 * second_h) ** 2
    rhs2 = c * tr2 + ht2 / tr2
    center = np.zeros(coords)
    if c == -1.0:
        center[-1] = 1.0

    hmean = (m * lam + (n - m) * mu) / n
    hvec2 = hmean * hmean + second_h * second_h
    lam2_id = min(m / (a * a), (n - m) / (b * b))
    rhs_id = n * c + n * hvec2

    reference = {
        "newton:2": ReferenceRecord(
            lambda2=lam2_l2, rhs=rhs2,
            equality=abs(rhs2 - lam2_l2) <= 1e-9 * max(1.0, abs(rhs2)),
            source="derived", center=center, radius=space.geodesic_radius(1.0),
            factors=((t, m, a), (s, n - m, b)),
            extras={"S3prime": in_sphere / 3.0}),
        "identity": ReferenceRecord(
            lambda2=lam2_id, rhs=rhs_id,
            equality=abs(rhs_id - lam2_id) <= 1e-9 * max(1.0, abs(rhs_id)),
            source="derived", center=center, radius=space.geodesic_radius(1.0),
            factors=((1.0, m, a), (1.0, n - m, b))),
    }
    return ParametricImmersion(
        domain=SphereProduct((m, n - m)), mapping=PolynomialMap(a0, a1),
        ambient=space,
        name="clifford_torus(m=%d,n=%d,a=%.6g,c=%g)" % (m, n, a, c),
        reference=reference, metadata={"topology": "product"})


def veronese_rp2() -> ParametricImmersion:
    """Degree-2 minimal projective plane in R^5.

    The quadratic map sends the unit 2-sphere onto a surface of constant
    distance 1/sqrt(3) from the origin, identifying antipodes; the induced
    metric is the unit round metric, and the surface is minimal in the
    centered 4-sphere of curvature 3.
    """
    r3 = math.sqrt(3.0)
    a2 = np.zeros((5, 3, 3))
    a2[0][0, 1] = a2[0][1, 0] = 0.5
    a2[1][0, 2] = a2[1][2, 0] = 0.5
    a2[2][1, 2] = a2[2][2, 1] = 0.5
    a2[3][0, 0] = 0.5
    a2[3][1, 1] = -0.5
    a2[4][0, 0] = a2[4][1, 1] = 1.0 / (2.0 * r3)
    a2[4][2, 2] = -1.0 / r3
    space = AmbientSpace(c=0.0, dim=5)
    reference = {
        "identity": ReferenceRecord(
            lambda2=6.0, rhs=6.0, equality=True,
            source="closed-form", center=np.zeros(5), radius=1.0 / r3),
    }
    return ParametricImmersion(
        domain=SphereProduct((2,)),
        mapping=PolynomialMap(np.zeros(5), np.zeros((5, 3)), a2),
        ambient=space, name="veronese_rp2()", reference=reference,
        metadata={"topology": "sphere", "antipodal_quotient": True})


def ellipsoid(axes=(1.0, 1.0, 1.3)) -> ParametricImmersion:
    """Ellipsoid hypersurface in flat space; no closed-form spectrum."""
    axes = tuple(float(v) for v in axes)
    if len(axes) < 3:
        raise ArgumentError("need at least three semi-axes")
    if any(v <= 0 for v in axes):
        raise ArgumentError("semi-axes must be positive")
    dim = len(axes) - 1
    space = AmbientSpace(c=0.0, dim=len(axes))
    reference = {
        "identity": ReferenceRecord(
            lambda2=None, rhs=None,
            equality=(len(set(axes)) == 1), source="measured"),
    }
    return ParametricImmersion(
        domain=SphereProduct((dim,)),
        mapping=PolynomialMap(np.zeros(len(axes)), np.diag(axes)),
        ambient=space, name="ellipsoid(%s)" % (axes,), reference=reference,
        metadata={"topology": "sphere"})


def hyperbolic_geodesic_sphere(r: float = 1.0) -> ParametricImmersion:
    """Geodesic 2-sphere of radius r in hyperbolic 3-space.

    Intrinsically a round sphere of radius sinh(r); umbilic with principal
    curvature coth(r), so the Laplacian bound is attained exactly.
    """
    if r <= 0:
        raise ArgumentError("geodesic radius must be positive")
    sh, ch = math.sinh(r), math.cosh(r)
    space = AmbientSpace(c=-1.0, dim=3)
    a0 = np.array([0.0, 0.0, 0.0, ch])
    a1 = np.zeros((4, 3))
    a1[:3, :3] = sh * np.eye(3)
    lam2 = 2.0 / (sh * sh)
    center = np.array([0.0, 0.0, 0.0, 1.0])
    reference = {
        "identity": ReferenceRecord(
            lambda2=lam2, rhs=lam2, equality=True,
            source="closed-form", center=center, radius=r),
    }
    return ParametricImmersion(
        domain=SphereProduct((2,)), mapping=PolynomialMap(a0, a1), ambient=space,
        name="hyperbolic_geodesic_sphere(r=%g)" % r, reference=reference,
        metadata={"topology": "sphere"})


def flat_torus(r1: float = 1.0 / (2.0 * math.pi),
               r2: float = 1.0 / (2.0 * math.pi)) -> ParametricImmersion:
    """Flat product of two circles in R^4."""
    if r1 <= 0 or r2 <= 0:
        raise ArgumentError("circle radii must be positive")
    space = AmbientSpace(c=0.0, dim=4)
    a1 = np.zeros((4, 4))
    a1[:2, :2] = r1 * np.eye(2)
    a1[2:, 2:] = r2 * np.eye(2)
    lam2 = min(1.0 / (r1 * r1), 1.0 / (r2 * r2))
    rhs = 0.5 * (1.0 / (r1 * r1) + 1.0 / (r2 * r2))
    equality = abs(r1 - r2) <= 1e-12
    r0 = math.sqrt(r1 * r1 + r2 * r2)
    reference = {
        "identity": ReferenceRecord(
            lambda2=lam2, rhs=rhs, equality=equality,
            source="closed-form", center=np.zeros(4),
            radius=r0 if equality else None),
    }
    return ParametricImmersion(
        domain=SphereProduct((1, 1)), mapping=PolynomialMap(np.zeros(4), a1),
        ambient=space, name="flat_torus(r1=%g,r2=%g)" % (r1, r2),
        reference=reference, metadata={"topology": "torus"})


def ring_torus(R: float = 1.0, r: float = 0.4) -> ParametricImmersion:
    """Torus of revolution in R^3; a strict-inequality surface."""
    if not R > r > 0:
        raise ArgumentError("need R > r > 0")
    space = AmbientSpace(c=0.0, dim=3)
    a1 = np.zeros((3, 4))
    a1[0, 0] = R
    a1[1, 1] = R
    a1[2, 3] = r
    a2 = np.zeros((3, 4, 4))
    a2[0][0, 2] = a2[0][2, 0] = 0.5 * r
    a2[1][1, 2] = a2[1][2, 1] = 0.5 * r
    reference = {
        "identity": ReferenceRecord(
            lambda2=None, rhs=None, equality=False, source="measured"),
    }
    return ParametricImmersion(
        domain=SphereProduct((1, 1)), mapping=PolynomialMap(np.zeros(3), a1, a2),
        ambient=space, name="ring_torus(R=%g,r=%g)" % (R, r),
        reference=reference, metadata={"topology": "torus"})


def product_spheres(a: float = 1.0, b: float = 1.3) -> ParametricImmersion:
    """Product of two round 2-spheres in R^6.

    The codimension-2 workhorse: its mean-curvature-direction tensor is
    block constant with closed-form weights, strict for a != b, while the
    rank-2 Newton tensor attains its bound for every (a, b).
    """
    if a <= 0 or b <= 0:
        raise ArgumentError("radii must be positive")
    space = AmbientSpace(c=0.0, dim=6)
    a1 = np.zeros((6, 6))
    a1[:3, :3] = a * np.eye(3)
    a1[3:, 3:] = b * np.eye(3)
    rad = math.sqrt(a * a + b * b)

    t1 = (2 * a * a + b * b) / (a * b * rad)
    t2 = (a * a + 2 * b * b) / (a * b * rad)
    lam2_mc = min(2 * t1 / (a * a), 2 * t2 / (b * b))
    rhs_mc = (4 * t1 * t1 / (a * a) + 4 * t2 * t2 / (b * b)) / (2 * (t1 + t2))
    h2 = (a * a + b * b) / (6.0 * a * a * b * b)

    tn = 1.0 / (b * b)
    sn = 1.0 / (a * a)
    lam2_n2 = 2.0 / (a * a * b * b)

    lam2_id = min(2.0 / (a * a), 2.0 / (b * b))
    rhs_id = 1.0 / (a * a) + 1.0 / (b * b)

    reference = {
        "mean_curvature": ReferenceRecord(
            lambda2=lam2_mc, rhs=rhs_mc,
            equality=abs(rhs_mc - lam2_mc) <= 1e-9 * max(1.0, rhs_mc),
            source="derived", center=np.zeros(6),
            factors=((t1, 2, a), (t2, 2, b)), extras={"H2": h2}),
        "newton:2": ReferenceRecord(
            lambda2=lam2_n2, rhs=lam2_n2, equality=True,
            source="derived", center=np.zeros(6), radius=rad,
            factors=((tn, 2, a), (sn, 2, b))),
        "identity": ReferenceRecord(
            lambda2=lam2_id, rhs=rhs_id,
            equality=abs(rhs_id - lam2_id) <= 1e-12, source="derived",
            center=np.zeros(6), factors=((1.0, 2, a), (1.0, 2, b))),
    }
    return ParametricImmersion(
        domain=SphereProduct((2, 2)), mapping=PolynomialMap(np.zeros(6), a1),
        ambient=space, name="product_spheres(a=%g,b=%g)" % (a, b),
        reference=reference, metadata={"topology": "product"})


GALLERY = {
    "sphere": sphere,
    "clifford_torus": clifford_torus,
    "veronese_rp2": veronese_rp2,
    "ellipsoid": ellipsoid,
    "hyperbolic_geodesic_sphere": hyperbolic_geodesic_sphere,
    "flat_torus": flat_torus,
    "ring_torus": ring_torus,
    "product_spheres": product_spheres,
}


def gallery(name: str, **params) -> ParametricImmersion:
    """Look up a gallery immersion by name with keyword parameters."""
    if name not in GALLERY:
        raise ArgumentError("unknown gallery item %r; known: %s"
                            % (name, ", ".join(sorted(GALLERY))))
    return GALLERY[name](**params)


def list_gallery() -> list:
    """Names of the available gallery items, sorted."""
    return sorted(GALLERY)
