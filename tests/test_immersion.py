"""Frame construction, structure equations, and gallery reference data."""

import math

import numpy as np
import pytest

from reillylab.curvature import gauss_curvature
from reillylab.ellipticity import mean_curvature_tensor
from reillylab.errors import ArgumentError, ImmersionError
from reillylab.gallery import (clifford_torus, ellipsoid, flat_torus, gallery,
                               hyperbolic_geodesic_sphere, list_gallery,
                               product_spheres, ring_torus, sphere,
                               veronese_rp2)
from reillylab.immersion import (AmbientSpace, CallableMap, FrameBatch,
                                 ParamDomain, ParametricImmersion,
                                 PolynomialMap, SphereProduct,
                                 pushforward_under_map)
from reillylab.mesh import icosphere, torus_grid
from reillylab.newton import newton_kronecker

from frame_oracle import structure_residual


class FlatPatch(ParamDomain):
    """Open patch of R^dim with the identity chart: a domain besides the
    sphere products, with no chart curvature."""

    def __init__(self, dim: int, halfwidth: float = 0.8):
        if dim < 1:
            raise ArgumentError("patch dimension must be positive")
        self.dim = int(dim)
        self.embed_dim = self.dim
        self.halfwidth = float(halfwidth)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-self.halfwidth, self.halfwidth, size=self.dim)

    def chart(self, w: np.ndarray) -> np.ndarray:
        lead = np.shape(w)[:-1]
        return np.broadcast_to(np.eye(self.dim), lead + (self.dim, self.dim)).copy()

    def chart_point(self, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.asarray(w, dtype=float) + np.asarray(u, dtype=float)

    def chart_second(self, w: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(w)[:-1] + (self.dim, self.dim, self.dim))


def frame_cases():
    return [
        sphere(2, 1.0, 1, 0.0),
        sphere(2, 0.6, 2, 1.0),
        sphere(3, 0.8, 1, -1.0),
        clifford_torus(2, 4, math.sqrt(0.5), 0.0),
        clifford_torus(3, 6, 0.5, -1.0),
        veronese_rp2(),
        ellipsoid((1.0, 1.0, 1.3)),
        hyperbolic_geodesic_sphere(1.0),
        flat_torus(),
        ring_torus(1.0, 0.4),
        product_spheres(1.0, 1.3),
    ]


class TestDomains:
    def test_sphere_product_chart_orthonormal(self):
        dom = SphereProduct((2, 3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = dom.random_point(rng)
            tau = dom.chart(w)
            assert np.allclose(tau @ tau.T, np.eye(dom.dim), atol=1e-12)
            # tangency: each factor slot orthogonal to its base point
            for sl in dom.slices:
                assert np.max(np.abs(tau[:, sl] @ w[sl])) < 1e-12

    def test_chart_point_stays_on_product(self):
        dom = SphereProduct((1, 2))
        rng = np.random.default_rng(1)
        w = dom.random_point(rng)
        u = rng.uniform(-0.3, 0.3, size=dom.dim)
        y = dom.chart_point(w, u)
        for sl in dom.slices:
            assert abs(np.linalg.norm(y[sl]) - 1.0) < 1e-14

    def test_chart_second_matches_differences(self):
        dom = SphereProduct((2, 1))
        rng = np.random.default_rng(2)
        w = dom.random_point(rng)
        sec = dom.chart_second(w)
        h = 1e-4
        for a in range(dom.dim):
            ea = np.zeros(dom.dim)
            ea[a] = h
            num = (dom.chart_point(w, ea) - 2 * w + dom.chart_point(w, -ea)) / h**2
            assert np.max(np.abs(num - sec[a, a])) < 1e-6
            for b in range(a + 1, dom.dim):
                eb = np.zeros(dom.dim)
                eb[b] = h
                num = (dom.chart_point(w, ea + eb) - dom.chart_point(w, ea - eb)
                       - dom.chart_point(w, -ea + eb) + dom.chart_point(w, -ea - eb)) / (4 * h**2)
                assert np.max(np.abs(num - sec[a, b])) < 1e-6

    def test_batched_centroid_matches_single_clusters(self):
        dom = SphereProduct((2, 1))
        rng = np.random.default_rng(3)
        base = np.array([dom.random_point(rng) for _ in range(40)])
        clusters = np.array([[dom.chart_point(w, rng.uniform(-0.2, 0.2, dom.dim))
                              for _ in range(3)] for w in base])
        batch = dom.centroid(clusters)
        assert batch.shape == (40, dom.embed_dim)
        assert np.array_equal(batch, [dom.centroid(cl) for cl in clusters])
        assert np.array_equal(FlatPatch(5).centroid(clusters),
                              [FlatPatch(5).centroid(cl) for cl in clusters])
        # one pair of points antipodal on the circle factor
        pairs = clusters[:, :2].copy()
        pairs[17, 1, 3:] = -pairs[17, 0, 3:]
        with pytest.raises(ArgumentError, match="spans a whole factor"):
            dom.centroid(pairs)

    def test_flat_patch_trivial_chart(self):
        dom = FlatPatch(2)
        w = np.array([0.1, -0.2])
        assert np.allclose(dom.chart(w), np.eye(2))
        assert np.allclose(dom.chart_point(w, np.array([0.3, 0.4])), [0.4, 0.2])
        assert np.allclose(dom.chart_second(w), 0.0)


class TestFrames:
    @pytest.mark.parametrize("imm", frame_cases(), ids=lambda im: im.name)
    def test_orthonormal_frames(self, imm):
        rng = np.random.default_rng(7)
        diag = imm.ambient.metric_diag
        for _ in range(3):
            fr = imm.frame_at(imm.domain.random_point(rng))
            basis = np.vstack([fr.tangent, fr.normal])
            grams = np.einsum("an,bn,n->ab", basis, basis, diag)
            assert np.max(np.abs(grams - np.eye(basis.shape[0]))) < 1e-12
            if imm.ambient.c != 0.0:
                rad = np.einsum("an,n,n->a", basis, fr.point, diag)
                assert np.max(np.abs(rad)) < 1e-12

    @pytest.mark.parametrize("imm", frame_cases(), ids=lambda im: im.name)
    def test_structure_decomposition(self, imm):
        rng = np.random.default_rng(11)
        for _ in range(2):
            res = structure_residual(imm, imm.domain.random_point(rng))
            assert res < 1e-10

    @pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
    def test_sphere_umbilic_positive(self, c):
        a = 0.7
        imm = sphere(2, a, 1, c)
        k = math.sqrt(1.0 / a**2 - c)
        fr = imm.frame_at(imm.domain.random_point(np.random.default_rng(3)))
        assert np.max(np.abs(fr.h[0] - k * np.eye(2))) < 1e-10

    def test_graph_hessian_at_origin(self):
        # z = (u^2 + v^2)/2 over a flat patch: h = identity at the origin
        a2 = np.zeros((3, 2, 2))
        a2[2] = 0.5 * np.eye(2)
        imm = ParametricImmersion(
            domain=FlatPatch(2),
            mapping=PolynomialMap(np.zeros(3), np.array([[1.0, 0], [0, 1.0], [0, 0]]), a2),
            ambient=AmbientSpace(0.0, 3), name="graph")
        fr = imm.frame_at(np.zeros(2))
        assert np.allclose(fr.h[0], np.eye(2), atol=1e-12)

    def test_clifford_in_sphere_principal_curvatures(self):
        a = math.sqrt(1.0 / 3.0)
        b = math.sqrt(1.0 - a * a)
        imm = clifford_torus(2, 4, a, 0.0)
        fr = imm.frame_at(imm.domain.random_point(np.random.default_rng(5)))
        # geometric normals: radial direction of the containing unit sphere,
        # and the in-sphere normal orthogonal to it
        radial = fr.point / np.linalg.norm(fr.point)
        comp = fr.normal @ radial
        h_rad = np.einsum("a,aij->ij", comp, fr.h)
        # outward radial direction: h = -g for any submanifold of the sphere
        assert np.max(np.abs(h_rad + np.eye(4))) < 1e-10
        perp = np.array([[0, -1], [1, 0]]) @ comp  # rotate in the normal plane
        h_in = np.einsum("a,aij->ij", perp, fr.h)
        eigs = np.sort(np.linalg.eigvalsh(h_in))
        expected = np.sort([-b / a, -b / a, a / b, a / b])
        flipped = np.sort(-expected)
        err = min(np.max(np.abs(eigs - expected)), np.max(np.abs(eigs - flipped)))
        assert err < 1e-10

    def test_frame_weighted_normal_matches_reference(self):
        imm = clifford_torus(2, 4, 0.5, -1.0)
        rec = imm.reference["newton:2"]
        fr = imm.frame_at(imm.domain.random_point(np.random.default_rng(8)))
        T2 = newton_kronecker(fr.h, 2).data
        t, s = (f[0] for f in rec.factors)
        assert np.max(np.abs(np.diag(T2) - np.array([t] * 2 + [s] * 2))) < 1e-10
        ht = fr.weighted_normal(T2)
        tr = float(np.trace(T2))
        rhs = imm.ambient.c * tr + float(ht @ ht) / tr
        assert abs(rhs - rec.rhs) < 1e-10 * max(1.0, abs(rec.rhs))

    def test_product_spheres_mean_tensor_blocks(self):
        imm = product_spheres(1.0, 1.3)
        rec = imm.reference["mean_curvature"]
        fr = imm.frame_at(imm.domain.random_point(np.random.default_rng(9)))
        data = mean_curvature_tensor(fr.h)
        t1, t2 = (f[0] for f in rec.factors)
        expected = np.diag([t1] * 2 + [t2] * 2)
        assert np.max(np.abs(data.T - expected)) < 1e-10
        assert abs(data.H2 - rec.extras["H2"]) < 1e-12


def chart_metric(imm, w, u):
    """Induced metric in the fixed chart at w, evaluated at offset u.

    Exact for polynomial maps: the normalize chart has a closed-form
    differential, so no finite differences enter here.
    """
    dom = imm.domain
    tau = dom.chart(w)
    v = np.asarray(w, dtype=float) + u @ tau
    y = v.copy()
    dy = tau.copy()
    for sl in dom.slices:
        norm = np.linalg.norm(v[sl])
        y[sl] = v[sl] / norm
        block = dy[:, sl]
        proj = block - np.outer(block @ y[sl], y[sl])
        dy[:, sl] = proj / norm
    jac = imm.mapping.jacobian(y)
    d1 = dy @ jac.T
    diag = imm.ambient.metric_diag
    return np.einsum("an,bn,n->ab", d1, d1, diag)


def brioschi_curvature(imm, w, step=1e-4):
    """Gaussian curvature of a 2D induced metric by chart differencing."""
    def g(u):
        return chart_metric(imm, w, u)

    def dg(u, a):
        e = np.zeros(2)
        e[a] = step
        return (g(u + e) - g(u - e)) / (2 * step)

    g0 = g(np.zeros(2))
    e, f, gg = g0[0, 0], g0[0, 1], g0[1, 1]
    gu = dg(np.zeros(2), 0)
    gv = dg(np.zeros(2), 1)
    steps = np.eye(2) * step
    guu = (g(steps[0]) - 2 * g0 + g(-steps[0])) / step**2
    gvv = (g(steps[1]) - 2 * g0 + g(-steps[1])) / step**2
    guv = (g(steps[0] + steps[1]) - g(steps[0] - steps[1])
           - g(-steps[0] + steps[1]) + g(-steps[0] - steps[1])) / (4 * step**2)
    ev, eu = gv[0, 0], gu[0, 0]
    fu, fv = gu[0, 1], gv[0, 1]
    gu_, gv_ = gu[1, 1], gv[1, 1]
    evv, guu_ = gvv[0, 0], guu[1, 1]
    fuv = guv[0, 1]
    m1 = np.array([
        [-0.5 * evv + fuv - 0.5 * guu_, 0.5 * eu, fu - 0.5 * ev],
        [fv - 0.5 * gu_, e, f],
        [0.5 * gv_, f, gg]])
    m2 = np.array([
        [0.0, 0.5 * ev, 0.5 * gu_],
        [0.5 * ev, e, f],
        [0.5 * gu_, f, gg]])
    det = e * gg - f * f
    return (np.linalg.det(m1) - np.linalg.det(m2)) / det**2


class TestGaussConsistency:
    @pytest.mark.parametrize("imm", [
        sphere(2, 0.8, 1, 0.0),
        sphere(2, 0.6, 2, 1.0),
        hyperbolic_geodesic_sphere(0.9),
        veronese_rp2(),
        ring_torus(1.0, 0.4),
    ], ids=lambda im: im.name)
    def test_intrinsic_matches_gauss_equation(self, imm):
        rng = np.random.default_rng(21)
        for _ in range(2):
            w = imm.domain.random_point(rng)
            fr = imm.frame_at(w)
            curv = gauss_curvature(fr.h, imm.ambient.c)
            k_tensor = curv.R4[0, 1, 0, 1]
            k_intr = brioschi_curvature(imm, w)
            assert abs(k_intr - k_tensor) < 1e-4 * max(1.0, abs(k_tensor))


def frame_field_derivative(imm, w, step=1e-5):
    """Chart-direction finite differences of the orthonormal frame field."""
    n = imm.domain.dim
    frames = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        fp = imm.frame_at(imm.domain.chart_point(w, e))
        fm = imm.frame_at(imm.domain.chart_point(w, -e))
        basis_p = np.vstack([fp.tangent, fp.normal])
        basis_m = np.vstack([fm.tangent, fm.normal])
        frames.append((basis_p - basis_m) / (2 * step))
    return np.stack(frames)  # (n_chart, n+p, coords)


class TestConnectionIdentities:
    @pytest.mark.parametrize("imm", [
        sphere(2, 0.75, 1, 0.0),
        clifford_torus(2, 4, math.sqrt(0.5), 0.0),
        ring_torus(1.0, 0.4),
        sphere(2, 0.6, 2, 1.0),
    ], ids=lambda im: im.name)
    def test_weingarten_relation(self, imm):
        # <grad_{e_i} e_alpha, e_j> = -h^alpha_{ij}
        rng = np.random.default_rng(31)
        w = imm.domain.random_point(rng)
        fr = imm.frame_at(w)
        diag = imm.ambient.metric_diag
        dbasis = frame_field_derivative(imm, w)
        n, p = fr.n, fr.p
        for alpha in range(p):
            for i in range(n):
                # derivative along orthonormal e_i = sum_a coeff[i,a] d_a
                dn = np.einsum("a,an->n", fr.coeff[i], dbasis[:, n + alpha, :])
                for j in range(n):
                    val = float(np.sum(dn * fr.tangent[j] * diag))
                    assert abs(val + fr.h[alpha, i, j]) < 1e-4

    @pytest.mark.parametrize("imm", [
        sphere(2, 0.75, 1, 0.0),
        clifford_torus(2, 4, math.sqrt(0.5), 0.0),
        ring_torus(1.0, 0.4),
    ], ids=lambda im: im.name)
    def test_codazzi_symmetry(self, imm):
        # h^alpha_{ijk} symmetric in (j, k), covariant derivative built from
        # differenced connection forms
        rng = np.random.default_rng(37)
        w = imm.domain.random_point(rng)
        fr = imm.frame_at(w)
        diag = imm.ambient.metric_diag
        n, p = fr.n, fr.p
        step = 1e-5
        dbasis = frame_field_derivative(imm, w, step)
        basis = np.vstack([fr.tangent, fr.normal])
        # connection forms along chart directions: omega[a, A, B]
        omega = np.einsum("aAn,Bn,n->aAB", dbasis, basis, diag)
        # h components along chart directions by the same differencing
        dh = np.empty((n, p, n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = step
            hp = imm.frame_at(imm.domain.chart_point(w, e)).h
            hm = imm.frame_at(imm.domain.chart_point(w, -e)).h
            dh[a] = (hp - hm) / (2 * step)
        # frame-direction covariant derivative
        for alpha in range(p):
            grad = np.empty((n, n, n))
            for k in range(n):
                dk_h = np.einsum("a,aij->ij", fr.coeff[k], dh[:, alpha])
                om = np.einsum("a,aAB->AB", fr.coeff[k], omega)
                corr = (np.einsum("lj,li->ij", fr.h[alpha], om[:n, :n])
                        + np.einsum("il,lj->ij", fr.h[alpha], om[:n, :n]))
                normal_rot = np.einsum("b,bij->ij", om[n:, n + alpha], fr.h)
                grad[k] = dk_h + corr + normal_rot
            codazzi = np.max(np.abs(grad - np.transpose(grad, (2, 1, 0))))
            assert codazzi < 1e-4


class TestPushforward:
    def test_identity_pushforward(self):
        imm = sphere(2, 1.0, 1, 0.0)
        ident = CallableMap(lambda x: x, jacobian_fn=lambda x: np.eye(3),
                            hessian_fn=lambda x: np.zeros((3, 3, 3)))
        out = pushforward_under_map(imm, ident, imm.ambient)
        rng = np.random.default_rng(41)
        w = imm.domain.random_point(rng)
        fa, fb = imm.frame_at(w), out.frame_at(w)
        assert np.allclose(fa.h, fb.h, atol=1e-12)
        assert np.allclose(fa.metric, fb.metric, atol=1e-12)

    def test_rotation_preserves_curvature_spectrum(self):
        imm = ring_torus(1.0, 0.4)
        theta = 0.3
        rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                        [math.sin(theta), math.cos(theta), 0],
                        [0, 0, 1.0]])
        gamma = CallableMap(lambda x: x @ rot.T, jacobian_fn=lambda x: rot,
                            hessian_fn=lambda x: np.zeros((3, 3, 3)))
        out = pushforward_under_map(imm, gamma, imm.ambient)
        rng = np.random.default_rng(43)
        w = imm.domain.random_point(rng)
        ea = np.sort(np.linalg.eigvalsh(imm.frame_at(w).h[0]))
        eb = np.sort(np.linalg.eigvalsh(out.frame_at(w).h[0]))
        assert np.max(np.abs(ea - eb)) < 1e-8

    @pytest.mark.parametrize("missing", ["jacobian_fn", "hessian_fn"])
    def test_map_without_a_derivative_is_refused(self, missing):
        callbacks = {"jacobian_fn": lambda x: np.eye(3),
                     "hessian_fn": lambda x: np.zeros((3, 3, 3))}
        del callbacks[missing]
        with pytest.raises(ArgumentError):
            CallableMap(lambda x: x, **callbacks)


class TestGalleryContracts:
    def test_listing_and_lookup(self):
        names = list_gallery()
        assert "clifford_torus" in names and "veronese_rp2" in names
        imm = gallery("sphere", n=2, a=1.0)
        assert imm.reference["identity"].lambda2 == 2.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ArgumentError):
            gallery("moebius_strip")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ArgumentError):
            clifford_torus(2, 4, 1.2, 0.0)
        with pytest.raises(ArgumentError):
            clifford_torus(2, 4, 0.5, 1.0)
        with pytest.raises(ArgumentError):
            hyperbolic_geodesic_sphere(-1.0)
        with pytest.raises(ArgumentError):
            ellipsoid((1.0, -1.0, 1.0))
        with pytest.raises(ArgumentError):
            sphere(2, 1.5, 1, 1.0)

    def test_clifford_equality_reference_values(self):
        rec = clifford_torus(2, 4, math.sqrt(0.5), 0.0).reference["newton:2"]
        assert abs(rec.lambda2 - 8.0) < 1e-12
        assert abs(rec.rhs - 8.0) < 1e-12
        assert rec.equality
        assert abs(rec.extras["S3prime"]) < 1e-12
        rec13 = clifford_torus(2, 4, math.sqrt(1 / 3), 0.0).reference["newton:2"]
        assert abs(rec13.lambda2 - 9.0) < 1e-12
        assert rec13.equality  # the n = 2m torus attains the bound for every a

    def test_clifford_hyperbolic_reference_values(self):
        rec = clifford_torus(2, 4, math.sqrt(0.5), -1.0).reference["newton:2"]
        assert abs(rec.lambda2 - 20.0) < 1e-12
        assert abs(rec.rhs - 20.0) < 1e-12 and rec.equality
        strict = clifford_torus(2, 4, math.sqrt(1 / 3), -1.0).reference["newton:2"]
        assert strict.lambda2 < strict.rhs and not strict.equality

    def test_constraint_violation_detected(self):
        bad = ParametricImmersion(
            domain=SphereProduct((2,)),
            mapping=PolynomialMap(np.zeros(4), np.vstack([0.5 * np.eye(3), np.zeros((1, 3))])),
            ambient=AmbientSpace(1.0, 3), name="bad")
        with pytest.raises(ImmersionError):
            bad.frame_at(bad.domain.random_point(np.random.default_rng(0)))

    def test_singular_chart_detected(self):
        a1 = np.zeros((3, 3))
        a1[0, 0] = 1.0  # rank-1 map collapses the sphere
        bad = ParametricImmersion(
            domain=SphereProduct((2,)), mapping=PolynomialMap(np.zeros(3), a1),
            ambient=AmbientSpace(0.0, 3), name="collapse")
        with pytest.raises(ImmersionError):
            bad.frame_at(np.array([0.0, 1.0, 0.0]))

    def test_equatorial_sphere_mean_curvature_record(self):
        imm = sphere(4, 0.8, 2, 0.0)
        rec = imm.reference["mean_curvature"]
        k = 1.0 / 0.8
        assert abs(rec.lambda2 - 3 * k * 4 / 0.64) < 1e-12
        assert rec.equality and rec.rhs == rec.lambda2
        fr = imm.frame_at(imm.domain.random_point(np.random.default_rng(2)))
        data = mean_curvature_tensor(fr.h)
        assert np.max(np.abs(data.T - 3 * k * np.eye(4))) < 1e-10


def pushforward_cases():
    """Round spheres in each space form carried into S^3 by a conformal
    chain: composed jets, batched through every map of the chain."""
    from reillylab.moebius import ConformalChain, MoebiusParam
    g = np.array([0.2, -0.1, 0.3, 0.1])
    return [pushforward_under_map(
                base, ConformalChain(base.ambient.c, MoebiusParam(g), 3).test_map(),
                AmbientSpace(1.0, 3), name="pushforward-c%g" % base.ambient.c)
            for base in (sphere(2, 0.6, 1, 1.0), sphere(2, 1.0, 1, 0.0),
                         hyperbolic_geodesic_sphere(1.0))]


class TestFrameBatch:
    @pytest.mark.parametrize("imm", frame_cases() + pushforward_cases(),
                             ids=lambda im: im.name)
    def test_rows_equal_one_point_calls(self, imm):
        rng = np.random.default_rng(21)
        points = np.array([imm.domain.random_point(rng) for _ in range(17)])
        batch = imm.frame_at(points)
        assert batch.point.shape[0] == 17 and (batch.n, batch.p) == (imm.n, imm.p)
        for k in (0, 5, 16):
            one = imm.frame_at(points[k])
            assert isinstance(one, FrameBatch) and (one.n, one.p) == (imm.n, imm.p)
            for name in ("point", "metric", "tangent", "normal", "h", "coeff"):
                assert np.array_equal(getattr(one, name), getattr(batch, name)[k])
        # the bits do not depend on the batch size
        sub = imm.frame_at(points[3:9])
        for name in ("point", "metric", "tangent", "normal", "h", "coeff"):
            assert np.array_equal(getattr(sub, name), getattr(batch, name)[3:9])

    @pytest.mark.parametrize("case", ["ellipsoid-vertices", "ellipsoid-centroids",
                                      "hyperbolic-vertices", "ring-torus-vertices"])
    def test_rows_equal_one_point_calls_at_scale(self, case):
        # products whose blocking could follow the batch size: rows of a
        # level-5 mesh point set against one-point calls and a sub-batch
        mesh = icosphere(5)
        if case.startswith("ring"):
            # a quadratic map: its constant hessian enters a product
            imm = ring_torus(1.0, 0.4)
            mesh = torus_grid(96)
        elif case.startswith("ellipsoid"):
            base = ellipsoid((1.0, 1.0, 1.3))
            q = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
            m = base.mapping
            imm = ParametricImmersion(
                domain=base.domain, ambient=base.ambient, name="rotated",
                mapping=PolynomialMap(q @ m.a0, q @ m.a1,
                                      np.tensordot(q, m.a2, axes=1)))
        else:
            imm = hyperbolic_geodesic_sphere(1.0)
            assert imm.ambient.lorentz
        points = mesh.points
        if case.endswith("centroids"):
            points = imm.domain.centroid(points[mesh.triangles])
        assert len(points) >= 4096
        batch = imm.frame_at(points)
        rows = np.random.default_rng(2).choice(len(points), 12, replace=False)
        names = ("point", "metric", "tangent", "normal", "h", "coeff")
        for k in [0, len(points) - 1, *rows]:
            one = imm.frame_at(points[k])
            for name in names:
                assert np.array_equal(getattr(one, name), getattr(batch, name)[k])
        start = int(rows[0]) // 2
        sub = imm.frame_at(points[start:start + 4096])
        for name in names:
            assert np.array_equal(getattr(sub, name),
                                  getattr(batch, name)[start:start + 4096])

    def test_bad_row_raises_like_one_point(self):
        regular, bad = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
        # x = (w, w0 w1) stays on S^3 only where w0 w1 = 0
        a2 = np.zeros((4, 3, 3))
        a2[3, 0, 1] = a2[3, 1, 0] = 0.5
        lifted = ParametricImmersion(
            domain=SphereProduct((2,)),
            mapping=PolynomialMap(np.zeros(4), np.eye(4, 3), a2),
            ambient=AmbientSpace(1.0, 3), name="lifted")
        lifted.frame_at(regular)
        with pytest.raises(ImmersionError, match="constraint") as one:
            lifted.frame_at(bad)
        with pytest.raises(ImmersionError) as many:
            lifted.frame_at(np.array([regular, bad, regular]))
        assert str(many.value) == str(one.value)
        # x = (w0, w1, 0) folds the sphere onto the plane along w2 = 0
        regular, bad = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        folded = ParametricImmersion(
            domain=SphereProduct((2,)),
            mapping=PolynomialMap(np.zeros(3), np.diag([1.0, 1.0, 0.0])),
            ambient=AmbientSpace(0.0, 3), name="folded")
        folded.frame_at(regular)
        with pytest.raises(ImmersionError, match="singular chart") as one:
            folded.frame_at(bad)
        with pytest.raises(ImmersionError) as many:
            folded.frame_at(np.array([regular, regular, bad]))
        assert str(many.value) == str(one.value)

    def test_mesh_report_makes_one_frame_pass_per_point_set(self, monkeypatch):
        from reillylab import immersion
        from reillylab.reports import OperatorSpec, fem_report, operator_from_label
        original = immersion.ParametricImmersion.frame_at
        calls = []

        def counted(self, w):
            calls.append(np.shape(w))
            return original(self, w)

        monkeypatch.setattr(immersion.ParametricImmersion, "frame_at", counted)
        fem_report(ellipsoid(), operator_from_label("newton:0"), level=3)
        # vertices and centroids
        assert calls == [(642, 3), (1280, 3)]
        calls.clear()
        fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=3)
        assert calls == [(642, 3)]
