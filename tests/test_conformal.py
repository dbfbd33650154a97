"""Moebius maps, projection charts, conformal chains, and their identities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reillylab.errors import ArgumentError, PoleProximityError
from reillylab.gallery import (clifford_torus, ellipsoid,
                               hyperbolic_geodesic_sphere, ring_torus, sphere)
from reillylab.identities import (conformal_stretch_residual,
                                  factor_curvature_residual,
                                  second_form_transform_residual)
from reillylab.immersion import (AmbientSpace, ParametricImmersion,
                                 PolynomialMap, SphereProduct,
                                 pushforward_under_map)
from reillylab.mesh import icosphere
from reillylab.moebius import (ConformalChain, MoebiusParam,
                               ball_to_hyperboloid_value, gamma_hessian,
                               gamma_jacobian, gamma_map,
                               gamma_parameter_jacobian,
                               gamma_value, hyperboloid_to_ball,
                               hyperboloid_to_ball_hessian,
                               hyperboloid_to_ball_jacobian, plane_to_sphere,
                               plane_to_sphere_hessian,
                               plane_to_sphere_jacobian, plane_to_sphere_value,
                               sphere_to_plane)
from reillylab.reports import OperatorSpec, fem_report


def fd_jacobian(fn, x, h=1e-6):
    cols = []
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h))
    return np.array(cols).T


class TestMoebiusParam:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            MoebiusParam(np.array([1.0, 0.0]))
        with pytest.raises(ArgumentError):
            MoebiusParam(np.eye(2))

    def test_pinned_values(self):
        p0 = MoebiusParam(np.zeros(3))
        assert p0.lam == 1.0 and p0.mu == 0.5
        ph = MoebiusParam(np.array([0.5, 0.0, 0.0]))
        assert ph.lam == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)

    def test_mu_matches_defining_ratio(self):
        g = np.array([0.3, -0.4, 0.1])
        p = MoebiusParam(g)
        gg = float(g @ g)
        assert p.mu == pytest.approx((p.lam - 1.0) / gg, rel=1e-12)


class TestGamma:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        g = np.array([0.35, -0.2, 0.45])
        self.param = MoebiusParam(g)
        self.inverse = MoebiusParam(-g)

    def test_zero_parameter_is_identity(self):
        p0 = MoebiusParam(np.zeros(3))
        for _ in range(5):
            x = self.rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert np.allclose(gamma_value(p0, x), x, atol=1e-15)

    def test_sphere_preserved_and_inverse(self):
        for _ in range(30):
            y = self.rng.standard_normal(3)
            y /= np.linalg.norm(y)
            z = gamma_value(self.param, y)
            assert abs(np.linalg.norm(z) - 1.0) < 1e-12
            assert np.linalg.norm(gamma_value(self.inverse, z) - y) < 1e-12

    def test_ball_preserved(self):
        for _ in range(30):
            x = self.rng.uniform(-0.57, 0.57, 3)
            assert np.linalg.norm(gamma_value(self.param, x)) < 1.0

    def test_jacobians_match_differences(self):
        for _ in range(5):
            x = self.rng.uniform(-0.5, 0.5, 3)
            Ja = gamma_jacobian(self.param, x)
            Jf = fd_jacobian(lambda t: gamma_value(self.param, t), x)
            assert np.max(np.abs(Ja - Jf)) < 1e-8
            Ga = gamma_parameter_jacobian(self.param, x)
            Gf = fd_jacobian(lambda t: gamma_value(MoebiusParam(t), x),
                             self.param.g.copy())
            assert np.max(np.abs(Ga - Gf)) < 1e-8

    def test_hessian_symmetric_and_matches_differences(self):
        for _ in range(5):
            x = self.rng.uniform(-0.5, 0.5, 3)
            hess = gamma_hessian(self.param, x)
            assert np.array_equal(hess, np.swapaxes(hess, 1, 2))
            for j in range(3):
                col = fd_jacobian(lambda t: gamma_jacobian(self.param, t)[:, j], x)
                assert np.max(np.abs(hess[:, j, :] - col)) < 1e-8

    @pytest.mark.parametrize("fn", [gamma_value, gamma_jacobian, gamma_hessian,
                                    gamma_parameter_jacobian],
                             ids=lambda fn: fn.__name__)
    def test_batch_matches_points(self, fn):
        y = self.rng.standard_normal((2, 40, 3))
        y /= np.linalg.norm(y, axis=-1, keepdims=True)
        batch = fn(self.param, y)
        assert np.array_equal(batch, [[fn(self.param, p) for p in row] for row in y])

    def test_pole_guard(self):
        g = (1.0 - 5e-15) * np.array([1.0, 0.0, 0.0])
        pole = np.array([-1.0, 0.0, 0.0])
        with pytest.raises(PoleProximityError):
            gamma_value(MoebiusParam(g), pole)
        batch = np.array([[0.0, 1.0, 0.0], pole, [0.0, 0.0, 1.0]])
        for fn in (gamma_value, gamma_jacobian, gamma_hessian,
                   gamma_parameter_jacobian):
            with pytest.raises(PoleProximityError):
                fn(MoebiusParam(g), batch)


class TestProjectionCharts:
    def test_plane_sphere_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.uniform(-3.0, 3.0, 3)
            y = plane_to_sphere_value(w)
            assert abs(np.linalg.norm(y) - 1.0) < 1e-14
            assert np.linalg.norm(sphere_to_plane(y) - w) < 1e-12

    def test_plane_sphere_jets(self):
        w = np.array([0.4, -1.2])
        assert np.max(np.abs(plane_to_sphere_jacobian(w)
                             - fd_jacobian(plane_to_sphere_value, w))) < 1e-9
        hess = plane_to_sphere_hessian(w)
        for j in range(2):
            col = fd_jacobian(lambda t: plane_to_sphere_jacobian(t)[:, j], w)
            assert np.max(np.abs(hess[:, j, :] - col)) < 1e-7

    def test_sphere_to_plane_pole(self):
        with pytest.raises(PoleProximityError):
            sphere_to_plane(np.array([0.0, 0.0, 1.0]))

    def test_hyperboloid_round_trip(self):
        rng = np.random.default_rng(2)
        space = AmbientSpace(-1.0, 2)
        for _ in range(20):
            w = rng.uniform(-0.8, 0.8, 2)
            x = ball_to_hyperboloid_value(w)
            assert abs(space.inner(x, x) + 1.0) < 1e-12
            assert x[-1] >= 1.0
            assert np.linalg.norm(hyperboloid_to_ball(x) - w) < 1e-12

    def test_hyperboloid_jets(self):
        x = ball_to_hyperboloid_value(np.array([0.3, -0.5]))
        assert np.max(np.abs(hyperboloid_to_ball_jacobian(x)
                             - fd_jacobian(hyperboloid_to_ball, x))) < 1e-8
        hess = hyperboloid_to_ball_hessian(x)
        for j in range(3):
            col = fd_jacobian(lambda t: hyperboloid_to_ball_jacobian(t)[:, j], x)
            assert np.max(np.abs(hess[:, j, :] - col)) < 1e-6

    def test_ball_boundary_guard(self):
        with pytest.raises(PoleProximityError):
            ball_to_hyperboloid_value(np.array([1.0, 0.0]))

    def test_hyperboloid_batch_matches_points(self):
        rng = np.random.default_rng(3)
        x = np.array([ball_to_hyperboloid_value(w)
                      for w in rng.uniform(-0.6, 0.6, (30, 2))])
        assert np.array_equal(hyperboloid_to_ball(x),
                              [hyperboloid_to_ball(p) for p in x])

    def test_geodesic_radius_correspondence(self):
        # hyperboloid height cosh(r) maps to ball radius tanh(r/2)
        for r in (0.3, 1.0, 2.5):
            x = np.array([math.sinh(r), 0.0, math.cosh(r)])
            w = hyperboloid_to_ball(x)
            assert abs(np.linalg.norm(w) - math.tanh(r / 2.0)) < 1e-14


class TestConformalChain:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            ConformalChain(0.5, MoebiusParam(np.zeros(4)), 3)
        with pytest.raises(ArgumentError):
            ConformalChain(1.0, MoebiusParam(np.zeros(3)), 3)

    @pytest.mark.parametrize("c", [1.0, 0.0, -1.0])
    def test_conformality_of_chain(self, c):
        rng = np.random.default_rng(4)
        dim = 2
        chain = ConformalChain(c, MoebiusParam(rng.uniform(-0.3, 0.3, dim + 1)), dim)
        space = AmbientSpace(c, dim)
        for _ in range(10):
            if c == 1.0:
                x = rng.standard_normal(dim + 1)
                x /= np.linalg.norm(x)
            elif c == 0.0:
                x = rng.uniform(-2.0, 2.0, dim)
            else:
                x = ball_to_hyperboloid_value(rng.uniform(-0.6, 0.6, dim))
            jac = chain.test_map().jacobian(x)
            fac = chain.factor(x)
            if c == 0.0:
                gram = jac.T @ jac
                assert np.max(np.abs(gram - fac * np.eye(dim))) < 1e-12 * fac
            else:
                tans = [space.project_radial_out(x, e) for e in np.eye(dim + 1)]
                for t in tans:
                    norm2 = float(space.inner(t, t))
                    if norm2 < 1e-12:
                        continue
                    img = jac @ t
                    assert abs(float(img @ img) - fac * norm2) < 1e-12 * fac

    @pytest.mark.parametrize("c", [1.0, 0.0, -1.0])
    def test_grad_rho_matches_differences(self, c):
        rng = np.random.default_rng(5)
        dim = 2
        chain = ConformalChain(c, MoebiusParam(rng.uniform(-0.3, 0.3, dim + 1)), dim)
        space = AmbientSpace(c, dim)
        step = 1e-6
        for _ in range(5):
            if c == 1.0:
                x = rng.standard_normal(dim + 1)
                x /= np.linalg.norm(x)
            elif c == 0.0:
                x = rng.uniform(-1.5, 1.5, dim)
            else:
                x = ball_to_hyperboloid_value(rng.uniform(-0.5, 0.5, dim))
            grad = chain.grad_rho(x)
            if c != 0.0:
                assert abs(space.inner(grad, x)) < 1e-12 * (1 + np.max(np.abs(grad)))
            for e in np.eye(x.size):
                t = space.project_radial_out(x, e) if c != 0.0 else e
                norm2 = float(space.inner(t, t))
                if norm2 < 1e-10:
                    continue
                t = t / math.sqrt(norm2)
                if c == 1.0:
                    xp = math.cos(step) * x + math.sin(step) * t
                    xm = math.cos(step) * x - math.sin(step) * t
                elif c == 0.0:
                    xp, xm = x + step * t, x - step * t
                else:
                    xp = math.cosh(step) * x + math.sinh(step) * t
                    xm = math.cosh(step) * x - math.sinh(step) * t
                num = (chain.rho(xp) - chain.rho(xm)) / (2 * step)
                assert abs(num - space.inner(chain.grad_rho(x), t)) < 1e-8

    def test_radial_derivative_closed_forms(self):
        om = np.array([0.6, 0.8])
        # curvature 1: distance r1 from the pole, axis value -cos(r1)
        r1 = 0.8
        chain = ConformalChain(1.0, MoebiusParam(np.array([0.0, 0.0, -math.cos(r1)])), 2)
        x = np.array([math.sin(r1) * om[0], math.sin(r1) * om[1], math.cos(r1)])
        nu = -np.array([math.cos(r1) * om[0], math.cos(r1) * om[1], -math.sin(r1)])
        assert abs(float(chain.grad_rho(x) @ nu) - 1.0 / math.tan(r1)) < 1e-10

        # curvature 0: euclidean sphere of radius r0 about the origin
        r0 = 1.7
        g0 = -(r0**2 - 1.0) / (1.0 + r0**2)
        chain = ConformalChain(0.0, MoebiusParam(np.array([0.0, 0.0, g0])), 2)
        x = r0 * om
        assert abs(float(chain.grad_rho(x) @ (-om)) - 1.0 / r0) < 1e-10

        # curvature -1: geodesic sphere of radius r, axis value 1/cosh(r)
        rm = 1.1
        chain = ConformalChain(-1.0, MoebiusParam(np.array([0.0, 0.0, 1.0 / math.cosh(rm)])), 2)
        x = np.array([math.sinh(rm) * om[0], math.sinh(rm) * om[1], math.cosh(rm)])
        nu = -np.array([math.cosh(rm) * om[0], math.cosh(rm) * om[1], math.sinh(rm)])
        space = AmbientSpace(-1.0, 2)
        assert abs(space.inner(chain.grad_rho(x), nu) - 1.0 / math.tanh(rm)) < 1e-10


def chain_for(imm, rng):
    dim = imm.ambient.dim
    return ConformalChain(imm.ambient.c, MoebiusParam(rng.uniform(-0.25, 0.25, dim + 1)), dim)


class TestChainOnImmersions:
    @pytest.mark.parametrize("imm", [
        sphere(2, 0.6, 1, 1.0),
        sphere(2, 0.6, 2, 1.0),
        ring_torus(1.0, 0.4),
        hyperbolic_geodesic_sphere(1.0),
        clifford_torus(2, 4, 0.6, 0.0),
    ], ids=lambda im: im.name)
    def test_stretch_identity(self, imm):
        rng = np.random.default_rng(11)
        res = conformal_stretch_residual(imm, chain_for(imm, rng))
        assert res < 1e-8

    @pytest.mark.parametrize("imm", [
        sphere(2, 0.6, 1, 1.0),
        ring_torus(1.0, 0.4),
        hyperbolic_geodesic_sphere(1.0),
    ], ids=lambda im: im.name)
    def test_second_form_transformation(self, imm):
        rng = np.random.default_rng(13)
        res = second_form_transform_residual(imm, chain_for(imm, rng))
        assert res < 1e-12

    @pytest.mark.parametrize("imm,c", [
        (sphere(2, 1.0, 1, 0.0), 0.0),
        (hyperbolic_geodesic_sphere(1.0), -1.0),
    ], ids=["sphere-c0", "geodesic-c-1"])
    def test_weak_factor_curvature_identity_refines(self, imm, c):
        chain = ConformalChain(c, MoebiusParam(np.array([0.2, -0.15, 0.3, 0.1])[:imm.ambient.dim + 1]),
                               imm.ambient.dim)
        vals = [factor_curvature_residual(imm, icosphere(lvl), chain)
                for lvl in (2, 3, 4)]
        assert vals[0] / vals[1] >= 3.0
        assert vals[1] / vals[2] >= 3.0

    def test_unit_sphere_maps_to_equator(self):
        # the unit sphere of the plane lands, under inverse stereographic
        # projection, on the equator of S^3, which is totally geodesic:
        # the composed second form vanishes identically
        flat = sphere(2, 1.0, 1, 0.0)
        moved = pushforward_under_map(flat, plane_to_sphere(),
                                      AmbientSpace(1.0, 3))
        rng = np.random.default_rng(17)
        for _ in range(3):
            fr = moved.frame_at(moved.domain.random_point(rng))
            assert np.max(np.abs(fr.h)) < 1e-10


def space_form_points(c, rng, shape, dim=3):
    """Points shape + (coords,) of the space form of curvature c."""
    if c == 1.0:
        y = rng.standard_normal(shape + (dim + 1,))
        return y / np.linalg.norm(y, axis=-1, keepdims=True)
    if c == 0.0:
        return rng.uniform(-1.5, 1.5, shape + (dim,))
    w = rng.uniform(-0.5, 0.5, shape + (dim,))
    return np.reshape([ball_to_hyperboloid_value(v) for v in w.reshape(-1, dim)],
                      shape + (dim + 1,))


def rows_equal_point_calls(fn, x):
    batch = fn(x)
    return np.array_equal(batch, [[fn(p) for p in row] for row in x])


@pytest.mark.parametrize("c", [1.0, 0.0, -1.0])
@given(seed=st.integers(0, 2**32 - 1))
def test_chain_batch_rows_equal_point_calls(c, seed):
    rng = np.random.default_rng(seed)
    chain = ConformalChain(c, MoebiusParam(rng.uniform(-0.3, 0.3, 4)), 3)
    x = space_form_points(c, rng, (2, 6))
    for fn in (chain.sphere_point, chain.value, chain.rho, chain.factor,
               chain.grad_rho, chain.test_map().jacobian, chain.test_map().hessian):
        assert rows_equal_point_calls(fn, x), fn
    assert np.shape(chain.rho(x[0, 0])) == ()
    flat = space_form_points(0.0, rng, (2, 6))
    for fn in (plane_to_sphere_value, plane_to_sphere_jacobian,
               plane_to_sphere_hessian):
        assert rows_equal_point_calls(fn, flat), fn
    hyper = space_form_points(-1.0, rng, (2, 6))
    for fn in (hyperboloid_to_ball_jacobian, hyperboloid_to_ball_hessian):
        assert rows_equal_point_calls(fn, hyper), fn


@pytest.mark.parametrize("c,pole", [
    (1.0, [0.0, 0.0, 0.0, -1.0]),
    (0.0, [0.0, 0.0, 0.0]),
    (-1.0, [0.0, 0.0, 0.0, 1.0]),
])
def test_rho_pole_guard(c, pole):
    # each pole point reaches the sphere at -e_last, where 1 + <y, g> = 5e-15
    chain = ConformalChain(c, MoebiusParam((1.0 - 5e-15) * np.eye(4)[3]), 3)
    with pytest.raises(PoleProximityError):
        chain.rho(np.array(pole))
    batch = space_form_points(c, np.random.default_rng(0), (4,))
    chain.rho(batch)
    batch[2] = pole
    with pytest.raises(PoleProximityError):
        chain.rho(batch)


@pytest.mark.parametrize("c,pole", [
    (1.0, [0.0, 0.0, 0.0, -1.0]),
    (0.0, [0.0, 0.0, 0.0]),
    (-1.0, [0.0, 0.0, 0.0, 1.0]),
])
def test_grad_rho_pole_guard(c, pole):
    # without the guard the gradient at the pole comes out as finite zeros
    chain = ConformalChain(c, MoebiusParam((1.0 - 5e-15) * np.eye(4)[3]), 3)
    with pytest.raises(PoleProximityError):
        chain.grad_rho(np.array(pole))
    batch = space_form_points(c, np.random.default_rng(0), (4,))
    assert np.all(np.isfinite(chain.grad_rho(batch)))
    batch[2] = pole
    with pytest.raises(PoleProximityError):
        chain.grad_rho(batch)


# the per-point loops that the batched residuals replaced, kept as references

def stretch_loop(immersion, chain, count=5, seed=0):
    rng = np.random.default_rng(seed)
    tm = chain.test_map()
    worst = 0.0
    for _ in range(count):
        fr = immersion.frame_at(immersion.domain.random_point(rng))
        jac = tm.jacobian(fr.point)
        v = fr.tangent @ jac.T
        gram = v @ v.T
        fac = chain.factor(fr.point)
        worst = max(worst, float(np.max(np.abs(gram - fac * np.eye(fr.n)))) / fac)
    return worst


def second_form_loop(immersion, chain, count=3, seed=1):
    rng = np.random.default_rng(seed)
    target = AmbientSpace(1.0, chain.dim)
    moved = pushforward_under_map(immersion, chain.test_map(), target)
    worst = 0.0
    for _ in range(count):
        w = immersion.domain.random_point(rng)
        fr = immersion.frame_at(w)
        grad = chain.grad_rho(fr.point)
        rho_nu = float(immersion.ambient.inner(grad, fr.normal[0]))
        kappa = np.linalg.eigvalsh(fr.h[0])
        rho = chain.rho(fr.point)
        predicted = np.sort(np.exp(-rho) * (kappa - rho_nu))
        got = np.sort(np.linalg.eigvalsh(moved.frame_at(w).h[0]))
        err = min(float(np.max(np.abs(got - predicted))),
                  float(np.max(np.abs(np.sort(-got) - predicted))))
        scale = max(1.0, float(np.max(np.abs(predicted))))
        worst = max(worst, err / scale)
    return worst


class PointByPoint:
    """A chain whose rho and grad_rho take a batch one point at a time."""

    def __init__(self, chain):
        self.chain = chain

    def rho(self, x):
        return np.array([self.chain.rho(p) for p in x])

    def grad_rho(self, x):
        return np.array([self.chain.grad_rho(p) for p in x])


class TestBatchedResidualsMatchLoops:
    @pytest.mark.parametrize("imm", [
        sphere(2, 0.6, 1, 1.0),
        sphere(2, 0.6, 2, 1.0),
        ring_torus(1.0, 0.4),
        hyperbolic_geodesic_sphere(1.0),
        clifford_torus(2, 4, 0.6, 0.0),
    ], ids=lambda im: im.name)
    def test_stretch(self, imm):
        chain = chain_for(imm, np.random.default_rng(21))
        assert conformal_stretch_residual(imm, chain) == stretch_loop(imm, chain)
        assert (conformal_stretch_residual(imm, chain, count=4, seed=9)
                == stretch_loop(imm, chain, count=4, seed=9))

    @pytest.mark.parametrize("imm", [
        sphere(2, 0.6, 1, 1.0),
        ring_torus(1.0, 0.4),
        hyperbolic_geodesic_sphere(1.0),
    ], ids=lambda im: im.name)
    def test_second_form(self, imm):
        chain = chain_for(imm, np.random.default_rng(23))
        assert second_form_transform_residual(imm, chain) == second_form_loop(imm, chain)
        assert (second_form_transform_residual(imm, chain, count=5, seed=4)
                == second_form_loop(imm, chain, count=5, seed=4))

    @pytest.mark.parametrize("imm", [
        sphere(2, 1.0, 1, 0.0),
        hyperbolic_geodesic_sphere(1.0),
        sphere(2, 0.7, 1, 1.0),
    ], ids=lambda im: im.name)
    def test_factor_curvature(self, imm):
        chain = chain_for(imm, np.random.default_rng(25))
        mesh = icosphere(2)
        assert factor_curvature_residual(imm, mesh, chain) == pytest.approx(
            factor_curvature_residual(imm, mesh, PointByPoint(chain)), rel=1e-14)

    @pytest.mark.parametrize("imm", [sphere(2, 1.0, 1, 0.0), ellipsoid()],
                             ids=lambda im: im.name)
    def test_ht_alignment(self, imm):
        chain = ConformalChain(0.0, MoebiusParam(np.array([0.1, -0.2, 0.15, 0.05])), 3)
        batched, looped = (
            fem_report(imm, OperatorSpec(), level=2, chain=ch).equality[
                "HT_alignment_residual"]
            for ch in (chain, PointByPoint(chain)))
        assert batched == pytest.approx(looped, rel=1e-14)
