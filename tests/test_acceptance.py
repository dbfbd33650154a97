"""Acceptance suite: one test per headline claim of the package.

Each criterion pins the advertised tolerances and a wall-clock budget.
The terminal summary (see conftest) prints one pass/fail line per
criterion.
"""

import contextlib
import math
import time

import numpy as np

from reillylab.balance import balance_measure
from reillylab.cli import default_seed
from reillylab.ellipticity import tilted_sum_minimum
from reillylab.gallery import (clifford_torus, ellipsoid,
                               hyperbolic_geodesic_sphere, sphere,
                               veronese_rp2)
from reillylab.identities import (conformal_stretch_residual,
                                  factor_curvature_residual, identity_suite,
                                  second_form_transform_residual)
from reillylab.immersion import AmbientSpace
from reillylab.mesh import icosphere
from reillylab.moebius import (ConformalChain, MoebiusParam,
                               ball_to_hyperboloid_value, gamma_value,
                               hyperboloid_to_ball, plane_to_sphere_value,
                               sphere_to_plane)
from reillylab.newton import newton_tensor
from reillylab.reports import (OperatorSpec, closed_form_report, fem_report,
                               mean_tensor_report, t_minimality)
from tilted_sum_oracle import tilted_sum_minimum_sampled

IDENTITY = OperatorSpec()
NEWTON2 = OperatorSpec(kind="newton", degree=2)


@contextlib.contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    assert time.monotonic() - start < seconds


def test_criterion_01_round_sphere_equality():
    # unit sphere, identity weight: both sides equal 2 and the
    # discretized gap stays within two percent
    with budget(30):
        rep = fem_report(sphere(2, 1.0, 1, 0.0), IDENTITY, level=5)
        assert abs(rep.lambda2 - 2.0) <= 0.02 * 2.0
        assert abs(rep.rhs - 2.0) <= 1e-6
        assert abs(rep.gap) <= 0.02 * 2.0


def test_criterion_02_clifford_torus_newton_equality():
    # balanced product torus, second Newton weight: both sides are 8 in
    # closed form, and the tilt of the weighted normal vanishes
    with budget(60):
        imm = clifford_torus(2, 4, math.sqrt(0.5), 0.0)
        rep = closed_form_report(imm, NEWTON2)
        assert abs(rep.lambda2 - 8.0) <= 1e-9
        assert abs(rep.rhs - 8.0) <= 1e-9

        # the weighted normal is purely radial: its component inside the
        # circumscribed sphere vanishes, so the bound reduces to the trace
        for w in imm.sample_points(8, seed=default_seed()):
            fr = imm.frame_at(w)
            t2 = newton_tensor(fr.h, 2).as_matrix()
            ambient = fr.weighted_normal(t2) @ fr.normal
            radial = float(ambient @ fr.point) * fr.point
            assert np.linalg.norm(ambient - radial) <= 1e-9
            assert abs(np.linalg.norm(radial) - np.trace(t2)) <= 1e-9

        # the factor spheres carry the whole spectrum: weight times the
        # discretized factor eigenvalue reproduces 8 within two percent
        record = imm.reference["newton:2"]
        factors = record.factors
        assert abs(factors[0][2] - factors[1][2]) <= 1e-12
        factor = fem_report(sphere(2, math.sqrt(0.5), 1, 0.0), IDENTITY,
                            level=4)
        for t, _, _ in factors:
            assert abs(t * factor.lambda2 - 8.0) <= 0.02 * 8.0


def test_criterion_03_ellipsoid_strict_inequality():
    # non-round ellipsoid: the bound must hold with a gap well above the
    # discretization error between consecutive mesh levels
    with budget(30):
        coarse = fem_report(ellipsoid((1.0, 1.0, 1.3)), IDENTITY, level=3)
        fine = fem_report(ellipsoid((1.0, 1.0, 1.3)), IDENTITY, level=4)
        disc_tol = abs(fine.lambda2 - coarse.lambda2)
        assert fine.gap > 0.0
        assert fine.gap > 3.0 * disc_tol


def test_criterion_04_veronese_equality():
    # projective plane immersed by quadratic monomials: eigenvalue 6,
    # and the weak minimality residual shrinks under refinement
    with budget(60):
        rep = fem_report(veronese_rp2(), IDENTITY, level=4)
        assert abs(rep.lambda2 - 6.0) <= 0.02 * 6.0
        assert abs(rep.rhs - 6.0) <= 1e-4

        vals = [t_minimality(veronese_rp2(), IDENTITY, level=lvl,
                             cprime=3.0)["takahashi_residual"]
                for lvl in (2, 3, 4)]
        assert vals[0] / vals[1] >= 3.0
        assert vals[1] / vals[2] >= 3.0


def test_criterion_05_hyperbolic_sphere_equality():
    # geodesic sphere of radius 1 in the hyperbolic space form
    with budget(60):
        target = 2.0 / math.sinh(1.0) ** 2
        rep = fem_report(hyperbolic_geodesic_sphere(1.0), IDENTITY, level=4)
        assert abs(rep.lambda2 - target) <= 0.02 * target
        assert abs(rep.rhs - target) <= 1e-4
        assert abs(rep.equality["radius_estimate"] - 1.0) <= 0.01


def test_criterion_06_algebraic_identity_suite():
    # trace, recursion, pairing, contraction and scalar-curvature
    # identities on seeded random unit-norm second fundamental forms
    with budget(60):
        suite = identity_suite(instances=100, seed=default_seed())
        assert len(suite) >= 9
        assert max(suite.values()) <= 1e-10


def test_criterion_07_tilted_sum_closed_form():
    # closed-form constrained minimum against the sampled minimizer
    with budget(60):
        rng = np.random.default_rng(default_seed())
        for trial in range(100):
            a = rng.uniform(0.5, 4.0)
            b = rng.uniform(0.05, 0.95) * (9.0 * a * a / 24.0)
            value, witness = tilted_sum_minimum(a, b)
            assert value > 0.0
            assert abs(np.sum(witness) - a) <= 1e-9 * a
            pair = (np.sum(witness) ** 2 - np.sum(witness ** 2)) / 2.0
            assert abs(pair - b) <= 1e-9 * max(1.0, b)
            sampled = tilted_sum_minimum_sampled(a, b, samples=20000,
                                                 seed=trial)
            assert abs(value - sampled) <= 1e-6


def test_criterion_08_conformal_suite():
    with budget(120):
        rng = np.random.default_rng(default_seed())

        # chart round trips and sphere preservation
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 3)
            y = plane_to_sphere_value(x)
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
            assert np.linalg.norm(sphere_to_plane(y) - x) <= 1e-12

            w = rng.uniform(-0.5, 0.5, 3)
            z = ball_to_hyperboloid_value(w)
            assert np.linalg.norm(hyperboloid_to_ball(z) - w) <= 1e-12

            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            g = MoebiusParam(rng.uniform(-0.3, 0.3, 4))
            assert abs(np.linalg.norm(gamma_value(g, u)) - 1.0) <= 1e-12

        # frame identity and second-form transformation on immersions
        imm = sphere(2, 0.6, 1, 1.0)
        chain = ConformalChain(1.0, MoebiusParam(rng.uniform(-0.25, 0.25, 4)),
                               3)
        assert conformal_stretch_residual(imm, chain) <= 1e-8
        assert second_form_transform_residual(imm, chain) <= 1e-4

        # weak conformal-factor residual shrinks under refinement on two
        # geometries with different ambient curvature
        for imm, c in ((sphere(2, 1.0, 1, 0.0), 0.0),
                       (hyperbolic_geodesic_sphere(1.0), -1.0)):
            chain = ConformalChain(
                c, MoebiusParam(np.array([0.2, -0.15, 0.3, 0.1])), 3)
            vals = [factor_curvature_residual(imm, icosphere(lvl), chain)
                    for lvl in (2, 3, 4)]
            assert vals[0] / vals[1] >= 3.0
            assert vals[1] / vals[2] >= 3.0

        # radial derivative of the log stretch on centered spheres
        om = np.array([0.6, 0.8])
        r1 = 0.8
        chain = ConformalChain(
            1.0, MoebiusParam(np.array([0.0, 0.0, -math.cos(r1)])), 2)
        x = np.array([math.sin(r1) * om[0], math.sin(r1) * om[1],
                      math.cos(r1)])
        nu = -np.array([math.cos(r1) * om[0], math.cos(r1) * om[1],
                        -math.sin(r1)])
        assert abs(float(chain.grad_rho(x) @ nu)
                   - 1.0 / math.tan(r1)) <= 1e-10

        r0 = 1.7
        g0 = -(r0 ** 2 - 1.0) / (1.0 + r0 ** 2)
        chain = ConformalChain(0.0, MoebiusParam(np.array([0.0, 0.0, g0])), 2)
        assert abs(float(chain.grad_rho(r0 * om) @ (-om))
                   - 1.0 / r0) <= 1e-10

        rm = 1.1
        chain = ConformalChain(
            -1.0, MoebiusParam(np.array([0.0, 0.0, 1.0 / math.cosh(rm)])), 2)
        x = np.array([math.sinh(rm) * om[0], math.sinh(rm) * om[1],
                      math.cosh(rm)])
        nu = -np.array([math.cosh(rm) * om[0], math.cosh(rm) * om[1],
                        math.sinh(rm)])
        space = AmbientSpace(-1.0, 2)
        assert abs(space.inner(chain.grad_rho(x), nu)
                   - 1.0 / math.tanh(rm)) <= 1e-10


def test_criterion_09_measure_balancing():
    with budget(30):
        mesh = icosphere(3)
        weights = np.ones(mesh.vertex_count)
        total = float(np.sum(weights))

        centered = balance_measure(mesh.points, weights)
        assert centered.converged
        assert np.linalg.norm(centered.param.g) <= 1e-9

        shift = MoebiusParam(np.array([0.4, -0.25, 0.3]))
        moved = np.array([gamma_value(shift, y) for y in mesh.points])
        rebalanced = balance_measure(moved, weights)
        assert rebalanced.converged
        assert rebalanced.iterations <= 100
        assert rebalanced.residual <= 1e-8 * total


def test_criterion_10_schrodinger_bound():
    with budget(30):
        # constant potential shifts both sides equally: equality survives
        flat = OperatorSpec(potential=lambda fr: 3.0)
        rep = fem_report(sphere(2, 1.0, 1, 0.0), flat, level=4)
        assert abs(rep.qbar - 3.0) <= 1e-12
        assert abs(rep.lambda2 - 5.0) <= 0.02 * 5.0
        assert abs(rep.rhs - 5.0) <= 0.02 * 5.0
        assert abs(rep.gap) <= 0.02 * 5.0

        # a coordinate potential of the same mean breaks the equality
        tilted = OperatorSpec(potential=lambda fr: 3.0 * fr.point[..., 0])
        rep = fem_report(sphere(2, 1.0, 1, 0.0), tilted, level=4)
        assert rep.gap > 0.1


def test_criterion_11_mean_tensor_closed_form():
    with budget(30):
        # equatorial four-sphere: the mean-curvature weight closes the
        # bound through the exact sphere spectrum
        rep = mean_tensor_report(sphere(4, 0.8, 2, 0.0))
        assert rep.backend == "sphere-exact"
        assert abs(rep.gap) <= 1e-9 * max(1.0, abs(rep.rhs))

        # positivity preconditions hold on random principal curvatures
        # with positive second mean curvature, and the smallest tilted
        # sum dominates the closed-form minimum
        rng = np.random.default_rng(default_seed())
        done = 0
        while done < 1000:
            k = rng.standard_normal(4)
            e1 = float(np.sum(k))
            e2 = (e1 ** 2 - float(np.sum(k ** 2))) / 2.0
            if e2 <= 1e-8:
                continue
            if e1 < 0.0:  # orientation along the mean direction
                k, e1 = -k, -e1
            done += 1
            nh = e1
            assert np.all(nh > np.abs(k) - 1e-12)
            bound, _ = tilted_sum_minimum(e1, e2)
            tilted = 3.0 * np.min(k) + (e1 - np.min(k))
            assert bound > 0.0
            assert tilted >= bound - 1e-9
