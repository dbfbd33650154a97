"""Conformal balancing of discrete measures on the sphere."""

import numpy as np
import pytest

from reillylab import balance
from reillylab.balance import balance_measure, moment
from reillylab.errors import ArgumentError
from reillylab.fem import DiscreteGeometry
from reillylab.gallery import sphere
from reillylab.mesh import icosphere
from reillylab.moebius import MoebiusParam, gamma_value


def lumped_weights(mesh):
    geom = DiscreteGeometry(sphere(2, 1.0, 1, 0.0), mesh)
    w = np.zeros(mesh.vertex_count)
    for f, tri in enumerate(mesh.triangles):
        w[tri] += geom.areas[f] / 3.0
    return w


class TestValidation:
    def test_points_must_sit_on_sphere(self):
        with pytest.raises(ArgumentError):
            balance_measure(np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("support", ["sphere", "ball"])
    def test_empty_measure_rejected(self, support):
        with pytest.raises(ArgumentError, match="no points"):
            balance_measure(np.zeros((0, 3)), support=support)

    def test_weights_checked(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(ArgumentError):
            balance_measure(pts, weights=np.array([1.0]))
        with pytest.raises(ArgumentError):
            balance_measure(pts, weights=np.array([1.0, -1.0]))


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("support", ["sphere", "ball"])
    def test_non_finite_points_rejected(self, bad, support):
        pts = 0.5 * np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        if support == "sphere":
            pts *= 2.0
        pts[1, 0] = bad
        with pytest.raises(ArgumentError, match="finite"):
            balance_measure(pts, support=support)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(ArgumentError, match="finite and positive"):
            balance_measure(pts, tol_rel=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ArgumentError, match="finite"):
            balance_measure(pts, weights=np.array([1.0, bad, 1.0]))


class TestBalance:
    def test_centered_icosphere_already_balanced(self):
        mesh = icosphere(2)
        res = balance_measure(mesh.points, lumped_weights(mesh))
        assert res.converged
        assert np.linalg.norm(res.param.g) <= 1e-9

    def test_shifted_measure_recovers_inverse(self):
        mesh = icosphere(2)
        w = lumped_weights(mesh)
        h = MoebiusParam(np.array([0.35, -0.2, 0.45]))
        pts = np.array([gamma_value(h, y) for y in mesh.points])
        res = balance_measure(pts, w)
        assert res.converged
        assert res.iterations <= 100
        assert res.residual <= 1e-8 * float(np.sum(w))
        assert np.linalg.norm(res.param.g + h.g) < 1e-6
        assert np.linalg.norm(moment(res.param, pts, w)) <= 1e-8 * float(np.sum(w))

    def test_one_gamma_call_per_moment(self, monkeypatch):
        # each moment moves all points with one call through balance's own
        # gamma_value binding, which the benchmark's trace counts
        calls = {"gamma_value": 0, "moment": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(balance, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(balance, name, counted)
        mesh = icosphere(2)
        h = MoebiusParam(np.array([0.35, -0.2, 0.45]))
        pts = np.array([gamma_value(h, y) for y in mesh.points])
        assert balance_measure(pts, lumped_weights(mesh)).converged
        assert 0 < calls["gamma_value"] <= calls["moment"]

    def test_rotation_equivariance(self):
        mesh = icosphere(1)
        w = lumped_weights(mesh)
        h = MoebiusParam(np.array([0.3, 0.1, -0.25]))
        pts = np.array([gamma_value(h, y) for y in mesh.points])
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        base = balance_measure(pts, w)
        turned = balance_measure(pts @ q.T, w)
        assert np.linalg.norm(turned.param.g - q @ base.param.g) < 1e-8

    def test_antipodal_pair(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        res = balance_measure(pts)
        assert res.converged
        assert np.linalg.norm(res.param.g) <= 1e-9

    def test_history_rows(self):
        mesh = icosphere(1)
        h = MoebiusParam(np.array([0.4, 0.0, 0.0]))
        pts = np.array([gamma_value(h, y) for y in mesh.points])
        res = balance_measure(pts, lumped_weights(mesh))
        rows = res.history_rows()
        # row 0 records the starting residual, then one row per accepted step
        assert len(rows) == res.iterations + 1
        assert all(len(r) == 4 for r in rows)
        residuals = [r[1] for r in rows]
        assert residuals[-1] == pytest.approx(res.residual)

    def test_dominant_atom_reported_unbalanced(self):
        # a measure with one atom holding at least half the mass has no
        # balancing parameter inside the ball; the solver must say so
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        res = balance_measure(pts, weights=np.array([0.9, 0.05, 0.05]),
                              max_iter=60)
        assert not res.converged
