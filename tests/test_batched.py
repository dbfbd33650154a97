"""The batched frame layer: forms with leading axes, batch callbacks and
one evaluation per point set."""

import dataclasses
import re

import numpy as np
import pytest

from reillylab import reports
from reillylab.ellipticity import mean_curvature_tensor
from reillylab.errors import DegenerateNormalError, EllipticityError
from reillylab.gallery import ellipsoid, product_spheres, sphere
from reillylab.kronecker import index_sum_terms, scatter_sum
from reillylab.newton import newton_chain, newton_kronecker, newton_tensor
from reillylab.reports import OperatorSpec, fem_report, mean_tensor_report

ROWS = 6


def random_forms(n, p, seed):
    """ROWS symmetric forms (ROWS, p, n, n)."""
    h = np.random.default_rng(seed).standard_normal((ROWS, p, n, n))
    return h + np.swapaxes(h, -1, -2)


def same_rows(batch, one, k):
    """Row k of a batched result is bitwise the one-form result."""
    assert np.array_equal(np.asarray(batch)[k], np.asarray(one))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [1, 2])
def test_newton_rows_equal_one_form_calls(n, p):
    h = random_forms(n, p, seed=10 * n + p)
    tensors, scalars, vectors = newton_chain(h, n)
    for k in range(ROWS):
        one_t, one_s, one_v = newton_chain(h[k], n)
        for r in range(n + 1):
            assert tensors[r].vector_valued == one_t[r].vector_valued
            same_rows(tensors[r].data, one_t[r].data, k)
            same_rows(newton_kronecker(h, r).data, newton_kronecker(h[k], r).data, k)
            same_rows(newton_tensor(h, r).data, newton_tensor(h[k], r).data, k)
            if r in one_v:
                same_rows(vectors[r], one_v[r], k)
            if r in one_s and r > 0:
                same_rows(scalars[r], one_s[r], k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [1, 2])
def test_mean_curvature_tensor_rows_equal_one_form_calls(n, p):
    h = random_forms(n, p, seed=100 + 10 * n + p)
    batch = mean_curvature_tensor(h)
    for k in range(ROWS):
        one = mean_curvature_tensor(h[k])
        for name in ("T", "H", "H2", "principal"):
            same_rows(getattr(batch, name), getattr(one, name), k)


@pytest.mark.parametrize("n,l", [(3, 2), (4, 3), (5, 4)])
def test_scatter_sum_rows_equal_one_row_calls(n, l):
    up, lo, sg = index_sum_terms(n, l)
    values = np.random.default_rng(n).standard_normal((2, 3, len(sg)))
    index = np.ravel_multi_index((up[:, -1], lo[:, -1]), (n, n))
    out = scatter_sum((n, n), index, values)
    assert out.shape == (2, 3, n, n)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], scatter_sum((n, n), index, values[i, j]))


def test_degenerate_row_raises_the_one_form_error():
    h = random_forms(4, 2, seed=7)
    h[3] -= np.trace(h[3], axis1=-2, axis2=-1)[:, None, None] * np.eye(4) / 4
    with pytest.raises(DegenerateNormalError) as one:
        mean_curvature_tensor(h[3])
    with pytest.raises(DegenerateNormalError) as many:
        mean_curvature_tensor(h)
    assert str(many.value) == str(one.value)


class TestMeanTensorReportRows:
    """mean_tensor_report fails on its first bad sample, as row by row."""

    @staticmethod
    def frames_with(monkeypatch, bad):
        """Patch the report's sample frames: rows in `bad` get the form."""
        original = reports._sample_frames

        def patched(immersion, samples, seed):
            frames = original(immersion, samples, seed)
            h = frames.h.copy()
            for row, form in bad.items():
                h[row] = form
            return dataclasses.replace(frames, h=h)
        monkeypatch.setattr(reports, "_sample_frames", patched)

    @staticmethod
    def saddle():
        """A (2, 4, 4) form with |H| > 0 and H2 < 0."""
        h = np.zeros((2, 4, 4))
        h[0] = np.diag([2.0, -2.0, 2.0, -1.0])
        return h

    @staticmethod
    def umbilic_free():
        """A (2, 4, 4) form with |H| = 0."""
        h = np.zeros((2, 4, 4))
        h[1] = np.diag([1.0, -1.0, 1.0, -1.0])
        return h

    def test_h2_row(self, monkeypatch):
        form = self.saddle()
        h2 = mean_curvature_tensor(form).H2
        assert 0.0 < mean_curvature_tensor(form).H and h2 < 0.0
        self.frames_with(monkeypatch, {5: form})
        with pytest.raises(EllipticityError,
                           match=re.escape("must be positive, got %.3e" % h2)):
            mean_tensor_report(sphere(4, 0.8, 2, 0.0))

    def test_first_bad_row_decides(self, monkeypatch):
        self.frames_with(monkeypatch, {5: self.saddle(), 9: self.umbilic_free()})
        with pytest.raises(EllipticityError):
            mean_tensor_report(sphere(4, 0.8, 2, 0.0))
        self.frames_with(monkeypatch, {5: self.umbilic_free(), 9: self.saddle()})
        with pytest.raises(DegenerateNormalError):
            mean_tensor_report(sphere(4, 0.8, 2, 0.0))


def test_mean_tensor_report_matches_the_row_loop():
    """The report's array pass against the per-sample loop it replaced."""
    imm = product_spheres(1.0, 1.3)
    rep = mean_tensor_report(imm)
    frames = reports._sample_frames(imm, 64, 0)
    n, c = imm.n, imm.ambient.c
    split, h2, tensors = [], [], []
    for hmat in frames.h:
        data = mean_curvature_tensor(hmat)
        h2.append(float(data.H2))
        tensors.append(data.T)
        H = float(data.H)
        principal = np.einsum("a,aij->ij", np.einsum("aii->a", hmat) / n / H, hmat)
        tau2 = float(np.sum(hmat * hmat)) - float(np.sum(principal * principal))
        cvec = np.einsum("ij,aij->a", principal, hmat)
        cross = float(cvec @ cvec) - float(np.sum(principal * principal)) ** 2
        split.append(n * (n - 1) * (
            c * H + (float(data.H2) + tau2 / (n * (n - 1))) ** 2 / H
            + cross / (n ** 2 * (n - 1) ** 2 * H)))
    general = reports._sample_pass(frames, np.array(tensors), c)[0]
    assert rep.rhs == float(np.mean(general))
    assert rep.equality["H2_min"] == min(h2)
    assert rep.equality["decomposition_agreement"] == float(
        np.max(np.abs(general - np.array(split))))


class TestBatchCallbacks:
    def test_constant_tensor_fn_broadcasts(self):
        imm = sphere(2, 1.0, 1, 0.0)
        frames = imm.frame_at(imm.sample_points(5))
        spec = OperatorSpec(kind="custom", tensor_fn=lambda fr: 2.0 * np.eye(2))
        assert np.array_equal(spec.tensors(frames),
                              np.broadcast_to(2.0 * np.eye(2), (5, 2, 2)))
        base = fem_report(imm, OperatorSpec(), level=2)
        doubled = fem_report(imm, spec, level=2)
        assert doubled.lambda2 == pytest.approx(2.0 * base.lambda2, rel=1e-12)
        assert doubled.rhs == pytest.approx(2.0 * base.rhs, rel=1e-12)

    def test_constant_potential_broadcasts(self):
        imm = sphere(2, 1.0, 1, 0.0)
        base = fem_report(imm, OperatorSpec(), level=2)
        shifted = fem_report(imm, OperatorSpec(potential=lambda fr: 3), level=2)
        assert shifted.qbar == pytest.approx(3.0, abs=1e-12)
        assert shifted.rhs == pytest.approx(base.rhs + 3.0, rel=1e-12)

    def test_frames_are_not_iterable(self):
        imm = ellipsoid()
        for frames in (imm.frame_at(imm.sample_points(4)),
                       imm.frame_at(imm.sample_points(1)[0])):
            with pytest.raises(TypeError):
                iter(frames)
            with pytest.raises(TypeError):
                frames[0]


def test_one_newton_tensor_call_per_point_set(monkeypatch):
    calls = []
    original = reports.newton_tensor

    def counted(h, r):
        calls.append(np.shape(h)[:-3])
        return original(h, r)
    monkeypatch.setattr(reports, "newton_tensor", counted)
    fem_report(ellipsoid(), reports.operator_from_label("newton:0"), level=3)
    # element centroids inside the assembly, then the vertices
    assert calls == [(1280,), (642,)]
