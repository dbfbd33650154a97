"""Positivity of the mean curvature weight tensor and the constrained
minimum controlling it in dimension four."""

import dataclasses
import math

import numpy as np
import pytest

from reillylab.ellipticity import (WeightTensorData, mean_curvature_tensor,
                                   tilted_sum_minimum)
from reillylab.errors import ArgumentError, DegenerateNormalError
from reillylab.newton import newton_chain
from reillylab.secondform import SecondFundamentalForm
from tilted_sum_oracle import tilted_sum_minimum_sampled


def convex_slack(h: SecondFundamentalForm, r: int):
    """For a hypersurface Newton family: the tensor S_r I - T_r, which is
    positive semidefinite whenever the principal curvatures are positive,
    and its minimum eigenvalue."""
    tensors, scalars, _ = newton_chain(h, r)
    slack = scalars[r] * np.eye(h.n) - tensors[r].data
    return slack, float(np.min(np.linalg.eigvalsh(slack)))


def eigmin(a) -> float:
    return float(np.linalg.eigvalsh(a)[0])


def eigmin_tprime(T) -> float:
    """Smallest eigenvalue of T' = (tr T) I - 2 T."""
    return eigmin(np.trace(T) * np.eye(T.shape[-1]) - 2.0 * T)


def test_umbilic_weight_tensor():
    n, k = 4, 0.7
    h = SecondFundamentalForm(k * np.eye(n)[None, :, :])
    w = mean_curvature_tensor(h)
    assert np.allclose(w.T, (n - 1) * k * np.eye(n))
    assert np.trace(w.T) == pytest.approx(n * (n - 1) * w.H)
    assert w.H == pytest.approx(k)
    assert w.H2 == pytest.approx(k * k)
    assert eigmin(w.T) == pytest.approx((n - 1) * k)
    # T' = tr T I - 2T = (n-1)(n-2) k I - ... for umbilic: (n-1)k(n-2)
    assert eigmin_tprime(w.T) == pytest.approx((n - 1) * (n - 2) * k)


def test_weight_tensor_eigenvalues_from_principal_curvatures():
    # hypersurface: T eigenvalues are nH - k_i, T' eigenvalues n(n-3)H + 2k_i
    rng = np.random.default_rng(2)
    for n in (4, 5):
        k = np.sort(rng.uniform(0.1, 1.5, size=n))
        h = SecondFundamentalForm(np.diag(k))
        w = mean_curvature_tensor(h)
        H = k.mean()
        assert w.H == pytest.approx(H, rel=1e-12)
        assert eigmin(w.T) == pytest.approx(n * H - k[-1], rel=1e-11)
        assert eigmin_tprime(w.T) == pytest.approx(n * (n - 3) * H + 2 * k[0],
                                                   rel=1e-11)
        assert np.allclose(np.linalg.eigvalsh(w.principal), k)


def test_weight_tensor_takes_no_eigenvalues(monkeypatch):
    # the reports' sample pass takes the positivity minima of T and T'
    assert [f.name for f in dataclasses.fields(WeightTensorData)] == [
        "T", "H", "H2", "principal"]

    def refused(*args, **kwargs):
        raise AssertionError("mean_curvature_tensor took eigenvalues")
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    h = np.random.default_rng(3).standard_normal((7, 2, 4, 4))
    assert mean_curvature_tensor(h + np.swapaxes(h, -1, -2)).T.shape == (
        7, 4, 4)


def test_weight_tensor_requires_mean_curvature():
    h = SecondFundamentalForm(np.diag([1.0, -1.0])[None, :, :])
    with pytest.raises(DegenerateNormalError):
        mean_curvature_tensor(h)


def test_codimension_two_weight_tensor():
    # mean direction mixes two normals; T is built along the unit mean vector
    h = np.zeros((2, 2, 2))
    h[0] = np.diag([1.0, 0.0])
    h[1] = np.diag([0.0, 1.0])
    w = mean_curvature_tensor(SecondFundamentalForm(h))
    assert w.H == pytest.approx(math.sqrt(0.5), rel=1e-13)
    s = 1.0 / math.sqrt(2.0)
    want = 2 * w.H * np.eye(2) - s * (np.diag([1.0, 0.0]) + np.diag([0.0, 1.0]))
    assert np.allclose(w.T, want)


def test_closed_form_minimum_reference_values():
    val, wit = tilted_sum_minimum(4.0, 1.0)
    assert val == pytest.approx((12.0 - math.sqrt(120.0)) / 2.0, rel=1e-14)
    assert val == pytest.approx(0.5227744249483, rel=1e-10)
    assert wit.sum() == pytest.approx(4.0)
    e2 = sum(wit[i] * wit[j] for i in range(4) for j in range(i + 1, 4))
    assert e2 == pytest.approx(1.0, abs=1e-12)
    assert 3 * wit[0] + wit[1:].sum() == pytest.approx(val, rel=1e-12)

    # boundary 9a^2 = 24b + 0: minimum tends to 3a/2
    val, _ = tilted_sum_minimum(4.0, 6.0 - 1e-12)
    assert val == pytest.approx(6.0, abs=1e-5)


@pytest.mark.parametrize("a,b", [(4.0, 1.0), (4.0, 5.9), (3.0, 0.5),
                                 (10.0, 30.0), (2.0, 0.1)])
def test_closed_form_matches_sampling(a, b):
    val, _ = tilted_sum_minimum(a, b)
    sampled = tilted_sum_minimum_sampled(a, b, samples=60000, seed=1)
    assert sampled == pytest.approx(val, rel=1e-7, abs=1e-9)
    # sampling can only overestimate the true minimum
    assert sampled >= val - 1e-9


def test_minimum_rejects_degenerate_inputs():
    with pytest.raises(ArgumentError):
        tilted_sum_minimum(-1.0, 1.0)
    with pytest.raises(ArgumentError):
        tilted_sum_minimum(1.0, 1.0)  # 9 a^2 <= 24 b


def test_constrained_minimum_bounds_weight_eigenvalue():
    """For n = 4 hypersurfaces with fixed e1, e2 of principal curvatures,
    the smallest eigenvalue of T' is exactly bounded below by the closed
    form, with equality at the witness configuration."""
    a, b = 4.0, 1.0
    val, wit = tilted_sum_minimum(a, b)
    R = math.sqrt(0.75 * a * a - 2.0 * b)
    ones = np.ones(4) * 0.5
    basis = []
    for kk in range(4):
        v = np.zeros(4)
        v[kk] = 1.0
        v -= np.dot(v, ones) * ones
        for wv in basis:
            v -= np.dot(v, wv) * wv
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
    B = np.array(basis[:3]).T
    rng = np.random.default_rng(5)
    u = rng.standard_normal((1000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for row in u:
        k = a / 4.0 + R * (B @ row)
        h = SecondFundamentalForm(np.diag(k))
        w = mean_curvature_tensor(h)
        assert eigmin_tprime(w.T) >= val - 1e-10
    wmin = mean_curvature_tensor(SecondFundamentalForm(np.diag(wit)))
    assert eigmin_tprime(wmin.T) == pytest.approx(val, rel=1e-11)


def test_positivity_sampling_matches_scalar_criteria():
    # 1000 random hypersurface spectra: sign of eigmin matches the scalar test
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(4, 7))
        k = rng.uniform(-1.0, 2.0, size=n)
        H = k.mean()
        if abs(H) < 1e-8:
            continue
        w = mean_curvature_tensor(SecondFundamentalForm(np.diag(k)))
        # the tensor is built along the unit mean vector, so the effective
        # spectrum is sign(H) * k with mean |H|
        ks = np.sign(H) * k
        Ha = abs(H)
        assert (eigmin(w.T) > 0) == (n * Ha - np.max(ks) > 0)
        assert (eigmin_tprime(w.T) > 0) == (n * (n - 3) * Ha
                                            + 2 * np.min(ks) > 0)


def test_convex_slack_positive_for_convex_spectra():
    rng = np.random.default_rng(13)
    for seed in range(20):
        k = rng.uniform(0.05, 3.0, size=5)
        h = SecondFundamentalForm(np.diag(k))
        for r in range(1, 5):
            _, emin = convex_slack(h, r)
            assert emin > -1e-12, (seed, r)
