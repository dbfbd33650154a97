"""Seeded random-instance residual suite over the algebraic layer."""

import numpy as np
from hypothesis import given, strategies as st

from reillylab import curvature, identities, newton
from reillylab.identities import identity_suite, random_unit_form


def test_random_unit_form_shape_and_scale():
    rng = np.random.default_rng(0)
    h = random_unit_form(rng, 4, 2)
    assert h.h.shape == (2, 4, 4)
    assert np.allclose(h.h, np.swapaxes(h.h, 1, 2))
    assert abs(np.linalg.norm(h.h) - 1.0) < 1e-12


def test_suite_is_deterministic():
    a = identity_suite(instances=5, seed=42)
    b = identity_suite(instances=5, seed=42)
    assert a == b


def test_each_family_evaluated_once_per_form(monkeypatch):
    modules = {"identities": identities, "curvature": curvature}
    # curvature builds no Newton tensor: the suite's contraction checks
    # can only take the ones counted here
    assert not hasattr(curvature, "newton_kronecker")
    calls = dict.fromkeys(["identities.newton_chain",
                           "identities.newton_kronecker",
                           "identities.gauss_curvature",
                           "curvature.gauss_curvature"], 0)
    for key in calls:
        module, name = modules[key.split(".")[0]], key.split(".")[1]
        def counted(*args, _key=key, _fn=getattr(module, name)):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    identity_suite(instances=5, seed=0)
    # n = 2..6: one chain, the oracle ranks 0..n and one curvature per form;
    # the contraction checks reuse them instead of rebuilding them.  The
    # oracle takes the chain's vector-valued ranks, the odd ranks of the
    # p > 1 forms (n, p) = (3, 2), (4, 3), (6, 2): 2 + 2 + 3 of the 25
    assert calls == {"identities.newton_chain": 5,
                     "identities.newton_kronecker": 18,
                     "identities.gauss_curvature": 5,
                     "curvature.gauss_curvature": 0}


def test_all_residuals_at_machine_scale():
    report = identity_suite(instances=40, seed=7)
    expected = {"newton_trace", "newton_recursion", "weighted_mean",
                "gauss_scalar", "lovelock_trace", "lovelock_pairing",
                "lovelock_partial", "contraction_k1", "contraction_k2"}
    assert set(report) == expected
    for key, value in report.items():
        assert value <= 1e-10, f"{key} residual {value}"


@given(n=st.integers(2, 6), p=st.integers(1, 3),
       c=st.sampled_from([-1.0, 0.0, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_drawn_form_residuals_at_machine_scale(n, p, c, seed):
    h = random_unit_form(np.random.default_rng(seed), n, p)
    for key, value in identities._form_residuals(h, c).items():
        assert value <= 1e-10, f"{key} residual {value} at n={n} p={p} c={c}"


def test_odd_chain_ranks_are_checked(monkeypatch):
    # for p > 1 newton_chain takes its odd, vector-valued ranks from the
    # oracle; an error there must still show in the trace law and in the
    # even ranks built from it
    real = newton.newton_kronecker

    def perturbed(h, r):
        t = real(h, r)
        if not t.vector_valued:
            return t
        return newton.NewtonTensor(r, t.data + 1e-6 * np.eye(t.n), True)

    monkeypatch.setattr(newton, "newton_kronecker", perturbed)
    report = identity_suite(10, seed=0)
    assert report["newton_trace"] > 1e-10
    assert report["newton_recursion"] > 1e-10
