"""Newton transformations for arbitrary codimension: the slot-paired
defining sum against the mixed recursion, trace bookkeeping, and the
curvature profile helpers."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from reillylab.newton import (newton_chain, newton_kronecker, newton_tensor,
                              weighted_mean_curvature)
from reillylab.secondform import SecondFundamentalForm

from orbit_terms import orbit_terms


@dataclass(frozen=True)
class MeanCurvatureProfile:
    """Symmetric-function data of a second fundamental form: scalars[r]
    holds S_r for even r (for every r when p = 1), vectors[r] the normal
    components of the vector-valued S_r for odd r."""

    n: int
    p: int
    scalars: dict
    vectors: dict
    hvec: np.ndarray
    hlen: float
    norm2: float
    tau2: float

    def mean(self, r: int) -> float:
        return self.scalars[r] / math.comb(self.n, r)


def mean_profile(h) -> MeanCurvatureProfile:
    """All curvature scalars/vectors S_r, mean curvatures and the squared
    norm split relative to the principal normal direction."""
    sff = h if isinstance(h, SecondFundamentalForm) else SecondFundamentalForm(h)
    _, scalars, vectors = newton_chain(sff, sff.n)
    hvec = sff.mean_vector()
    hlen = float(np.linalg.norm(hvec))
    norm2 = sff.norm2()
    tau2 = None
    if hlen > 1e-14:
        principal = np.einsum("x,xij->ij", hvec / hlen, sff.h)
        tau2 = norm2 - float(np.sum(principal * principal))
    return MeanCurvatureProfile(sff.n, sff.p, scalars, vectors, hvec, hlen,
                                norm2, tau2)


def esym(vals, r):
    """Elementary symmetric polynomial, brute force."""
    import itertools
    if r == 0:
        return 1.0
    return float(sum(np.prod(list(combo))
                     for combo in itertools.combinations(vals, r)))


def random_form(n, p, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((p, n, n))
    return SecondFundamentalForm(h + h.transpose(0, 2, 1))


def test_zeroth_is_identity():
    h = random_form(4, 2, 0)
    T0 = newton_tensor(h, 0)
    assert np.allclose(T0.data, np.eye(4))


def test_umbilic_hypersurface_closed_form():
    # h = I in R^5: S_r = C(n, r), T_r = C(n-1, r) I
    n = 4
    h = SecondFundamentalForm(np.eye(n)[None, :, :])
    tensors, scalars, _ = newton_chain(h, n)
    for r in range(n + 1):
        assert scalars[r] == pytest.approx(math.comb(n, r), abs=1e-13)
        data = tensors[r].data
        if tensors[r].vector_valued:
            data = data[0]
        assert np.allclose(data, math.comb(n - 1, r) * np.eye(n), atol=1e-13)
    assert scalars[2] == pytest.approx(6.0)
    assert np.allclose(tensors[2].data, 3.0 * np.eye(n))


def test_hypersurface_scalars_are_elementary_symmetric():
    rng = np.random.default_rng(7)
    k = rng.uniform(-2.0, 2.0, size=5)
    h = SecondFundamentalForm(np.diag(k))
    _, scalars, _ = newton_chain(h, 5)
    for r in range(6):
        assert scalars[r] == pytest.approx(esym(k, r), rel=1e-12, abs=1e-12)


def test_hypersurface_weighted_trace_raises_order():
    # tr(T_r h) = (r+1) S_{r+1} for hypersurfaces
    rng = np.random.default_rng(11)
    k = rng.uniform(-1.5, 1.5, size=6)
    h = SecondFundamentalForm(np.diag(k))
    tensors, _, _ = newton_chain(h, 5)
    for r in range(5):
        hw = weighted_mean_curvature(tensors[r], h)
        assert hw.shape == (1,)
        assert hw[0] == pytest.approx((r + 1) * esym(k, r + 1),
                                      rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("n,p", [(4, 1), (4, 2), (5, 2), (5, 3), (6, 2)])
def test_recursion_matches_defining_sum(n, p):
    h = random_form(n, p, seed=100 * n + p)
    tensors, scalars, _ = newton_chain(h, min(n, 5))
    for r in range(min(n, 5) + 1):
        direct = newton_kronecker(h, r)
        assert np.allclose(tensors[r].data, direct.data, atol=5e-12), (n, p, r)
        if not tensors[r].vector_valued:
            tr = float(np.trace(direct.data))
            assert scalars[r] * (n - r) == pytest.approx(tr, rel=1e-10,
                                                         abs=1e-10)


def newton_kronecker_add_at(h, r, reduced=True):
    """The defining sum scattered with np.add.at over one term per orbit
    of the gram factors' slot symmetries, kept as the reference for the
    gather and bincount scatter of newton_kronecker; with reduced=False,
    over every term."""
    n, p = h.n, h.p
    if r == 0:
        return np.eye(n)
    up, lo, sg = orbit_terms(n, r + 1, r // 2 if reduced else 0)
    if len(sg) == 0:
        return np.zeros((n, n)) if (r % 2 == 0 or p == 1) else np.zeros((p, n, n))
    gram = np.einsum("xab,xcd->abcd", h.h, h.h)
    prod = sg.copy()
    for s in range(r // 2):
        prod = prod * gram[up[:, 2 * s], lo[:, 2 * s], up[:, 2 * s + 1], lo[:, 2 * s + 1]]
    if r % 2 == 0:
        out = np.zeros((n, n))
        np.add.at(out, (up[:, r], lo[:, r]), prod)
        return out / math.factorial(r)
    out = np.zeros((p, n, n))
    for a in range(p):
        vals = prod * h.h[a][up[:, r - 1], lo[:, r - 1]]
        np.add.at(out[a], (up[:, r], lo[:, r]), vals)
    out /= math.factorial(r)
    return out[0] if p == 1 else out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [1, 2])
def test_defining_sum_bitwise_equals_add_at(n, p):
    for seed in range(3):
        h = random_form(n, p, seed=1000 * n + 10 * p + seed)
        for r in range(n + 1):
            assert np.array_equal(newton_kronecker(h, r).data,
                                  newton_kronecker_add_at(h, r)), (n, p, r)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_orbit_sum_matches_unreduced_sum(n, p):
    """One term per orbit, weighted by its size, is the defining sum."""
    h = random_form(n, p, seed=2000 * n + p)
    for r in range(n + 1):
        ref = newton_kronecker_add_at(h, r, reduced=False)
        err = np.max(np.abs(newton_kronecker(h, r).data - ref))
        assert err <= 1e-13 * max(1.0, np.max(np.abs(ref))), (n, p, r, err)


def test_methods_agree_and_validate():
    h = random_form(5, 2, 3)
    a = newton_tensor(h, 3)
    b = newton_kronecker(h, 3)
    assert np.allclose(a.data, b.data, atol=1e-11)


def test_vector_valued_trace_identity():
    # tr T^alpha_r = ((n-r)/r) sum_beta T_{r-1} : h^beta delta^{alpha beta}?
    # For odd r the per-normal traces recombine: sum_alpha tr(T^alpha_r) e_alpha
    # must match the chain's bookkeeping of (n-r) S^alpha_r.
    h = random_form(5, 3, 9)
    tensors, _, vectors = newton_chain(h, 3)
    T3 = tensors[3]
    assert T3.vector_valued
    for alpha in range(3):
        lhs = np.trace(T3.data[alpha])
        # S^alpha_3 from defining sum via trace / (n - r)
        assert lhs == pytest.approx((5 - 3) * vectors[3][alpha],
                                    rel=1e-10, abs=1e-10)


def test_top_transformation_vanishes():
    # Cayley-Hamilton analog: T_n = 0
    for n, p, seed in [(4, 1, 1), (4, 2, 2), (5, 1, 3)]:
        h = random_form(n, p, seed)
        top = newton_kronecker(h, n)
        assert np.max(np.abs(top.data)) < 1e-10, (n, p)


def test_product_of_spheres_codim_two():
    """S^2(a) x S^2(b) in R^6, adapted frame: h^1 = diag(1/a,1/a,0,0),
    h^2 = diag(0,0,1/b,1/b).  Second transformation is
    diag(1/b^2, 1/b^2, 1/a^2, 1/a^2)."""
    for a2 in (0.5, 1.0 / 3.0):
        a = math.sqrt(a2)
        b = math.sqrt(1.0 - a2)
        h = np.zeros((2, 4, 4))
        h[0, 0, 0] = h[0, 1, 1] = 1.0 / a
        h[1, 2, 2] = h[1, 3, 3] = 1.0 / b
        form = SecondFundamentalForm(h)
        T2 = newton_tensor(form, 2)
        want = np.diag([1.0 / b**2, 1.0 / b**2, 1.0 / a**2, 1.0 / a**2])
        assert np.allclose(T2.data, want, atol=1e-12)
        if a2 == 0.5:
            assert np.allclose(T2.data, 2.0 * np.eye(4), atol=1e-12)


def test_clifford_hypersurface_in_sphere():
    # minimal Clifford torus in S^5: principal curvatures (1,1,-1,-1),
    # classical T_2 = -I
    h = SecondFundamentalForm(np.diag([1.0, 1.0, -1.0, -1.0]))
    T2 = newton_tensor(h, 2)
    assert np.allclose(T2.data, -np.eye(4), atol=1e-13)


def test_mean_profile_umbilic():
    n, k = 4, 0.7
    h = SecondFundamentalForm(k * np.eye(n)[None, :, :])
    prof = mean_profile(h)
    assert prof.hlen == pytest.approx(k)
    assert prof.norm2 == pytest.approx(n * k * k)
    assert prof.tau2 == pytest.approx(0.0, abs=1e-13)
    assert prof.mean(1) == pytest.approx(k)
    assert prof.mean(2) == pytest.approx(k * k)


def test_mean_profile_detects_offdirection_energy():
    # h^1 carries the mean direction, h^2 is trace-free: tau^2 = |h^2|^2
    h = np.zeros((2, 2, 2))
    h[0] = np.diag([1.0, 2.0])
    h[1] = np.diag([1.0, -1.0])
    prof = mean_profile(SecondFundamentalForm(h))
    assert prof.hlen == pytest.approx(1.5)
    assert prof.tau2 == pytest.approx(2.0, rel=1e-12)
    assert prof.norm2 == pytest.approx(1 + 4 + 1 + 1)
