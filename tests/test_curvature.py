"""Induced curvature tensors and the Lovelock family: symmetry screens,
trace identities, and the contraction formula tying Newton transformations
of the second fundamental form to intrinsic curvature."""

import math

import numpy as np
import pytest

from reillylab.curvature import (CurvatureData, contraction_rhs,
                                 gauss_curvature, lovelock_einstein,
                                 lovelock_p4, lovelock_scalar,
                                 newton_contraction)
from reillylab import curvature, newton
from reillylab.errors import ShapeError
from reillylab.newton import newton_kronecker
from reillylab.secondform import SecondFundamentalForm

from orbit_terms import orbit_terms

# (axis permutation, sign) of pair antisymmetry and pair swap
_SYMMETRIES = (((1, 0, 2, 3), -1.0), ((0, 1, 3, 2), -1.0), ((2, 3, 0, 1), 1.0))


def curvature_from_tensor(R4: np.ndarray, c: float = 0.0) -> CurvatureData:
    """Wrap a raw curvature tensor that has its symmetries to 1e-10 of its
    scale, stored projected onto them.

    The Lovelock sums add one term per orbit of the pair antisymmetries,
    which is the defining sum only when those hold exactly.  Each
    projection step (A -/+ A^perm) / 2 keeps the earlier steps' exact
    symmetries and leaves an exactly symmetric tensor bit for bit.
    """
    R4 = np.asarray(R4, dtype=float)
    n = R4.shape[0]
    if R4.shape != (n, n, n, n):
        raise ShapeError("curvature tensor must have shape (n, n, n, n)")
    scale = max(1.0, float(np.max(np.abs(R4))))
    for perm, sign in _SYMMETRIES:
        if np.max(np.abs(R4 - sign * np.transpose(R4, perm))) > 1e-10 * scale:
            raise ShapeError("curvature tensor lacks the required symmetries")
    for perm, sign in _SYMMETRIES:
        R4 = (R4 + sign * np.transpose(R4, perm)) / 2.0
    Ric = np.einsum("ijkj->ik", R4)
    return CurvatureData(R4=R4, Ric=Ric, scalar=float(np.trace(Ric)), c=float(c))


def contraction_lhs(h, k: int) -> np.ndarray:
    """sum_{m,a} T^a_{2k-1, mj} h^a_{mi} from the defining sum."""
    if not isinstance(h, SecondFundamentalForm):
        h = SecondFundamentalForm(np.asarray(h, dtype=float))
    return newton_contraction(newton_kronecker(h, 2 * k - 1), h)


def random_curvature(n: int, rng, c: float = 0.0):
    """Random tensor with curvature symmetries (pair antisymmetry and pair
    swap), for exercising the purely combinatorial Lovelock identities."""
    A = rng.standard_normal((n, n, n, n))
    A = A - np.transpose(A, (1, 0, 2, 3))
    A = A - np.transpose(A, (0, 1, 3, 2))
    A = A + np.transpose(A, (2, 3, 0, 1))
    A /= max(1.0, np.linalg.norm(A))
    return curvature_from_tensor(A, c=c)


def contraction_residual(h, c: float, k: int) -> float:
    """Max-abs residual between the two sides of the contraction identity."""
    if not isinstance(h, SecondFundamentalForm):
        h = SecondFundamentalForm(np.asarray(h, dtype=float))
    curv = gauss_curvature(h, c)
    return float(np.max(np.abs(contraction_lhs(h, k) - contraction_rhs(curv, k))))


def random_form(n, p, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((p, n, n))
    return SecondFundamentalForm(0.5 * (h + h.transpose(0, 2, 1)))


def test_round_sphere_curvature():
    # S^4(a) in R^5: h = (1/a) I, sectional curvature 1/a^2
    n, a = 4, 1.3
    h = SecondFundamentalForm((1.0 / a) * np.eye(n)[None, :, :])
    curv = gauss_curvature(h, c=0.0)
    assert curv.R4[0, 1, 0, 1] == pytest.approx(1.0 / a**2, rel=1e-13)
    assert np.allclose(curv.Ric, (n - 1) / a**2 * np.eye(n), atol=1e-13)
    assert curv.scalar == pytest.approx(n * (n - 1) / a**2, rel=1e-13)


def test_product_sphere_sectional_split():
    # S^2(a) x S^2(b) in R^6: intra-factor curvature 1/a^2 or 1/b^2,
    # cross-factor planes are flat
    a, b = math.sqrt(0.5), math.sqrt(0.5)
    h = np.zeros((2, 4, 4))
    h[0, 0, 0] = h[0, 1, 1] = 1.0 / a
    h[1, 2, 2] = h[1, 3, 3] = 1.0 / b
    curv = gauss_curvature(SecondFundamentalForm(h), c=0.0)
    assert curv.R4[0, 1, 0, 1] == pytest.approx(1.0 / a**2)
    assert curv.R4[2, 3, 2, 3] == pytest.approx(1.0 / b**2)
    assert curv.R4[0, 2, 0, 2] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_scalar_curvature_identity(c):
    # R = n(n-1) c + n^2 |H|^2 - |h|^2
    h = random_form(5, 3, seed=int(10 * (c + 2)))
    curv = gauss_curvature(h, c)
    n = 5
    H2 = float(np.sum(h.mean_vector() ** 2))
    want = n * (n - 1) * c + n * n * H2 - h.norm2()
    assert curv.scalar == pytest.approx(want, rel=1e-12)


def test_curvature_tensor_symmetries():
    curv = random_curvature(5, np.random.default_rng(1), c=0.0)
    R = curv.R4
    assert np.allclose(R, -R.transpose(1, 0, 2, 3), atol=1e-13)
    assert np.allclose(R, -R.transpose(0, 1, 3, 2), atol=1e-13)
    assert np.allclose(R, R.transpose(2, 3, 0, 1), atol=1e-13)
    # first Bianchi holds for curvature induced from a second form
    h = random_form(4, 2, 5)
    R = gauss_curvature(h, 1.0).R4
    bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
    assert np.max(np.abs(bianchi)) < 1e-12


def test_first_lovelock_matches_classical_objects():
    curv = random_curvature(5, np.random.default_rng(3), c=-1.0)
    assert lovelock_scalar(curv, 1) == pytest.approx(curv.scalar, rel=1e-12)
    E1 = lovelock_einstein(curv, 1)
    want = curv.Ric - 0.5 * curv.scalar * np.eye(5)
    assert np.allclose(E1, want, atol=1e-12)


def test_constant_curvature_lovelock_closed_form():
    # space form of curvature c: L_k = c^k n!/(n-2k)!
    for n in (4, 5, 6):
        h0 = SecondFundamentalForm(np.zeros((1, n, n)))
        for c in (-1.0, 1.0):
            curv = gauss_curvature(h0, c)
            for k in range(1, n // 2 + 1):
                want = (c ** k) * math.factorial(n) / math.factorial(n - 2 * k)
                assert lovelock_scalar(curv, k) == pytest.approx(
                    want, rel=1e-12), (n, c, k)


@pytest.mark.parametrize("n,kmax", [(4, 2), (5, 2), (6, 3)])
def test_lovelock_family_trace_relations(n, kmax):
    curv = random_curvature(n, np.random.default_rng(n), c=0.0)
    R = curv.R4
    eye = np.eye(n)
    for k in range(1, kmax + 1):
        L = lovelock_scalar(curv, k)
        P = lovelock_p4(curv, k)
        # P shares the algebraic curvature symmetries on its four open slots
        assert np.allclose(P, -P.transpose(1, 0, 2, 3), atol=1e-11)
        assert np.allclose(P, -P.transpose(0, 1, 3, 2), atol=1e-11)
        assert np.allclose(P, P.transpose(2, 3, 0, 1), atol=1e-11)
        # full contraction against curvature returns the scalar
        assert np.einsum("stlm,stlm->", P, R) == pytest.approx(L, rel=1e-10)
        E = lovelock_einstein(curv, k)
        if E is not None:
            assert np.trace(E) == pytest.approx(-0.5 * (n - 2 * k) * L,
                                                rel=1e-10, abs=1e-10)
            # E_k = k W_k - L_k I / 2 with W_k the three-slot contraction of
            # the divergence-free curvature tensor against R
            Wk = np.einsum("stlj,stli->ij", P, R)
            assert np.allclose(E, k * Wk - 0.5 * L * eye, atol=1e-9)
        else:
            assert 2 * k + 1 > n
        # partial trace of P drops to the previous Einstein tensor
        Etr = lovelock_einstein(curv, k - 1)
        ptrace = np.einsum("sisj->ij", P)
        assert np.allclose(ptrace, -(n - 2 * k + 1) * Etr, atol=1e-10)


def r_product(R4, terms, factors):
    """Weighted signs times the first `factors` curvature factors, gathered
    with four index arrays."""
    up, lo, sg = terms
    prod = sg.copy()
    for s in range(factors):
        prod = prod * R4[up[:, 2 * s], up[:, 2 * s + 1], lo[:, 2 * s], lo[:, 2 * s + 1]]
    return prod


# The defining sums of L_k, E2[k] and P4[k], scattered with np.add.at over
# one term per orbit of the curvature factors' slot symmetries: the
# reference for the gather and bincount scatter of the curvature module.
# With reduced=False they run over every term.

def defining_scalar(R4, k, reduced=True):
    terms = orbit_terms(R4.shape[0], 2 * k, k if reduced else 0, split=True)
    return float(r_product(R4, terms, k).sum()) / 2 ** k


def defining_einstein(R4, k, reduced=True):
    n = R4.shape[0]
    up, lo, sg = terms = orbit_terms(n, 2 * k + 1, k if reduced else 0,
                                     split=True)
    e2 = np.zeros((n, n))
    np.add.at(e2, (up[:, 2 * k], lo[:, 2 * k]), r_product(R4, terms, k))
    return -e2 / 2 ** (k + 1)


def defining_p4(R4, k, reduced=True):
    n = R4.shape[0]
    up, lo, sg = terms = orbit_terms(n, 2 * k, k - 1 if reduced else 0,
                                     split=True)
    p4 = np.zeros((n, n, n, n))
    np.add.at(p4, (up[:, 2 * k - 2], up[:, 2 * k - 1],
                   lo[:, 2 * k - 2], lo[:, 2 * k - 1]),
              r_product(R4, terms, k - 1))
    return p4 / 2 ** k


def assert_orbit_sums_match_unreduced(curv):
    """Every Lovelock sum within 1e-13 * max(1, max|ref|) of its unreduced
    defining sum."""
    R4 = curv.R4
    for k in range(1, curv.n // 2 + 1):
        pairs = [(lovelock_scalar(curv, k), defining_scalar(R4, k, False)),
                 (lovelock_p4(curv, k), defining_p4(R4, k, False))]
        if 2 * k + 1 <= curv.n:
            pairs.append((lovelock_einstein(curv, k),
                           defining_einstein(R4, k, False)))
        for got, ref in pairs:
            err = np.max(np.abs(got - ref))
            assert err <= 1e-13 * max(1.0, np.max(np.abs(ref))), (curv.n, k, err)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lovelock_scatters_bitwise_equal_add_at(n):
    """E2 and P4 against their defining sums scattered with np.add.at."""
    curv = random_curvature(n, np.random.default_rng(20 + n), c=0.5)
    for k in range(1, n // 2 + 1):
        assert np.array_equal(lovelock_p4(curv, k),
                              defining_p4(curv.R4, k)), (n, k)
        if 2 * k + 1 > n:
            continue
        assert np.array_equal(lovelock_einstein(curv, k),
                              defining_einstein(curv.R4, k)), (n, k)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_lovelock_scalar_bitwise_equals_index_arrays(n):
    """L_k against its defining sum gathered with four index arrays."""
    curv = random_curvature(n, np.random.default_rng(40 + n), c=-0.5)
    for k in range(1, n // 2 + 1):
        assert np.array_equal(lovelock_scalar(curv, k),
                              defining_scalar(curv.R4, k)), (n, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_orbit_sums_match_unreduced_sums(n, c):
    """One term per orbit, weighted by its size, is the defining sum."""
    assert_orbit_sums_match_unreduced(
        gauss_curvature(random_form(n, 2, seed=60 + n), c))


def test_perturbed_tensor_is_projected_onto_its_symmetries():
    """A tensor inside the acceptance tolerance is stored exactly
    symmetric, so its orbit sums stay the defining sums."""
    R4 = gauss_curvature(random_form(6, 2, seed=70), 1.0).R4
    noise = np.random.default_rng(71).standard_normal(R4.shape)
    raw = R4 + 1e-11 * np.max(np.abs(R4)) * noise
    curv = curvature_from_tensor(raw, c=1.0)
    stored = curv.R4
    assert np.array_equal(stored, -stored.transpose(1, 0, 2, 3))
    assert np.array_equal(stored, -stored.transpose(0, 1, 3, 2))
    assert np.array_equal(stored, stored.transpose(2, 3, 0, 1))
    assert np.max(np.abs(stored - raw)) < 1e-10 * np.max(np.abs(R4))
    assert_orbit_sums_match_unreduced(curv)


def test_exactly_symmetric_tensor_is_stored_bitwise():
    R4 = gauss_curvature(random_form(5, 3, seed=72), -1.0).R4
    assert np.array_equal(curvature_from_tensor(R4).R4, R4)


def test_orbit_term_counts(monkeypatch):
    """Timing-free guard: the sums gather one term per orbit."""
    seen = []
    for module in (curvature, newton):
        real = module.term_offsets

        def counted(*args, real=real, **kwargs):
            out = real(*args, **kwargs)
            seen.append(len(out[0]))
            return out
        monkeypatch.setattr(module, "term_offsets", counted)
    h = random_form(6, 2, seed=73)
    curv = gauss_curvature(h, 1.0)
    lovelock_scalar(curv, 3)
    lovelock_p4(curv, 3)
    newton_kronecker(h, 5)
    # 518 400 unreduced terms each, over orbits of 4^3 3!, 4^2 2! and 2^2 2!
    assert seen == [1350, 16200, 64800]


def test_lovelock_zeroth_einstein_convention():
    curv = random_curvature(4, np.random.default_rng(9), c=1.0)
    E0 = lovelock_einstein(curv, 0)
    assert np.allclose(E0, -0.5 * np.eye(4))


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_contraction_identity_first_order(c):
    # k = 1: sum_alpha T^alpha_1 h^alpha = Ric - (n-1) c I
    h = random_form(5, 2, seed=int(3 * (c + 2)))
    curv = gauss_curvature(h, c)
    lhs = contraction_lhs(h, 1)
    want = curv.Ric - (5 - 1) * c * np.eye(5)
    assert np.allclose(lhs, want, atol=1e-11)
    rhs = contraction_rhs(curv, 1)
    assert np.allclose(rhs, want, atol=1e-11)


@pytest.mark.parametrize("n,p,c,kmax", [
    (4, 1, 0.0, 2), (4, 2, 1.0, 2), (4, 3, -1.0, 2),
    (5, 2, 1.0, 2), (5, 1, -1.0, 2),
    (6, 2, 0.0, 3), (6, 1, 1.0, 3),
])
def test_contraction_identity_higher_order(n, p, c, kmax):
    """Odd Newton transformations contracted against the second form agree
    with the intrinsic Lovelock expression at every admissible order,
    including the borderline 2k = n."""
    h = random_form(n, p, seed=n + 10 * p + int(c))
    for k in range(1, kmax + 1):
        res = contraction_residual(h, c, k)
        assert res < 1e-10, (n, p, c, k, res)


def test_contraction_identity_trivial_form():
    # totally geodesic: both sides must vanish for every admissible k
    for n, c in [(4, 1.0), (5, -1.0), (6, 1.0)]:
        h = SecondFundamentalForm(np.zeros((2, n, n)))
        for k in range(1, n // 2 + 1):
            assert contraction_residual(h, c, k) < 1e-12


def test_curvature_from_tensor_roundtrip():
    h = random_form(4, 2, 17)
    curv = gauss_curvature(h, 1.0)
    rebuilt = curvature_from_tensor(curv.R4, c=1.0)
    assert np.allclose(rebuilt.Ric, curv.Ric, atol=1e-13)
    assert rebuilt.scalar == pytest.approx(curv.scalar, rel=1e-13)
