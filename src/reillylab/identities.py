"""Randomized verification suites for the algebraic and conformal identities.

The algebraic suite draws random second fundamental forms of unit Frobenius
norm, evaluates each form's Newton, curvature and Lovelock families once,
and reports the worst absolute residual of every identity over the forms,
so the suite tolerances are scale free.  The geometric checks compare
frame data of an immersion with the conformal transformation laws and with
the weak form of the curvature identity satisfied by the conformal factor.
"""

import numpy as np

from .curvature import (contraction_rhs, gauss_curvature, lovelock_einstein,
                        lovelock_p4, lovelock_scalar, newton_contraction)
from .fem import DiscreteGeometry, assemble_forms
from .immersion import pushforward_under_map, AmbientSpace
from .newton import newton_chain, newton_kronecker, weighted_mean_curvature
from .secondform import SecondFundamentalForm


def random_unit_form(rng, n: int, p: int) -> SecondFundamentalForm:
    h = rng.standard_normal((p, n, n))
    h = 0.5 * (h + h.transpose(0, 2, 1))
    return SecondFundamentalForm(h / np.linalg.norm(h))


def _form_residuals(h, c: float) -> dict:
    """Every algebraic residual of one form, from one recursion chain, one
    oracle list T_0..T_n, one curvature and one list E_0..E_{n//2}; the
    contraction checks pair the oracle's T_1 and T_3 with the form.  The
    chain already holds newton_kronecker's value of each vector-valued
    (odd, p > 1) rank, so the oracle takes those ranks from the chain."""
    n = h.n
    tensors, scalars, vectors = newton_chain(h, n)
    oracle = [tensors[r] if tensors[r].vector_valued else newton_kronecker(h, r)
              for r in range(n + 1)]
    curv = gauss_curvature(h, c)
    einstein = [lovelock_einstein(curv, k) for k in range(n // 2 + 1)]
    out = {"newton_trace": 0.0, "newton_recursion": 0.0,
           "weighted_mean": 0.0, "lovelock_trace": 0.0,
           "lovelock_pairing": 0.0, "lovelock_partial": 0.0}
    for r in range(n + 1):
        tr = tensors[r].trace()
        if tensors[r].vector_valued:
            err = float(np.max(np.abs(tr - (n - r) * vectors[r])))
        else:
            want = (n - r) * scalars[r] if r in scalars else (n - r) * vectors[r][0]
            err = abs(tr - want)
        out["newton_trace"] = max(out["newton_trace"], err)
        out["newton_recursion"] = max(
            out["newton_recursion"],
            float(np.max(np.abs(tensors[r].data - oracle[r].data))))

    # H_{T_r} = (r + 1) S_{r+1}, with S_{r+1} recovered from the trace of
    # the independently evaluated next transformation
    for r in range(0, n - 1, 2):
        h_t = weighted_mean_curvature(oracle[r], h)
        s_next = np.atleast_1d(oracle[r + 1].trace()) / (n - r - 1)
        out["weighted_mean"] = max(
            out["weighted_mean"], float(np.max(np.abs(h_t - (r + 1) * s_next))))

    mean2 = float(np.sum(h.mean_vector() ** 2))
    out["gauss_scalar"] = abs(curv.scalar - (n * (n - 1) * c + n * n * mean2
                                             - h.norm2()))

    eye = np.eye(n)
    for k in range(1, n // 2 + 1):
        L = lovelock_scalar(curv, k)
        P = lovelock_p4(curv, k)
        E = einstein[k]
        if E is not None:
            out["lovelock_trace"] = max(
                out["lovelock_trace"], abs(np.trace(E) + 0.5 * (n - 2 * k) * L))
            Wk = np.einsum("stlj,stli->ij", P, curv.R4)
            out["lovelock_pairing"] = max(
                out["lovelock_pairing"], float(np.max(np.abs(E - k * Wk + 0.5 * L * eye))))
        ptrace = np.einsum("sisj->ij", P)
        out["lovelock_partial"] = max(
            out["lovelock_partial"],
            float(np.max(np.abs(ptrace + (n - 2 * k + 1) * einstein[k - 1]))))

    for k in (1, 2) if n >= 4 else (1,):
        lhs = newton_contraction(oracle[2 * k - 1], h)
        out["contraction_k%d" % k] = float(np.max(np.abs(lhs - contraction_rhs(curv, k))))
    return out


def identity_suite(instances: int = 100, seed: int = 0) -> dict:
    """Worst residual of each algebraic identity over random unit forms.

    Dimensions cycle through 2..6 and codimensions through 1..3; the
    contraction checks run at first order everywhere and at second order
    for n in {4, 5, 6}.  Each form's Newton, curvature and Lovelock
    families are evaluated once and shared by all of its checks.  Their
    defining sums add one term per orbit of the factors' slot symmetries:
    at n = 6 the rank-5 Newton sum takes 64 800 of its 518 400 terms and
    the order-3 Lovelock scalar 1 350.  For
    p > 1 the chain's odd ranks come from newton_kronecker, so
    newton_recursion compares them with themselves; they are checked by
    newton_trace and through the even ranks built from them.
    """
    rng = np.random.default_rng(seed)
    worst = {"newton_trace": 0.0, "newton_recursion": 0.0,
             "weighted_mean": 0.0, "gauss_scalar": 0.0,
             "lovelock_trace": 0.0, "lovelock_pairing": 0.0,
             "lovelock_partial": 0.0, "contraction_k1": 0.0,
             "contraction_k2": 0.0}
    for i in range(instances):
        n = 2 + i % 5
        p = 1 + i % 3
        c = float([-1.0, 0.0, 1.0][i % 3])
        h = random_unit_form(rng, n, p)
        for key, val in _form_residuals(h, c).items():
            worst[key] = max(worst[key], val)
    return worst


def conformal_stretch_residual(immersion, chain, count: int = 5,
                               seed: int = 0) -> float:
    """Frame identity of the composed test map.

    The differentials of the chain components along an orthonormal tangent
    frame satisfy sum_A Phi^A_i Phi^A_j = e^{2 rho} delta_ij; the worst
    relative deviation over count sample points drawn from seed.
    """
    frames = immersion.frame_at(immersion.sample_points(count, seed))
    jac = chain.test_map().jacobian(frames.point)
    v = frames.tangent @ np.swapaxes(jac, -1, -2)
    gram = v @ np.swapaxes(v, -1, -2)
    fac = chain.factor(frames.point)[:, None, None]
    return float(np.max(np.abs(gram - fac * np.eye(frames.n)) / fac))


def second_form_transform_residual(immersion, chain, count: int = 3,
                                   seed: int = 1) -> float:
    """Transformation law of the second fundamental form, hypersurfaces.

    The image of the immersion under the chain sits in the unit sphere;
    its shape eigenvalues must match e^{-rho} (kappa_i - <grad rho, nu>)
    computed from the original frame, up to the orientation of the normal.
    """
    if immersion.p != 1:
        raise ValueError("eigenvalue comparison requires codimension one")
    w = immersion.sample_points(count, seed)
    moved = pushforward_under_map(immersion, chain.test_map(),
                                  AmbientSpace(1.0, chain.dim))
    frames = immersion.frame_at(w)
    kappa, got = np.linalg.eigvalsh(
        np.stack([frames.h[:, 0], moved.frame_at(w).h[:, 0]]))
    rho_nu = immersion.ambient.inner(chain.grad_rho(frames.point),
                                     frames.normal[:, 0])
    predicted = np.sort(np.exp(-chain.rho(frames.point))[:, None]
                        * (kappa - rho_nu[:, None]))
    got = np.sort(got)
    err = np.minimum(np.max(np.abs(got - predicted), axis=-1),
                     np.max(np.abs(np.sort(-got) - predicted), axis=-1))
    scale = np.maximum(1.0, np.max(np.abs(predicted), axis=-1))
    return float(np.max(err / scale))


def factor_curvature_residual(immersion, mesh, chain) -> float:
    """Weak residual of the identity satisfied by the conformal factor.

    Pointwise, e^{2 rho} tr T = c tr T + 2 L_T rho - tr T |grad rho perp|^2
    + 2 <H_T, grad rho perp> - T'(grad rho, grad rho) on the submanifold,
    evaluated here for T = I (L_T the Laplacian) on a surface, where
    tr T = 2 and T' = (tr T) I - 2 T = 0.  The L_T term is integrated by
    parts against P1 hat functions; the return value is the l1 norm of the
    weak residual vector, which shrinks like the square of the mesh size
    for smooth data.
    """
    geom = DiscreteGeometry(immersion, mesh)
    space = immersion.ambient
    frames = geom.frames
    tr = 2.0
    grad = chain.grad_rho(frames.point)
    rho_vals = chain.rho(frames.point)
    tang = space.inner(grad[:, None, :], frames.tangent)  # (V, n)
    perp = grad - (tang[:, None, :] @ frames.tangent)[:, 0]
    perp2 = space.inner(perp, perp)
    h_t = (frames.weighted_normal(np.eye(2))[:, None, :] @ frames.normal)[:, 0]
    cross = space.inner(h_t, perp)
    field = (np.exp(2.0 * rho_vals) * tr - space.c * tr
             + tr * perp2 - 2.0 * cross)
    stiffness, mass = assemble_forms(geom)
    residual = mass @ field - 2.0 * (stiffness @ rho_vals)
    return float(np.sum(np.abs(residual)))
