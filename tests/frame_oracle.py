"""The frame and element kernels in their first formulation: numpy's
batched LAPACK wrappers (cholesky, solve, eigvalsh, svd) and
multi-operand einsum, one step per formula.  The references that the
closed-form, matmul and coordinate-major kernels of `reillylab.immersion`
and `reillylab.fem` are checked against, plus the Gauss-formula residual
of the chart second derivatives."""

import numpy as np
import scipy.sparse as sp

from reillylab.errors import EllipticityError, ImmersionError
from reillylab.fem import _ELLIPTIC_REL_TOL, _MASS_LOCAL, _QUAD_BARY
from reillylab.immersion import FrameBatch, PolynomialMap
from reillylab.secondform import symmetrized


def inner(diag, u, v):
    return np.sum(u * v * diag, axis=-1)


def sphere_tangents(w):
    """Masked Gram-Schmidt on the coordinate axes over every row, each
    candidate projected twice, with the smallest norm (K,) of a candidate
    each row took: the rounding of a row grows as its inverse."""
    size = w.shape[-1]
    count = w.shape[0]
    basis = np.zeros((count, size - 1, size))
    found = np.zeros(count, dtype=int)
    smallest = np.full(count, np.inf)
    for k in range(size):
        v = np.zeros((count, size))
        v[:, k] = 1.0
        for _ in range(2):
            v = v - np.einsum("ki,ki->k", v, w)[:, None] * w
            for slot in range(size - 1):
                b = basis[:, slot]
                v = v - np.einsum("ki,ki->k", v, b)[:, None] * b
        norm = np.sqrt(np.einsum("ki,ki->k", v, v))
        rows = np.flatnonzero((found < size - 1) & (norm > 1e-7))
        basis[rows, found[rows]] = v[rows] / norm[rows, None]
        smallest[rows] = np.minimum(smallest[rows], norm[rows])
        found[rows] += 1
    assert np.all(found == size - 1)
    return basis, smallest


def jets(imm, w):
    """Position (K, C), first (K, n, C) and second (K, n, n, C) chart
    derivatives of a PolynomialMap immersion at the points w (K, e), on
    the domain's own chart (checked against `sphere_tangents` apart)."""
    m = imm.mapping
    assert isinstance(m, PolynomialMap)
    x = (m.a0 + np.einsum("ni,ki->kn", m.a1, w)
         + np.einsum("nij,ki,kj->kn", m.a2, w, w))
    jac = m.a1 + 2.0 * np.einsum("nij,kj->kni", m.a2, w)
    hess = 2.0 * m.a2
    tau = imm.domain.chart(w)
    sec = imm.domain.chart_second(w)
    d1 = np.einsum("kad,knd->kan", tau, jac)
    d2 = (np.einsum("nde,kad,kbe->kabn", hess, tau, tau)
          + np.einsum("kabd,knd->kabn", sec, jac))
    return x, d1, d2


def frames(imm, w):
    """dict of point, metric, tangent, normal, h and coeff (K, ...) at
    the points w (K, e): Cholesky factor and triangular solve for the
    tangents, eigvalsh for the rank test, normals projected twice, einsum
    for h."""
    space = imm.ambient
    diag = space.metric_diag
    x, d1, d2 = jets(imm, w)
    count, n, coords = d1.shape
    g = np.sum(d1[:, :, None, :] * d1[:, None, :, :] * diag, axis=-1)
    eigs = np.linalg.eigvalsh(g)
    if np.any(eigs[:, 0] <= 1e-10 * np.maximum(1.0, eigs[:, -1])):
        raise ImmersionError("singular chart: induced metric is rank deficient")
    lower = np.linalg.cholesky(g)
    coeff = np.linalg.solve(lower, np.broadcast_to(np.eye(n), g.shape))
    tangent = coeff @ d1

    p = imm.p
    normal = np.zeros((count, p, coords))
    found = np.zeros(count, dtype=int)
    for k in range(coords):
        v = np.zeros((count, coords))
        v[:, k] = 1.0
        for _ in range(2):
            if space.c != 0.0:
                v = v - space.c * inner(diag, v, x)[:, None] * x
            for t in range(n):
                v = v - inner(diag, v, tangent[:, t])[:, None] * tangent[:, t]
            for m in range(p):
                v = v - inner(diag, v, normal[:, m])[:, None] * normal[:, m]
        norm2 = inner(diag, v, v)
        rows = np.flatnonzero((found < p) & (norm2 > 1e-10))
        normal[rows, found[rows]] = v[rows] / np.sqrt(norm2[rows])[:, None]
        found[rows] += 1
    assert np.all(found == p)

    proj = np.einsum("kabn,kcn,n->kcab", d2, normal, diag)
    hmat = np.einsum("kia,kjb,kcab->kcij", coeff, coeff, proj)
    flip = np.trace(hmat, axis1=-2, axis2=-1) < -1e-9
    hmat = np.where(flip[..., None, None], -hmat, hmat)
    normal = np.where(flip[..., None], -normal, normal)
    return {"point": x, "metric": g, "tangent": tangent, "normal": normal,
            "h": symmetrized(hmat), "coeff": coeff}


def assemble_forms(geom, tensor_field=None, potential=None):
    """Stiffness and mass matrices with centroid frames from `frames`,
    the orthogonal polar factor from the SVD and einsum element forms."""
    mesh = geom.mesh
    tri = mesh.triangles
    nf = tri.shape[0]
    if tensor_field is None:
        t_local = np.tile(np.eye(2), (nf, 1, 1))
    else:
        imm = geom.immersion
        fr = frames(imm, element_centroids(imm, mesh))
        raw = polar_input(geom, fr["tangent"])
        u, _, vt = np.linalg.svd(raw)
        rot = u @ vt
        tmats = np.broadcast_to(np.asarray(tensor_field(FrameBatch(**fr)),
                                           dtype=float),
                                fr["metric"].shape)
        t_local = rot @ tmats @ np.swapaxes(rot, 1, 2)
        eig = np.linalg.eigvalsh(t_local)
        scale = np.maximum.accumulate(np.abs(eig[:, -1]))
        if np.any(eig[:, 0] <= _ELLIPTIC_REL_TOL * scale):
            raise EllipticityError("weight tensor not positive definite")
    k_loc = np.einsum("f,fai,fab,fbj->fij", geom.areas, geom.grads,
                      t_local, geom.grads)
    m_loc = np.einsum("f,ij->fij", geom.areas, _MASS_LOCAL)
    if potential is not None:
        qpt = np.asarray(potential, dtype=float)[tri] @ _QUAD_BARY.T
        k_loc = k_loc + np.einsum("f,fq,qi,qj->fij", geom.areas / 3.0, qpt,
                                  _QUAD_BARY, _QUAD_BARY)
    rows = np.repeat(tri, 3, axis=1).reshape(nf, 3, 3)
    cols = np.stack([tri] * 3, axis=1)
    nv = mesh.points.shape[0]
    stiffness = sp.coo_matrix(
        (k_loc.ravel(), (rows.ravel(), cols.ravel())), shape=(nv, nv)).tocsr()
    mass = sp.coo_matrix(
        (m_loc.ravel(), (rows.ravel(), cols.ravel())), shape=(nv, nv)).tocsr()
    return stiffness, mass


def element_centroids(imm, mesh):
    """Domain centroids of the triangles, the corners of a projective
    plane's triangle first sign-aligned with corner 0 across the quotient."""
    corners = mesh.points[mesh.triangles]
    if mesh.topology == "projective_plane":
        dif = corners[:, 1:] - corners[:, :1]
        tot = corners[:, 1:] + corners[:, :1]
        flip = (np.linalg.norm(dif, axis=-1)
                > np.linalg.norm(tot, axis=-1))[..., None]
        corners[:, 1:] = np.where(flip, -corners[:, 1:], corners[:, 1:])
    return imm.domain.centroid(corners)


def polar_input(geom, tangent):
    """The (F, 2, 2) maps from centroid-frame components to each element's
    local coordinates, before their orthogonal polar factor is taken."""
    diag = geom.immersion.ambient.metric_diag
    return np.einsum("fan,fin,n->fai", geom._local_axes, tangent, diag)


def structure_residual(imm, w):
    """Deviation of the chart second derivatives at one point w from the
    Gauss formula: after removing the tangential and normal projections
    of each d2[a, b], the remainder must be -c g_ab x.  Returns the
    largest coordinate norm of what is left over."""
    space = imm.ambient
    frame = imm.frame_at(w)
    x, _, d2 = imm.jets(w)
    worst = 0.0
    for a in range(imm.n):
        for b in range(imm.n):
            v = d2[a, b].copy()
            for t in frame.tangent:
                v = v - space.inner(v, t) * t
            for m in frame.normal:
                v = v - space.inner(v, m) * m
            v = v + space.c * frame.metric[a, b] * x
            worst = max(worst, float(np.linalg.norm(v)))
    return worst
