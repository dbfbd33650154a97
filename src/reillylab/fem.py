"""P1 finite elements for -div(T grad f) + q f on immersed surface meshes.

Element geometry comes from ambient chordal edge lengths of the immersed
vertices, measured with the ambient (possibly Lorentz) inner product, as
whole-mesh arrays.  The weight tensor T is evaluated at element centroids in
the orthonormal surface frame and rotated into the element's local flat
coordinates; the centroid frames come from one batched frame_at call, made
only for a tensor field, and the field is evaluated once on that batch.
The potential q is interpolated from vertex values.  Element forms are
batched 2x2 and 3x3 matrix products, with closed-form 2x2 polar factors
and eigenvalues.
"""

import numpy as np

from .errors import EllipticityError, TopologyError, UnsupportedConfiguration
from .immersion import _dot
from .secondform import rowdot

_MASS_LOCAL = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0

# degree-2 triangle rule: barycentric permutations of (2/3, 1/6, 1/6)
_QUAD_BARY = np.array([[2.0 / 3, 1.0 / 6, 1.0 / 6],
                       [1.0 / 6, 2.0 / 3, 1.0 / 6],
                       [1.0 / 6, 1.0 / 6, 2.0 / 3]])

_ELLIPTIC_REL_TOL = 1e-10


def _orthogonal_polar(a):
    """Orthogonal polar factors of 2x2 matrices a (F, 2, 2) in closed form,
    (a + sgn(det a) cof a) / sqrt(|a|_F^2 + 2 |det a|): u @ vt of the SVD."""
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    cof = np.stack([a[:, 1, ::-1], a[:, 0, ::-1]], axis=1) * [[1, -1], [-1, 1]]
    sign = np.where(det < 0.0, -1.0, 1.0)[:, None, None]
    norm = np.sqrt(np.sum(a * a, axis=(1, 2)) + 2.0 * np.abs(det))
    return (a + sign * cof) / norm[:, None, None]


def element_metric(positions, triangles, metric_diag):
    """Per triangle of `triangles` over the vertex `positions` (V, C):
    the edges e1, e2 (F, C) from corner 0 to corners 1 and 2, their
    ambient inner products g11 = <e1, e1> and g12 = <e1, e2> (F,), and
    the area (F,), half the root of the edges' Gram determinant.  Raises
    TopologyError at the first triangle whose Gram matrix is not positive
    definite."""
    e1 = positions[triangles[:, 1]] - positions[triangles[:, 0]]
    e2 = positions[triangles[:, 2]] - positions[triangles[:, 0]]
    g11 = _dot(e1.T, e1.T, metric_diag)
    g12 = _dot(e1.T, e2.T, metric_diag)
    g22 = _dot(e2.T, e2.T, metric_diag)
    det = g11 * g22 - g12 * g12
    bad = np.flatnonzero((g11 <= 0.0) | (det <= 0.0))
    if bad.size:
        raise TopologyError("triangle %d has degenerate geometry" % bad[0])
    return e1, e2, g11, g12, 0.5 * np.sqrt(det)


class DiscreteGeometry:
    """Vertex frames and per-element P1 arrays for one immersed mesh.

    Holds the vertex frames as one FrameBatch (`frames`, one row per mesh
    vertex, from a single frame_at call), the vertex positions (V, C) and,
    per triangle, the area (F,), the hat-function gradients in local flat
    coordinates (F, 2, 3) and the orthonormal local axes in the ambient
    space (F, 2, C).
    """

    def __init__(self, immersion, mesh):
        if immersion.n != 2:
            raise UnsupportedConfiguration(
                "triangle elements require a two-dimensional domain, got %d"
                % immersion.n)
        self.immersion = immersion
        self.mesh = mesh
        self.frames = immersion.frame_at(mesh.points)
        self.positions = self.frames.point

        tri = mesh.triangles
        e1, e2, g11, g12, self.areas = element_metric(
            self.positions, tri, immersion.ambient.metric_diag)
        sq = np.sqrt(g11)
        height = 2.0 * self.areas / sq
        p = np.zeros((len(tri), 3, 2))  # corners in each flat chart
        p[:, 1, 0], p[:, 2, 0], p[:, 2, 1] = sq, g12 / sq, height
        # gradients of the barycentric hat functions in local coordinates
        nxt, prv = [1, 2, 0], [2, 0, 1]
        self.grads = np.stack([p[:, nxt, 1] - p[:, prv, 1],
                               p[:, prv, 0] - p[:, nxt, 0]], axis=1)
        self.grads /= (2.0 * self.areas)[:, None, None]
        self._local_axes = np.stack(
            [e1 / sq[:, None],
             (e2 - (g12 / g11)[:, None] * e1) / height[:, None]], axis=1)
        self.volume = float(np.sum(self.areas))

    def integrate(self, vertex_values: np.ndarray) -> float:
        """Integral of the P1 interpolant of per-vertex samples."""
        corner = vertex_values[self.mesh.triangles]
        return float(np.sum(self.areas * np.mean(corner, axis=1)))


def assemble_forms(geom: DiscreteGeometry, tensor_field=None, potential=None):
    """Stiffness and mass matrices for the pencil K f = lambda M f.

    tensor_field: callable (FrameBatch) -> symmetric weight matrices in
    frame components, or None for the identity (the Laplacian).  It is
    called once, on the batch of element centroid frames, and its result
    broadcasts against (F, 2, 2), so a constant (2, 2) matrix serves every
    element.  potential: the values (V,) of q at the vertices, added to K
    through the quadratic form integral of q f g.  Raises EllipticityError
    at the first element whose weight matrix is not positive definite.
    The tensor reaches each element's local axes by the orthogonal polar
    factor of the map from the centroid frame, a reflection where that map
    reverses orientation (on the projective plane's quotient meshes).
    """
    import scipy.sparse as sp  # here, so that importing reillylab skips scipy

    mesh = geom.mesh
    tri = mesh.triangles
    nf = tri.shape[0]
    if tensor_field is not None:
        imm = geom.immersion
        corners = mesh.points[tri]  # (F, 3, embed_dim)
        if mesh.topology == "projective_plane":
            # sign-align corners 1 and 2 with corner 0 across the quotient;
            # norms as sqrt(dot) like the 1-D np.linalg.norm
            dif = corners[:, 1:] - corners[:, :1]
            tot = corners[:, 1:] + corners[:, :1]
            flip = (np.sqrt(rowdot(dif, dif))
                    > np.sqrt(rowdot(tot, tot)))[..., None]
            corners[:, 1:] = np.where(flip, -corners[:, 1:], corners[:, 1:])
        centroids = imm.domain.centroid(corners)
        frames = imm.frame_at(centroids)
        # orthogonal maps from centroid-frame components to local coordinates
        raw = geom._local_axes @ np.swapaxes(
            frames.tangent * imm.ambient.metric_diag, 1, 2)
        rot = _orthogonal_polar(raw)
        tmats = np.broadcast_to(np.asarray(tensor_field(frames), dtype=float),
                                frames.metric.shape)
        t_local = rot @ tmats @ np.swapaxes(rot, 1, 2)
        # ascending eigenvalues, from the lower triangle as eigvalsh reads it
        mean = 0.5 * (t_local[:, 0, 0] + t_local[:, 1, 1])
        radius = np.hypot(0.5 * (t_local[:, 0, 0] - t_local[:, 1, 1]),
                          t_local[:, 1, 0])
        eig = np.stack([mean - radius, mean + radius], axis=1)
        scale = np.maximum.accumulate(np.abs(eig[:, -1]))
        bad = np.flatnonzero(eig[:, 0] <= _ELLIPTIC_REL_TOL * scale)
        if bad.size:
            f = bad[0]
            raise EllipticityError(
                "weight tensor not positive definite at element %d "
                "(domain point %s): eigenvalues %s"
                % (f, np.array_str(centroids[f], precision=6), eig[f]))
    # the area scales the gradients first: as area * (grads^T T grads),
    # the zero eigenvalue of the level-3 flat torus rounds 2e-12 from 0
    k_loc = geom.areas[:, None, None] * geom.grads
    if tensor_field is not None:
        k_loc = t_local @ k_loc
    k_loc = np.swapaxes(geom.grads, 1, 2) @ k_loc
    m_loc = geom.areas[:, None, None] * _MASS_LOCAL
    if potential is not None:
        qv = np.asarray(potential, dtype=float)[tri]  # (F, 3)
        qpt = qv @ _QUAD_BARY.T  # value at each quadrature point
        # sum over quadrature points of q phi_i phi_j, phi the hat values
        q_loc = qpt @ (_QUAD_BARY[:, :, None] * _QUAD_BARY[:, None, :]).reshape(3, 9)
        q_loc = q_loc.reshape(nf, 3, 3)
        k_loc = k_loc + (geom.areas / 3.0)[:, None, None] * q_loc

    rows = np.repeat(tri, 3, axis=1).reshape(nf, 3, 3)
    cols = np.stack([tri] * 3, axis=1)
    nv = mesh.points.shape[0]
    stiffness = sp.coo_matrix(
        (k_loc.ravel(), (rows.ravel(), cols.ravel())), shape=(nv, nv)).tocsr()
    mass = sp.coo_matrix(
        (m_loc.ravel(), (rows.ravel(), cols.ravel())), shape=(nv, nv)).tocsr()
    return stiffness, mass
