"""Triangle meshes over parameter domains, with OFF serialization.

Vertices live in parameter-domain coordinates (unit vectors per sphere
factor), so frames can be evaluated at any vertex or centroid through the
owning immersion.  Ambient positions are derived, never stored.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, TopologyError
from .secondform import rowdot

_EULER = {"sphere": 2, "torus": 0, "projective_plane": 1}

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
], dtype=float)

_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=int)


@dataclass
class Mesh:
    """Triangulated parameter domain.

    points: (V, d) domain coordinates; triangles: (F, 3) vertex indices.
    ``oriented`` is False for quotient meshes of non-orientable surfaces,
    where a consistent triangle orientation cannot exist.
    """

    points: np.ndarray
    triangles: np.ndarray
    topology: str = "sphere"
    oriented: bool = True

    @property
    def vertex_count(self) -> int:
        return self.points.shape[0]

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v over its length, bitwise as ``v / np.linalg.norm(v)``
    row by row: both take the square root of the BLAS dot ``v @ v``."""
    return v / np.sqrt(rowdot(v, v))[:, None]


def icosphere(level: int = 3) -> Mesh:
    """Subdivided icosahedron on the unit sphere, 10*4^level + 2 vertices.

    Each step puts a vertex at every edge midpoint, numbered in the order
    in which a pass over the faces meets the edges ab, bc, ca, and splits
    face abc into (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).
    """
    if level < 0:
        raise ArgumentError("subdivision level must be nonnegative")
    verts = _unit_rows(_ICO_VERTS)
    faces = _ICO_FACES
    for _ in range(level):
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = ends.min(axis=1) * len(verts) + ends.max(axis=1)
        _, first, edge = np.unique(keys, return_index=True, return_inverse=True)
        visit = np.argsort(first)
        number = np.empty_like(visit)
        number[visit] = np.arange(len(verts), len(verts) + len(visit))
        fresh = ends[first[visit]]
        verts = np.concatenate(
            [verts, _unit_rows(verts[fresh[:, 0]] + verts[fresh[:, 1]])])
        a, b, c = faces.T
        ab, bc, ca = number[edge].reshape(-1, 3).T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    # a copy: at level 0, faces is the module's _ICO_FACES
    return Mesh(points=verts, triangles=faces.astype(int), topology="sphere")


def projective_icosphere(level: int = 3) -> Mesh:
    """Antipodal quotient of the icosphere: a triangulation of RP^2.

    The icosahedral vertex set is centrally symmetric and subdivision
    preserves that, so every vertex has an antipode in the mesh.  Vertex
    pairs keep their lower index, in index order; each pair of antipodal
    faces keeps the one met first, and faces are sorted by vertex tuple.
    """
    base = icosphere(level)
    nv = base.vertex_count
    # rows rounded to 12 digits identify a point; + 0.0 makes -0.0 equal 0.0
    rows = np.round(np.concatenate([base.points, -base.points]), 12) + 0.0
    _, point = np.unique(rows, axis=0, return_inverse=True)
    point = point.ravel()
    owner = np.full(2 * nv, -1)
    owner[point[:nv]] = np.arange(nv)
    anti = owner[point[nv:]]
    if (anti < 0).any():
        raise TopologyError("vertex %d has no antipode; cannot quotient"
                            % np.flatnonzero(anti < 0)[0])
    kept, rep = np.unique(np.minimum(np.arange(nv), anti), return_inverse=True)
    tris = rep[base.triangles]
    _, first = np.unique(np.sort(tris, axis=1), axis=0, return_index=True)
    quotient = tris[first]
    quotient = quotient[np.lexsort(quotient.T[::-1])]
    if len(quotient) != base.triangle_count // 2:
        raise TopologyError("antipodal face pairing failed")
    return Mesh(points=base.points[kept], triangles=quotient,
                topology="projective_plane", oriented=False)


def torus_grid(n1: int, n2: int = 0) -> Mesh:
    """Periodic n1 x n2 grid on the angle torus, as points on S^1 x S^1.

    Node (i, j) is row i * n2 + j; grid cell (i, j) gives the triangles
    (v00, v10, v11) and (v00, v11, v01), cell after cell in row order.
    """
    n2 = n2 or n1
    if n1 < 3 or n2 < 3:
        raise ArgumentError("torus grid needs at least 3 nodes per circle")
    t1 = 2.0 * np.pi * np.arange(n1) / n1
    t2 = 2.0 * np.pi * np.arange(n2) / n2
    # math.cos and math.sin per angle, so the points do not depend on
    # numpy's vectorised trigonometry
    c1, s1, c2, s2 = (np.array([f(t) for t in ts])
                      for ts in (t1, t2) for f in (math.cos, math.sin))
    pts = np.column_stack([np.repeat(c1, n2), np.repeat(s1, n2),
                           np.tile(c2, n1), np.tile(s2, n1)])
    i = np.arange(n1)[:, None] * n2
    inext = (np.arange(n1)[:, None] + 1) % n1 * n2
    j = np.arange(n2)
    jnext = (j + 1) % n2
    v00, v10, v01, v11 = i + j, inext + j, i + jnext, inext + jnext
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    return Mesh(points=pts, triangles=tris, topology="torus")


def check_mesh(mesh: Mesh) -> dict:
    """Validate closedness, orientation, connectedness and Euler
    characteristic.

    Returns summary statistics; raises TopologyError on any violation,
    naming the first triangle or edge met in triangle order (edges ab, bc,
    ca of each triangle).  Orientation is not checked when the mesh
    declares itself unoriented.
    """
    from scipy.sparse import coo_matrix, csgraph

    tri = np.asarray(mesh.triangles)
    nv = mesh.vertex_count
    if tri.ndim != 2 or tri.shape[1] != 3 or len(tri) == 0:
        raise TopologyError("triangles must be a nonempty (F, 3) index "
                            "array, got shape %s" % (tri.shape,))
    if tri.min() < 0 or tri.max() >= nv:
        raise TopologyError("triangle index out of range")
    degenerate = ((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2])
                  | (tri[:, 2] == tri[:, 0]))
    if degenerate.any():
        raise TopologyError("triangle %d is degenerate"
                            % np.flatnonzero(degenerate)[0])
    directed = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    undirected = np.sort(directed, axis=1)
    e = _edge_count(undirected, nv, 2, "edge (%d, %d) lies in %d triangles")
    if mesh.oriented:
        _edge_count(directed, nv, 1,
                    "edge (%d, %d) traversed %d times in one direction")
    graph = coo_matrix((np.ones(len(directed)), directed.T), shape=(nv, nv))
    parts = csgraph.connected_components(graph, directed=False,
                                         return_labels=False)
    if parts > 1:
        raise TopologyError("mesh has %d connected components; a report "
                            "needs a connected surface" % parts)
    v, f = nv, mesh.triangle_count
    euler = v - e + f
    want = _EULER.get(mesh.topology)
    if want is not None and euler != want:
        raise TopologyError("Euler characteristic %d, expected %d for %s"
                            % (euler, want, mesh.topology))
    return {"vertices": v, "edges": e, "triangles": f, "euler": euler,
            "oriented": mesh.oriented}


def _edge_count(edges, nv, want, message):
    """Number of distinct edges (u, v) among the rows of edges; raises
    TopologyError(message % (u, v, count)) for the first one in row order
    that occurs a number of times other than want."""
    _, first, counts = np.unique(edges[:, 0] * nv + edges[:, 1],
                                 return_index=True, return_counts=True)
    bad = counts != want
    if bad.any():
        k = np.argmin(np.where(bad, first, len(edges)))
        u, v = edges[first[k]]
        raise TopologyError(message % (u, v, counts[k]))
    return len(counts)


def save_off(path, points: np.ndarray, triangles: np.ndarray) -> None:
    """ASCII OFF; falls back to the nOFF dialect away from dimension 3."""
    points = np.asarray(points, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    dim = points.shape[1]
    lines = []
    if dim == 3:
        lines.append("OFF")
    else:
        lines.append("nOFF")
        lines.append(str(dim))
    lines.append("%d %d 0" % (points.shape[0], triangles.shape[0]))
    for p in points:
        lines.append(" ".join("%.17g" % x for x in p))
    for t in triangles:
        lines.append("3 %d %d %d" % tuple(t))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_off(path):
    """Read an ASCII OFF/nOFF file, return (points, triangles); a non-finite
    coordinate or a face index outside 0..nv-1 is an ArgumentError."""
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens:
        raise ArgumentError("empty OFF file %s" % path)
    pos = 0
    magic = tokens[pos]
    pos += 1
    if magic == "OFF":
        dim = 3
    elif magic == "nOFF":
        dim = int(tokens[pos])
        pos += 1
    else:
        raise ArgumentError("not an OFF file: leading token %r" % magic)
    if len(tokens) < pos + 3 or len(tokens) < pos + 3 + (
            int(tokens[pos]) * dim + 4 * int(tokens[pos + 1])):
        raise ArgumentError("truncated OFF file %s" % path)
    nv, nf = int(tokens[pos]), int(tokens[pos + 1])
    pos += 3
    points = np.array(tokens[pos:pos + nv * dim], dtype=float).reshape(nv, dim)
    if not np.all(np.isfinite(points)):
        raise ArgumentError("non-finite vertex coordinate in %s" % path)
    pos += nv * dim
    faces = np.array(tokens[pos:pos + 4 * nf], dtype=int).reshape(nf, 4)
    if np.any(faces[:, 0] != 3):
        raise ArgumentError("only triangle faces are supported")
    if np.any((faces[:, 1:] < 0) | (faces[:, 1:] >= nv)):
        raise ArgumentError("face index outside 0..%d in %s" % (nv - 1, path))
    return points, faces[:, 1:]
