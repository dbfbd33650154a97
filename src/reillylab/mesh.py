"""Triangle meshes over parameter domains, with OFF serialization.

Vertices live in parameter-domain coordinates (unit vectors per sphere
factor), so frames can be evaluated at any vertex or centroid through the
owning immersion.  Ambient positions are derived, never stored.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, TopologyError

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
    name: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return self.points.shape[0]

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]


def icosphere(level: int = 3) -> Mesh:
    """Subdivided icosahedron on the unit sphere, 10*4^level + 2 vertices."""
    if level < 0:
        raise ArgumentError("subdivision level must be nonnegative")
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(level):
        midpoint = {}

        def split(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        refined = []
        for a, b, c in faces:
            ab, bc, ca = split(a, b), split(b, c), split(c, a)
            refined += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = refined
    return Mesh(points=np.array(verts), triangles=np.array(faces, dtype=int),
                topology="sphere", name="icosphere-%d" % level,
                metadata={"level": level})


def projective_icosphere(level: int = 3) -> Mesh:
    """Antipodal quotient of the icosphere: a triangulation of RP^2.

    The icosahedral vertex set is centrally symmetric and subdivision
    preserves that, so every vertex has an antipode in the mesh.
    """
    base = icosphere(level)
    keys = {}
    for idx, v in enumerate(base.points):
        keys[tuple(np.round(v, 12))] = idx
    rep = np.empty(base.vertex_count, dtype=int)
    kept = []
    order = {}
    for idx, v in enumerate(base.points):
        anti = keys.get(tuple(np.round(-v, 12)))
        if anti is None:
            raise TopologyError("vertex %d has no antipode; cannot quotient" % idx)
        pair = min(idx, anti)
        if pair not in order:
            order[pair] = len(kept)
            kept.append(pair)
        rep[idx] = order[pair]
    tris = rep[base.triangles]
    seen = {}
    for t in tris:
        seen.setdefault(tuple(sorted(t)), tuple(t))
    quotient = np.array(sorted(seen.values()), dtype=int)
    if len(quotient) != base.triangle_count // 2:
        raise TopologyError("antipodal face pairing failed")
    return Mesh(points=base.points[kept], triangles=quotient,
                topology="projective_plane", oriented=False,
                name="projective-icosphere-%d" % level,
                metadata={"level": level})


def torus_grid(n1: int, n2: int = 0) -> Mesh:
    """Periodic n1 x n2 grid on the angle torus, as points on S^1 x S^1."""
    n2 = n2 or n1
    if n1 < 3 or n2 < 3:
        raise ArgumentError("torus grid needs at least 3 nodes per circle")
    t1 = 2.0 * np.pi * np.arange(n1) / n1
    t2 = 2.0 * np.pi * np.arange(n2) / n2
    pts = np.empty((n1 * n2, 4))
    for i in range(n1):
        for j in range(n2):
            pts[i * n2 + j] = (math.cos(t1[i]), math.sin(t1[i]),
                               math.cos(t2[j]), math.sin(t2[j]))
    tris = []
    for i in range(n1):
        for j in range(n2):
            v00 = i * n2 + j
            v10 = ((i + 1) % n1) * n2 + j
            v01 = i * n2 + (j + 1) % n2
            v11 = ((i + 1) % n1) * n2 + (j + 1) % n2
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return Mesh(points=pts, triangles=np.array(tris, dtype=int),
                topology="torus", name="torus-%dx%d" % (n1, n2),
                metadata={"n1": n1, "n2": n2})


def check_mesh(mesh: Mesh) -> dict:
    """Validate closedness, orientation, and Euler characteristic.

    Returns summary statistics; raises TopologyError on any violation.
    Orientation is not checked when the mesh declares itself unoriented.
    """
    tri = mesh.triangles
    if tri.min() < 0 or tri.max() >= mesh.vertex_count:
        raise TopologyError("triangle index out of range")
    directed = {}
    for f, (a, b, c) in enumerate(tri):
        if len({a, b, c}) != 3:
            raise TopologyError("triangle %d is degenerate" % f)
        for u, v in ((a, b), (b, c), (c, a)):
            directed.setdefault((u, v), 0)
            directed[u, v] += 1
    undirected = {}
    for (u, v), cnt in directed.items():
        key = (u, v) if u < v else (v, u)
        undirected[key] = undirected.get(key, 0) + cnt
    for key, cnt in undirected.items():
        if cnt != 2:
            raise TopologyError("edge %s lies in %d triangles" % (key, cnt))
    if mesh.oriented:
        for (u, v), cnt in directed.items():
            if cnt != 1:
                raise TopologyError(
                    "edge (%d, %d) traversed %d times in one direction" % (u, v, cnt))
    v, e, f = mesh.vertex_count, len(undirected), mesh.triangle_count
    euler = v - e + f
    want = _EULER.get(mesh.topology)
    if want is not None and euler != want:
        raise TopologyError("Euler characteristic %d, expected %d for %s"
                            % (euler, want, mesh.topology))
    return {"vertices": v, "edges": e, "triangles": f, "euler": euler,
            "oriented": mesh.oriented}


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
    """Read an ASCII OFF/nOFF file, return (points, triangles)."""
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
    pos += nv * dim
    tris = []
    for _ in range(nf):
        cnt = int(tokens[pos])
        if cnt != 3:
            raise ArgumentError("only triangle faces are supported")
        tris.append([int(t) for t in tokens[pos + 1:pos + 4]])
        pos += 4
    return points, np.array(tris, dtype=int)
