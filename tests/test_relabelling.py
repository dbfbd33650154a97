"""Property: the P1 pencil does not depend on how the mesh is labelled."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reillylab.fem import DiscreteGeometry, assemble_forms
from reillylab.gallery import hyperbolic_geodesic_sphere, ring_torus, veronese_rp2
from reillylab.mesh import Mesh
from reillylab.reports import mesh_for
from reillylab.spectra import solve_pencil


def ambient_weight(fr):
    """I + E A E^T for a fixed SPD ambient A: a frame-covariant field."""
    coords = fr.tangent.shape[-1]
    a = np.diag(np.arange(1.0, coords + 1)) + 0.2 * np.ones((coords, coords))
    return np.eye(2) + fr.tangent @ a @ np.swapaxes(fr.tangent, -1, -2)


CASES = {
    "veronese_rp2": (veronese_rp2(), ambient_weight),
    "hyperbolic_geodesic_sphere": (hyperbolic_geodesic_sphere(1.0), None),
    "ring_torus": (ring_torus(), ambient_weight),
}


def pencil(imm, mesh, field):
    geom = DiscreteGeometry(imm, mesh)
    K, M = assemble_forms(geom, tensor_field=field)
    return geom, K.toarray(), M.toarray()


def relabelled(mesh, rng):
    """Permuted vertices, rolled corners and shuffled triangles; perm[j] is
    the old index of new vertex j.  On the projective quotient each vertex
    also swaps to its antipodal representative at random."""
    perm = rng.permutation(mesh.vertex_count)
    points = mesh.points[perm]
    if mesh.topology == "projective_plane":
        points *= rng.choice([-1.0, 1.0], size=(len(points), 1))
    inverse = np.argsort(perm)
    tris = inverse[mesh.triangles]
    shift = rng.integers(0, 3, size=len(tris))
    tris = np.array([np.roll(t, s) for t, s in zip(tris, shift)])
    tris = tris[rng.permutation(len(tris))]
    return perm, Mesh(points=points, triangles=tris,
                      topology=mesh.topology, oriented=mesh.oriented)


def lambda2(K, M):
    return solve_pencil(K, M, count=6).lambda2()


@pytest.mark.parametrize("name", sorted(CASES))
@given(seed=st.integers(0, 2**32 - 1))
def test_vertex_relabelling(name, seed):
    imm, field = CASES[name]
    mesh = mesh_for(imm, 2)
    perm, other = relabelled(mesh, np.random.default_rng(seed))
    geom, K, M = pencil(imm, mesh, field)
    geom2, K2, M2 = pencil(imm, other, field)
    for a, b in ((K[np.ix_(perm, perm)], K2), (M[np.ix_(perm, perm)], M2),
                 (np.sort(geom.areas), np.sort(geom2.areas))):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    lam, lam2 = lambda2(K, M), lambda2(K2, M2)
    assert abs(lam - lam2) <= 1e-10 * abs(lam)
