"""The nested-dissection order against its first formulation
(`dissect_oracle`): the same permutation, bit for bit, on the mesh
families at every level the reports use, on a pencil of several
components and on random symmetric patterns."""

import numpy as np
import pytest
import scipy.sparse as sp

import dissect_oracle
from reillylab.mesh import icosphere, projective_icosphere, torus_grid
from reillylab.spectra import _dissection_order


def mesh_pattern(mesh):
    """The sparsity pattern of a P1 pencil on `mesh`: the diagonal and
    every pair of vertices that share a triangle."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    size = mesh.vertex_count
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size))


def random_pattern(seed):
    """A random symmetric pattern with its diagonal, often of several
    components."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(65, 3000))
    density = float(rng.uniform(0.5, 8.0)) / size
    half = sp.random(size, size, density=density, random_state=rng)
    return (half + half.T + sp.identity(size)).tocsr()


MESHES = ([("icosphere", level) for level in range(1, 7)]
          + [("torus", level) for level in range(1, 7)]
          + [("projective", level) for level in range(1, 6)])


@pytest.mark.parametrize("family,level", MESHES,
                         ids=["%s-L%d" % case for case in MESHES])
def test_mesh_order_matches_the_oracle(family, level):
    mesh = {"icosphere": lambda: icosphere(level),
            "torus": lambda: torus_grid(3 * 2 ** level),
            "projective": lambda: projective_icosphere(level)}[family]()
    pattern = mesh_pattern(mesh)
    assert np.array_equal(_dissection_order(pattern),
                          dissect_oracle.dissection_order(pattern))


def test_disconnected_pencil_order_matches_the_oracle():
    sphere, torus = mesh_pattern(icosphere(3)), mesh_pattern(torus_grid(24))
    pattern = sp.block_diag([sphere, sp.identity(3), torus, sphere]).tocsr()
    assert np.array_equal(_dissection_order(pattern),
                          dissect_oracle.dissection_order(pattern))


@pytest.mark.parametrize("seed", range(20))
def test_random_pattern_order_matches_the_oracle(seed):
    pattern = random_pattern(seed)
    assert np.array_equal(_dissection_order(pattern),
                          dissect_oracle.dissection_order(pattern))
