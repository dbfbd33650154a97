"""The nested-dissection order in its first formulation: the median
from `np.median`, every lower vertex scanned for a neighbour in the upper
half, and each connected component copied out of the graph.  The
reference that `reillylab.spectra._dissection_order` must match bit for
bit."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from reillylab.spectra import _ND_LEAF, _landmark_hops


def dissection_order(matrix) -> np.ndarray:
    """Nested-dissection permutation of a symmetric sparse matrix's graph,
    each connected component ordered on its own."""
    pattern = sp.csr_matrix(matrix)
    graph = sp.csr_matrix((np.ones(pattern.nnz), pattern.indices,
                           pattern.indptr), shape=pattern.shape)
    count, labels = csgraph.connected_components(graph, directed=False)
    parts = []
    for comp in range(count):
        verts = np.flatnonzero(labels == comp)
        if len(verts) <= _ND_LEAF:
            parts.append(verts)
            continue
        sub = graph[verts][:, verts]
        upper = np.zeros(len(verts), dtype=bool)
        parts.append(verts[dissect(sub.indptr, sub.indices,
                                   _landmark_hops(sub), upper,
                                   np.arange(len(verts)))])
    return np.concatenate(parts)


def dissect(indptr, indices, hops, upper, verts) -> np.ndarray:
    """`verts` in nested-dissection order: lower half, upper half, then the
    lower half's vertices that touch the upper half."""
    if len(verts) <= _ND_LEAF:
        return verts
    coords = hops[verts]
    width = coords.max(axis=0) - coords.min(axis=0)
    if width.max() == 0:
        return verts
    key = coords[:, int(np.argmax(width))]
    cut = np.median(key)
    lower = key <= cut
    if lower.all():
        lower = key < cut
    low, high = verts[lower], verts[~lower]
    # the neighbours of every lower vertex, row by row
    starts, sizes = indptr[low], indptr[low + 1] - indptr[low]
    row = np.repeat(np.arange(len(low)), sizes)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    upper[high] = True
    touches = np.zeros(len(low), dtype=bool)
    touches[row[upper[indices[starts[row] + slot]]]] = True
    upper[high] = False
    return np.concatenate([dissect(indptr, indices, hops, upper, low[~touches]),
                           dissect(indptr, indices, hops, upper, high),
                           low[touches]])
