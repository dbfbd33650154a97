"""Eigenvalue extraction: one shift-invert Lanczos solve for every
discrete pencil, and the closed-form spectra of weighted products of
round spheres, of which a round sphere is the one-factor case.

scipy is imported by the functions that use it, so that importing the
package (and a command that solves no pencil) does not load it.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConvergenceError

_ZERO_REL_TOL = 1e-8
_MULT_REL_TOL = 1e-3
_ND_LEAF = 64
_ND_LANDMARKS = 4


@dataclass
class SpectrumResult:
    """Lowest eigenvalues of an operator, sorted ascending."""

    values: np.ndarray
    backend: str
    tol_zero: float = 0.0
    multiplicities: np.ndarray = field(default=None)

    def lambda2(self, has_potential: bool = False) -> float:
        """First nonzero eigenvalue, or the second one under a potential."""
        vals = self.expanded()
        if has_potential:
            if len(vals) < 2:
                raise ConvergenceError("need at least two eigenvalues")
            return float(vals[1])
        above = vals[vals > self.tol_zero]
        if len(above) == 0:
            raise ConvergenceError("no eigenvalue above the zero threshold")
        return float(above[0])

    def expanded(self) -> np.ndarray:
        """Eigenvalues with multiplicity written out."""
        if self.multiplicities is None:
            return np.asarray(self.values)
        return np.repeat(self.values, self.multiplicities)

    def multiplicity_of(self, value: float) -> int:
        vals = self.expanded()
        ref = max(abs(value), 1e-30)
        return int(np.sum(np.abs(vals - value) <= _MULT_REL_TOL * ref))


def solve_pencil(stiffness, mass, count: int = 4,
                 floor: float = 0.0) -> SpectrumResult:
    """Lowest `count` eigenvalues of K f = lambda M f.

    The default of 4 is what a report reads: lambda_2 is the first value
    above zero, or the second under a potential, and 4 values hold
    lambda_1 and the whole triple lambda_2 of a round sphere.  Losing a
    member of a cluster past lambda_2 leaves lambda_2 as it is, and a
    shift-invert Lanczos run wants fewer solves for fewer values (on the
    unit sphere at 40962 vertices, 50 against 94 for 12 values).  No count
    certifies that a whole eigenspace below lambda_2 was not missed.
    `count` is capped at n - 1, n the number of unknowns, because the
    Lanczos solver returns fewer values than unknowns; a count below 1
    or a pencil of fewer than 2 unknowns raises ArgumentError.

    Every pencil takes shift-inverted Lanczos with a fixed deterministic
    start vector and the shift

        sigma = floor - |tr K / tr M - floor| / n.

    `floor` is a lower bound of the spectrum: 0 for a stiffness without a
    potential, which is positive semidefinite.  A caller whose stiffness
    carries a potential q must pass the minimum of q; the P1 potential
    form then satisfies Q >= min(q) M, so lambda_1 >= min(q) > sigma, and
    the largest eigenvalues of (K - sigma M)^-1 M belong to the lowest of
    the pencil.

    A floor above lambda_1 would put the shift among the eigenvalues, and
    shift-invert would return values from above it.  Both the lowest
    returned value and the Rayleigh quotient of the constant vector,
    1^T K 1 / 1^T M 1, are upper bounds of lambda_1; if either lies below
    the floor by more than the zero tolerance (taken at the larger of the
    spectrum's scale and |floor|), the floor is not a lower bound and
    ConvergenceError is raised.  A floor that passes this check can still
    lie above lambda_1.

    tr(K - floor M) / tr M grows like n, so sigma does not depend on the
    mesh size: about floor - 4 sqrt(3) / area for a near-equilateral
    mesh (-0.56 on the unit sphere), just below the wanted values.  A
    shift on the scale of the mesh (-1e-2 tr K / tr M, -228 on the unit
    sphere at 40962 vertices) needs about three times the solves.

    Lanczos applies (K - sigma M)^-1 through one SuperLU factor, made
    once per call.  Below the spectrum K - sigma M is positive definite,
    so SuperLU runs in symmetric mode: diagonal pivots only, no column
    ordering of its own (perm_r == perm_c).  The unknowns are put in a
    nested-dissection order of the pencil's sparsity graph first (see
    `_dissection_order`), which on a surface mesh leaves about a third
    less fill than SuperLU's default COLAMD ordering, so both the factor
    and every solve through it are cheaper.  A factor that fails, for
    instance because a floor above lambda_1 made K - sigma M singular,
    raises ConvergenceError.
    """
    import scipy.sparse.linalg

    n = stiffness.shape[0]
    if n < 2 or count < 1:
        raise ArgumentError("need a count of at least 1 and a pencil of at "
                            "least 2 unknowns, got count %d and %d unknowns"
                            % (count, n))
    count = min(count, n - 1)
    scale = (stiffness.diagonal().sum()) / max(mass.diagonal().sum(), 1e-300)
    v0 = np.cos(np.arange(n, dtype=float))  # deterministic, not in any kernel
    sigma = floor - abs(scale - floor) / n
    opinv = scipy.sparse.linalg.LinearOperator(
        (n, n), dtype=float, matvec=functools.partial(
            _shift_solve, *_shift_factor(stiffness, mass, sigma)))
    try:
        vals = scipy.sparse.linalg.eigsh(
            stiffness, k=count, M=mass, sigma=sigma, which="LM",
            v0=v0, maxiter=5000, OPinv=opinv, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError("eigensolver stalled: %s" % exc) from exc
    vals = np.sort(vals)
    # the sums of K and M are 1^T K 1 and 1^T M 1
    top = min(float(vals[0]), float(stiffness.sum()) / max(float(mass.sum()), 1e-300))
    if top < floor - _ZERO_REL_TOL * max(abs(scale), abs(floor)):
        raise ConvergenceError(
            "floor %.17g is not a lower bound of the spectrum: lambda_1 <= "
            "%.17g" % (floor, top))
    return SpectrumResult(values=vals, backend="fem-arpack",
                          tol_zero=_ZERO_REL_TOL * abs(scale))


def _shift_factor(stiffness, mass, sigma: float):
    """(order, factor): SuperLU's symmetric-mode factor of K - sigma M with
    rows and columns taken in `order`, the pencil's nested-dissection
    order; `_shift_solve` applies (K - sigma M)^-1 through them."""
    import scipy.sparse as sp
    import scipy.sparse.linalg

    pencil = sp.csr_matrix(stiffness - sigma * mass)
    order = _dissection_order(pencil)
    try:
        factor = scipy.sparse.linalg.splu(
            pencil[order][:, order].tocsc(), permc_spec="NATURAL",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ConvergenceError(
            "shift-invert factor of K - sigma M failed at sigma = %.17g: %s"
            % (sigma, exc)) from exc
    return order, factor


def _shift_solve(order, factor, rhs) -> np.ndarray:
    """(K - sigma M)^-1 rhs through `_shift_factor`'s (order, factor)."""
    out = np.empty_like(rhs)
    out[order] = factor.solve(rhs[order])
    return out


def _dissection_order(matrix) -> np.ndarray:
    """Nested-dissection ordering of a symmetric sparse matrix's graph
    (George, SIAM J. Numer. Anal. 10, 1973), as a permutation array.

    Each connected component is ordered on its own, one after another.
    A component's vertices get as coordinates their hop distances from
    a few landmarks, each the vertex farthest from those already chosen.
    A vertex set is split at the median of its widest coordinate; the
    vertices of the lower half that touch the upper half form the
    separator, which is ordered after both halves are ordered the same
    way.  Sets of at most `_ND_LEAF` vertices keep their index order.
    """
    import scipy.sparse as sp
    from scipy.sparse import csgraph

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
        parts.append(verts[_dissect(sub.indptr, sub.indices,
                                    _landmark_hops(sub), upper,
                                    np.arange(len(verts)))])
    return np.concatenate(parts)


def _landmark_hops(graph) -> np.ndarray:
    """(V, _ND_LANDMARKS) hop distances of a connected graph's vertices
    from farthest-point landmarks, the first farthest from vertex 0."""
    from scipy.sparse import csgraph

    far = int(np.argmax(csgraph.shortest_path(graph, unweighted=True,
                                              indices=0)))
    hops, nearest = [], np.inf
    for _ in range(_ND_LANDMARKS):
        hops.append(csgraph.shortest_path(graph, unweighted=True, indices=far))
        nearest = np.minimum(nearest, hops[-1])
        far = int(np.argmax(nearest))
    return np.stack(hops, axis=1)


def _dissect(indptr, indices, hops, upper, verts) -> np.ndarray:
    """`verts` in nested-dissection order: lower half, upper half, then the
    lower half's vertices that touch the upper half.  `upper` is an
    all-False scratch mask over the graph's vertices, and is left so."""
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
    return np.concatenate([_dissect(indptr, indices, hops, upper, low[~touches]),
                           _dissect(indptr, indices, hops, upper, high),
                           low[touches]])


def sphere_eigenvalue(n: int, a: float, k: int) -> float:
    return k * (k + n - 1) / a**2


def sphere_multiplicity(n: int, k: int) -> int:
    if k == 0:
        return 1
    return math.comb(n + k, n) - math.comb(n + k - 2, n)


def product_spectrum(factors, weights=None, count: int = 12) -> SpectrumResult:
    """Spectrum of sum_f t_f Laplace_f on a product of round spheres.

    factors: sequence of (n_f, a_f); weights: positive t_f, default 1.
    Levels per factor are enumerated far enough that the returned values
    are provably the lowest `count`.  One factor is the weighted round
    sphere t Laplace on S^n(a), labelled "sphere-exact"; more are
    labelled "product-exact".
    """
    factors = [(int(n), float(a)) for n, a in factors]
    if weights is None:
        weights = [1.0] * len(factors)
    weights = [float(t) for t in weights]
    if len(weights) != len(factors):
        raise ArgumentError("one weight per factor required")
    if any(t <= 0 for t in weights) or any(n < 1 or a <= 0 for n, a in factors):
        raise ArgumentError("weights and factor radii must be positive")

    depth = count + 1
    tables = []
    for (n, a), t in zip(factors, weights):
        tables.append([(t * sphere_eigenvalue(n, a, k), sphere_multiplicity(n, k))
                       for k in range(depth)])

    def recurse(idx):
        if idx == len(tables):
            return {0.0: 1}
        rest = recurse(idx + 1)
        out = {}
        for val, mult in tables[idx]:
            for rv, rm in rest.items():
                key = val + rv
                out[key] = out.get(key, 0) + mult * rm
        return out

    combined = recurse(0)
    values = np.array(sorted(combined))
    mults = np.array([combined[v] for v in values], dtype=int)
    keep = int(np.searchsorted(np.cumsum(mults), count) + 1)
    keep = min(keep, len(values))
    # enumeration depth guarantee: anything missed exceeds every kept value
    floor_missed = min(tab[depth - 1][0] for tab in tables)
    if values[keep - 1] > floor_missed:
        raise ConvergenceError("product spectrum enumeration too shallow")
    scale = min(t / a**2 for (n, a), t in zip(factors, weights))
    backend = "sphere-exact" if len(factors) == 1 else "product-exact"
    return SpectrumResult(values=values[:keep], backend=backend,
                          multiplicities=mults[:keep], tol_zero=1e-12 * scale)
