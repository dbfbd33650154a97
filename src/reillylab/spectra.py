"""Eigenvalue extraction: one block shift-invert Lanczos run for every
discrete pencil, and the closed-form spectra of weighted products of
round spheres, of which a round sphere is the one-factor case.

scipy is imported by the functions that use it, so that importing the
package (and a command that solves no pencil) does not load it.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConvergenceError

_FLOOR_REL_TOL = 1e-8
_ND_LEAF = 64
_ND_LANDMARKS = 4
# a linear potential q = a z on the sphere takes 16 blocks at levels 2-5
# and every a from 20 to 1000; the test suite's other pencils take at most 14
_BLOCK_STEPS = 20
_RANK_TOL = 1e-10
# 1e-14 relative in theta: two digits inside the 1e-12 that the dense
# reference tests hold; machine epsilon would take a block or two more on
# a cluster split by the count (ring torus L4: 14 against 12) for digits
# below the rounding of T itself
_KATO_TEMPLE_EPS = 1e-14


@dataclass
class SpectrumResult:
    """Lowest eigenvalues of an operator, ascending, each repeated by its
    multiplicity.

    From `solve_pencil`, `solves` is the number of block applications of
    (K - sigma M)^-1 M and `residuals` each value's Lanczos residual (see
    `_block_lanczos`); a closed form has 0 and None.
    """

    values: np.ndarray
    backend: str
    solves: int = 0
    residuals: np.ndarray = field(default=None)

    def lambda2(self) -> float:
        """lambda_2, the second value counted with multiplicity.  Without a
        potential the lowest is 0, carried by the constants; a pencil of
        several components has one 0 per component, and lambda_2 = 0."""
        if len(self.values) < 2:
            raise ConvergenceError("need at least two eigenvalues")
        return float(self.values[1])


def solve_pencil(stiffness, mass, count: int = 4, floor: float = 0.0,
                 guess=None) -> SpectrumResult:
    """Lowest `count` eigenvalues of K f = lambda M f, ascending and
    counted with multiplicity.

    The default of 4 is what a report reads: lambda_2 is the second
    value, and 4 values hold lambda_1 and the whole triple lambda_2 of a
    round sphere.  Losing a member of a cluster past lambda_2 leaves
    lambda_2 as it is, and fewer values take a narrower block.  `count`
    is capped at n - 1, n the number of unknowns; a count below 1 or a
    pencil of fewer than 2 unknowns raises ArgumentError.

    Every pencil takes one block shift-invert Lanczos run (see
    `_block_lanczos`) from the deterministic start block cos(j i),
    j = 1..count, and the shift

        sigma = floor - |tr K / tr M - floor| / n.

    `floor` is a lower bound of the spectrum: 0 for a stiffness without a
    potential, which is positive semidefinite.  A caller whose stiffness
    carries a potential q must pass the minimum of q; the P1 potential
    form then satisfies Q >= min(q) M, so lambda_1 >= min(q) > sigma, and
    the largest eigenvalues theta = 1 / (lambda - sigma) of
    S = (K - sigma M)^-1 M belong to the lowest of the pencil.

    A floor above lambda_1 would put the shift among the eigenvalues, and
    the run would return values from above it.  Both the lowest returned
    value and the Rayleigh quotient of the constant vector,
    1^T K 1 / 1^T M 1, are upper bounds of lambda_1; if either lies below
    the floor by more than 1e-8 of the larger of tr K / tr M and |floor|,
    the floor is not a lower bound and ConvergenceError is raised.  A
    floor that passes this check can still lie above lambda_1.

    tr(K - floor M) / tr M grows like n, so sigma does not depend on the
    mesh size: about floor - 4 sqrt(3) / area for a near-equilateral
    mesh (-0.56 on the unit sphere), just below the wanted values.

    S is applied through one SuperLU factor of K - sigma M, made once per
    call.  Below the spectrum K - sigma M is positive definite, so SuperLU
    runs in symmetric mode: diagonal pivots only, no column ordering of
    its own (perm_r == perm_c).  The unknowns are put in a
    nested-dissection order of the pencil's sparsity graph first (see
    `_dissection_order`), which on a surface mesh leaves about a third
    less fill than SuperLU's default COLAMD ordering, so both the factor
    and every solve through it are cheaper.  A factor that fails, for
    instance because a floor above lambda_1 made K - sigma M singular,
    raises ConvergenceError.

    `guess`, an (n, k) array, holds k vectors expected near the wanted
    eigenvectors, such as the constants and the ambient coordinates, the
    test functions of a Reilly-type bound, which are lambda_2
    eigenfunctions in its equality case.  They are put in front of the
    cold start block, which stays whole: the run starts from the k + count
    vectors [guess; cos(j i), j = 1..count], at most n of them.  Its
    Krylov space then holds at every step the one the run without a
    guess builds, so each Ritz value lies at least as close to its
    eigenvalue, and no pencil of the test suite takes more block solves
    (3 where the cold run takes 9 on the unit sphere).  Each solve
    applies S to k more vectors, so a guess far from the wanted
    eigenvectors costs time (the ring torus takes 10 solves of 8 vectors
    where the cold run takes 12 of 4).  A guess that misses an
    eigenspace, or whose columns are dependent, hides nothing the cold
    columns reach.  Without a guess the run is the cold one, bit for
    bit.  A guess of another row count raises ArgumentError.

    What the run checks: each returned theta = 1 / (lambda - sigma) meets
    the Kato-Temple bound r^2 / gap <= 1e-14 theta, r its residual
    (`residuals`) and gap its distance to the next Ritz value outside its
    cluster.  What it does not certify: that no eigenvalue was missed.
    A block of width `count` resolves a cluster of up to `count` copies,
    but the gap is taken to a Ritz value, not to a proven bound of the
    rest of the spectrum, and no count, residual or guess proves that a
    whole eigenspace below lambda_2 was not missed.
    """
    n = stiffness.shape[0]
    if n < 2 or count < 1:
        raise ArgumentError("need a count of at least 1 and a pencil of at "
                            "least 2 unknowns, got count %d and %d unknowns"
                            % (count, n))
    count = min(count, n - 1)
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.ndim != 2 or guess.shape[0] != n:
            raise ArgumentError("a guess needs one row per unknown, got shape "
                                "%s for %d unknowns" % (guess.shape, n))
    scale = (stiffness.diagonal().sum()) / max(mass.diagonal().sum(), 1e-300)
    sigma = floor - abs(scale - floor) / n
    order, factor = _shift_factor(stiffness, mass, sigma)
    theta, residuals, solves = _block_lanczos(
        lambda block: _shift_solve(order, factor, block), mass, count, guess)
    vals = sigma + 1.0 / theta
    rank = np.argsort(vals)
    vals, residuals = vals[rank], residuals[rank]
    # the sums of K and M are 1^T K 1 and 1^T M 1
    top = min(float(vals[0]), float(stiffness.sum()) / max(float(mass.sum()), 1e-300))
    if top < floor - _FLOOR_REL_TOL * max(abs(scale), abs(floor)):
        raise ConvergenceError(
            "floor %.17g is not a lower bound of the spectrum: lambda_1 <= "
            "%.17g" % (floor, top))
    return SpectrumResult(values=vals, backend="fem-block", solves=solves,
                          residuals=residuals)


def _block_lanczos(solve, mass, count: int, guess=None):
    """(theta, residuals, solves): the `count` largest eigenvalues theta of
    S = (K - sigma M)^-1 M in descending order, their Lanczos residuals
    and the number of block applications of S, from a block Lanczos run
    (Grimes, Lewis and Simon, SIAM J. Matrix Anal. Appl. 15, 1994).
    `solve` applies (K - sigma M)^-1 to an (n, b) block.

    The start block is the k columns of `guess` (none by default) as
    rows, then cos(j i), j = 1..count, and the run's width is k + count,
    capped at n.  Since K_m(S, [G; C]) contains K_m(S, C), the guess
    only adds to the space the cold block spans; the stop still tests
    the lowest `count` values alone.

    S is self-adjoint in the M inner product.  The Lanczos vectors are
    kept M-orthonormal, one (b, n) array of rows per block.  Each step
    applies S to the last block V_j, takes the result W out of every
    earlier vector by two classical Gram-Schmidt passes (full
    reorthogonalization), and orthonormalizes what is left row by row
    into V_(j+1) = W B^-1.  T = V^T M S V is built one block column per
    step: its diagonal block (M V_j)^T W, its subdiagonal block B.  The
    residual of a Ritz pair (theta, y) of T is r = |B y_last|_2 =
    |W y_last|_M, y_last the rows of y on the last block, which the Gram
    matrix W^T M W gives before the new block is made.

    The run stops when every wanted theta_i meets the Kato-Temple bound
    r_i^2 <= eps |theta_i| (theta_i - theta_g), eps = `_KATO_TEMPLE_EPS`
    and theta_g the largest Ritz value past the wanted ones whose
    residual interval [theta - r, theta + r] does not meet theta_i's, so
    that a cluster split by `count` is measured to the next value
    outside it.  theta_i is then within eps of an eigenvalue, relatively,
    if theta_g is at or below the next eigenvalue of S; residuals at
    rounding level would take several more steps for no digits.  The
    stop is tested only once the basis holds more than the start block:
    guess columns that span an invariant space, such as eigenvectors of
    a cluster above lambda_2, give Ritz pairs with zero residual on the
    first block, before S has drawn anything out of the cold columns
    (on icosphere(3) the run would return the cluster at 6 for lambda_2).

    A row that keeps no more than `_RANK_TOL` of its M-norm through the
    projections means that the Krylov space is invariant, as a cluster
    of more copies than the block is wide makes it on a symmetric mesh.
    Its remainder is dropped, and the block is completed with fresh
    deterministic vectors cos(j i), j = count + 1, count + 2, and so on;
    so is a start block whose guess columns are dependent.  Once the
    basis holds all n vectors, T is exact.  Past `_BLOCK_STEPS` blocks
    ConvergenceError is raised.
    """
    n = mass.shape[0]
    block = _cosines(itertools.count(1), count, n)
    if guess is not None:
        block = np.concatenate([guess.T, block])
    width = min(n, len(block))
    rows = min(n, _BLOCK_STEPS * width)
    tri = np.zeros((rows, rows))  # the lower triangle of T
    freqs = itertools.count(count + 1)
    blocks = [_orthonormalize([], block, *_project([], block, mass), width,
                              mass, freqs)[0]]
    end = width
    for solves in range(1, _BLOCK_STEPS + 1):
        start = end - len(blocks[-1])
        rhs = mass @ blocks[-1].T
        block = np.ascontiguousarray(solve(rhs).T)
        tri[start:end, start:end] = rhs.T @ block.T
        norms, products = _project(blocks, block, mass)
        theta, vecs = np.linalg.eigh(tri[:end, :end], UPLO="L")
        theta, last = theta[::-1], vecs[start:end, ::-1]
        resid = np.sqrt(np.maximum(np.einsum(
            "ij,ik,kj->j", last, block @ products.T, last), 0.0))
        if end == n or (end > width and _kato_temple(theta, resid, count)):
            return theta[:count], resid[:count], solves
        new, tri[end:end + width, start:end] = _orthonormalize(
            blocks, block, norms, products, min(width, rows - end), mass,
            freqs)
        blocks.append(new)
        end += len(new)
    raise ConvergenceError("block Lanczos found no %d converged values in "
                           "%d block solves" % (count, _BLOCK_STEPS))


def _cosines(freqs, count: int, n: int) -> np.ndarray:
    """(count, n) rows cos(j i), i = 0..n-1, for the next `count` j of
    `freqs`: any n of them with distinct cos j are independent."""
    return np.cos(np.outer([next(freqs) for _ in range(count)],
                           np.arange(n, dtype=float)))


def _project(blocks, block, mass):
    """Take the rows of `block` out of the rows of every array in
    `blocks`, in place, by two classical Gram-Schmidt passes in the M
    inner product.

    Returns the rows' M-norms before, and M times the rows after the
    first pass, as rows.  Those products differ from M times the rows
    returned by M times a combination of `blocks`, to which the rows and
    every vector made from them are M-orthogonal, so they give those
    inner products exactly, and no further M product is needed.
    """
    product = mass @ block.T
    norms = np.sqrt(np.maximum(np.einsum("ij,ji->i", block, product), 0.0))
    for sweep in range(2):
        if sweep:
            product = mass @ block.T
        for basis in blocks:
            block -= (basis @ product).T @ basis
    return norms, np.ascontiguousarray(product.T)


def _orthonormalize(blocks, block, norms, products, room: int, mass, freqs):
    """(new, B): a (room, n) array of M-orthonormal rows spanning the rows
    of `block`, which are already out of `blocks`, made by two classical
    Gram-Schmidt passes per row, and the (room, b) coefficients B of the
    block on them.  `norms` and `products` are `_project`'s for the
    block; both arrays are overwritten.

    A row that keeps no more than `_RANK_TOL` of its M-norm is dropped;
    fresh vectors from `freqs`, taken out of `blocks` and the rows
    before them, fill the rows left, with zero coefficients.
    """
    new = np.empty((room, block.shape[1]))
    coupling = np.zeros((room, len(block)))
    top = 0
    for col, (row, product) in enumerate(zip(block, products)):
        for _ in range(2):
            step = new[:top] @ product
            row -= step @ new[:top]
            product -= step @ products[:top]
            coupling[:top, col] += step
        kept = math.sqrt(max(row @ product, 0.0))
        if top < room and kept > _RANK_TOL * norms[col]:
            new[top] = row / kept
            products[top] = product / kept
            coupling[top, col] = kept
            top += 1
    while top < room:
        row = _cosines(freqs, 1, block.shape[1])
        norm, product = _project([*blocks, new[:top]], row, mass)
        kept = math.sqrt(max(float(row[0] @ product[0]), 0.0))
        if kept > _RANK_TOL * norm[0]:
            new[top] = row[0] / kept
            top += 1
    return new, coupling


def _kato_temple(theta, resid, count: int) -> bool:
    """Whether the first `count` of the descending Ritz values `theta`
    meet r_i^2 <= eps |theta_i| (theta_i - theta_g), theta_g the largest
    later value whose residual interval is apart from theta_i's."""
    wanted, rest = theta[:count], theta[count:]
    apart = (rest + resid[count:])[None, :] < (wanted - resid[:count])[:, None]
    if not apart.any(axis=1).all():
        return False
    nearest = np.where(apart, rest[None, :], -np.inf).max(axis=1)
    return bool(np.all(resid[:count] ** 2 <= _KATO_TEMPLE_EPS
                       * np.abs(wanted) * (wanted - nearest)))


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
        sub = graph if count == 1 else graph[verts][:, verts]
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
    # the lower middle value splits the integer hop counts as the median
    # does: for an even count, (a + b) / 2 with a < b lies in [a, b)
    mid = (len(key) - 1) // 2
    cut = np.partition(key, mid)[mid]
    lower = key <= cut
    if lower.all():
        lower = key < cut
    low, high = verts[lower], verts[~lower]
    # a hop count grows by at most 1 along an edge, and the upper keys
    # exceed the highest lower one, so only lower vertices within 1 of it
    # can touch the upper half; their neighbours, row by row
    low_key = key[lower]
    near = np.flatnonzero(low_key >= low_key.max() - 1)
    edge = low[near]
    starts, sizes = indptr[edge], indptr[edge + 1] - indptr[edge]
    row = np.repeat(np.arange(len(edge)), sizes)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    upper[high] = True
    touches = np.zeros(len(low), dtype=bool)
    touches[near[row[upper[indices[starts[row] + slot]]]]] = True
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
    """Lowest `count` eigenvalues of sum_f t_f Laplace_f on a product of
    round spheres, each repeated by its multiplicity.

    factors: sequence of (n_f, a_f); weights: positive t_f, default 1.
    Levels per factor are enumerated far enough that the returned values
    are provably the lowest `count`; a count below 1 raises ArgumentError.
    One factor is the weighted round sphere t Laplace on S^n(a), labelled
    "sphere-exact"; more are labelled "product-exact".
    """
    factors = [(int(n), float(a)) for n, a in factors]
    if weights is None:
        weights = [1.0] * len(factors)
    weights = [float(t) for t in weights]
    if count < 1:
        raise ArgumentError("need a count of at least 1, got %d" % count)
    if len(weights) != len(factors):
        raise ArgumentError("one weight per factor required")
    if any(t <= 0 for t in weights) or any(n < 1 or a <= 0 for n, a in factors):
        raise ArgumentError("weights and factor radii must be positive")

    # levels k = 0..count of each factor: count + 1 values at least
    tables = []
    for (n, a), t in zip(factors, weights):
        tables.append([(t * sphere_eigenvalue(n, a, k), sphere_multiplicity(n, k))
                       for k in range(count + 1)])

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
    levels = sorted(combined)
    values = np.repeat(levels, [combined[v] for v in levels])[:count]
    # enumeration depth guarantee: anything missed exceeds every kept value
    if values[-1] > min(tab[-1][0] for tab in tables):
        raise ConvergenceError("product spectrum enumeration too shallow")
    backend = "sphere-exact" if len(factors) == 1 else "product-exact"
    return SpectrumResult(values=values, backend=backend)
