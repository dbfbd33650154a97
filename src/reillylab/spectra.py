"""Eigenvalue extraction for the discrete pencil and closed-form spectra."""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import ArgumentError, ConvergenceError

_DENSE_LIMIT = 2000
_ZERO_REL_TOL = 1e-8
_MULT_REL_TOL = 1e-3


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


def solve_pencil(stiffness, mass, count: int = 12,
                 floor: float = 0.0) -> SpectrumResult:
    """Lowest `count` eigenvalues of K f = lambda M f.

    Dense below 2000 unknowns, otherwise shift-inverted Lanczos with a
    fixed deterministic start vector and the shift

        sigma = floor - |tr K / tr M - floor| / n,

    n the number of unknowns.  `floor` is a lower bound of the spectrum:
    0 for a stiffness without a potential, which is positive
    semidefinite.  A caller whose stiffness carries a potential q must
    pass the minimum of q; the P1 potential form then satisfies
    Q >= min(q) M, so lambda_1 >= min(q) > sigma, and the largest
    eigenvalues of (K - sigma M)^-1 M belong to the lowest of the pencil.
    A floor above lambda_1 may return the wrong eigenvalues.  The dense
    branch does not use the floor.

    tr(K - floor M) / tr M grows like n, so sigma does not depend on the
    mesh size: about floor - 4 sqrt(3) / area for a near-equilateral
    mesh (-0.56 on the unit sphere), just below the wanted values.  A
    shift on the scale of the mesh (-1e-2 tr K / tr M, -228 on the unit
    sphere at 40962 vertices) needs about three times the solves.
    """
    n = stiffness.shape[0]
    count = min(count, n)
    scale = (stiffness.diagonal().sum()) / max(mass.diagonal().sum(), 1e-300)
    if n <= _DENSE_LIMIT:
        kd = stiffness.toarray() if sp.issparse(stiffness) else np.asarray(stiffness)
        md = mass.toarray() if sp.issparse(mass) else np.asarray(mass)
        vals = scipy.linalg.eigh(kd, md, eigvals_only=True,
                                 subset_by_index=(0, count - 1))
        backend = "fem-dense"
    else:
        v0 = np.cos(np.arange(n, dtype=float))  # deterministic, not in any kernel
        sigma = floor - abs(scale - floor) / n
        try:
            vals = scipy.sparse.linalg.eigsh(
                stiffness, k=count, M=mass, sigma=sigma, which="LM",
                v0=v0, maxiter=5000, return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceError("eigensolver stalled: %s" % exc) from exc
        vals = np.sort(vals)
        backend = "fem-arpack"
    return SpectrumResult(values=np.asarray(vals), backend=backend,
                          tol_zero=_ZERO_REL_TOL * abs(scale))


def sphere_eigenvalue(n: int, a: float, k: int) -> float:
    return k * (k + n - 1) / a**2


def sphere_multiplicity(n: int, k: int) -> int:
    if k == 0:
        return 1
    return math.comb(n + k, n) - math.comb(n + k - 2, n)


def sphere_spectrum(n: int, a: float, count: int = 12) -> SpectrumResult:
    """Exact Laplace spectrum of the round sphere S^n(a)."""
    if n < 1 or a <= 0:
        raise ArgumentError("need n >= 1 and a > 0")
    values, mults = [], []
    k = 0
    total = 0
    while total < count:
        values.append(sphere_eigenvalue(n, a, k))
        mults.append(sphere_multiplicity(n, k))
        total += mults[-1]
        k += 1
    return SpectrumResult(values=np.array(values), backend="sphere-exact",
                          multiplicities=np.array(mults, dtype=int),
                          tol_zero=1e-12 / a**2)


def product_spectrum(factors, weights=None, count: int = 12) -> SpectrumResult:
    """Spectrum of sum_f t_f Laplace_f on a product of round spheres.

    factors: sequence of (n_f, a_f); weights: positive t_f, default 1.
    Levels per factor are enumerated far enough that the returned values
    are provably the lowest `count`.
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
    return SpectrumResult(values=values[:keep], backend="product-exact",
                          multiplicities=mults[:keep], tol_zero=1e-12 * scale)
