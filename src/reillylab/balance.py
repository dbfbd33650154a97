"""Centering a measure on the sphere by a Moebius transformation.

Given points y_i on the unit sphere with positive weights w_i, find the
parameter g so that the moved measure has vanishing first moment:
sum_i w_i gamma_g(y_i) = 0.  Newton iteration on the square system with
backtracking; the solution exists and is unique whenever the measure is
not concentrated at a single point.  A moment or a Newton Jacobian is
one batched gamma call over all points, summed in point order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConvergenceError
from .moebius import MoebiusParam, gamma_parameter_jacobian, gamma_value

_MAX_GNORM = 1.0 - 1e-9


@dataclass
class BalanceResult:
    param: MoebiusParam
    residual: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list)

    def history_rows(self):
        """Diagnostic rows: iteration, residual, gnorm, step."""
        return [(h["iteration"], h["residual"], h["gnorm"], h["step"])
                for h in self.history]


def moment(param: MoebiusParam, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i gamma_g(y_i) for points (m, N+1) and weights (m,)."""
    return weights @ gamma_value(param, points)


def balance_measure(points, weights=None, tol_rel: float = 1e-8,
                    max_iter: int = 500, support: str = "sphere") -> BalanceResult:
    """Moebius parameter centering the weighted point measure.

    Residual target is tol_rel times the total weight, in the max norm;
    tol_rel must be finite and positive.
    support "sphere" requires unit points; "ball" accepts interior points
    of the unit ball (the Moebius family acts on both).
    """
    if not (np.isfinite(tol_rel) and tol_rel > 0.0):
        raise ArgumentError("balance tolerance must be finite and positive, "
                            "got %r" % (tol_rel,))
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ArgumentError("points must be an (m, N+1) array")
    if points.shape[0] == 0:
        raise ArgumentError("no points to balance")
    if not np.all(np.isfinite(points)):
        raise ArgumentError("balance points must be finite")
    norms = np.linalg.norm(points, axis=1)
    if support == "sphere":
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise ArgumentError("balance points must lie on the unit sphere")
    elif support == "ball":
        if np.max(norms) > 1.0 - 1e-9:
            raise ArgumentError("ball-supported points must be interior")
    else:
        raise ArgumentError("support must be 'sphere' or 'ball'")
    m, dim = points.shape
    if weights is None:
        weights = np.full(m, 1.0 / m)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise ArgumentError("one weight per point required")
    if not np.all((weights > 0.0) & np.isfinite(weights)):
        raise ArgumentError("weights must be positive and finite")
    total = float(np.sum(weights))
    tol = tol_rel * total

    g = np.zeros(dim)
    history = []
    param = MoebiusParam(g)
    res_vec = moment(param, points, weights)
    res = float(np.max(np.abs(res_vec)))
    history.append({"iteration": 0, "residual": res, "gnorm": 0.0, "step": 0.0})
    for it in range(1, max_iter + 1):
        if res <= tol:
            return BalanceResult(param=param, residual=res, iterations=it - 1,
                                 converged=True, history=history)
        jac = np.sum(weights[:, None, None]
                     * gamma_parameter_jacobian(param, points), axis=0)
        try:
            delta = np.linalg.solve(jac, -res_vec)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular balance system: %s" % exc) from exc
        step = 1.0
        while step > 1e-12:
            cand = g + step * delta
            gn = np.linalg.norm(cand)
            if gn < _MAX_GNORM:
                cand_param = MoebiusParam(cand)
                cand_vec = moment(cand_param, points, weights)
                cand_res = float(np.max(np.abs(cand_vec)))
                if cand_res < res:
                    break
            step *= 0.5
        else:
            return BalanceResult(param=param, residual=res, iterations=it,
                                 converged=False, history=history)
        g, param, res_vec, res = cand, cand_param, cand_vec, cand_res
        history.append({"iteration": it, "residual": res,
                        "gnorm": float(np.linalg.norm(g)), "step": step})
    return BalanceResult(param=param, residual=res, iterations=max_iter,
                         converged=res <= tol, history=history)
