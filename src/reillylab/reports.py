"""Sharp second-eigenvalue reports.

A report evaluates both sides of the bound

    lambda_2 <= (1/V) integral of (c tr T + |H_T|^2 / tr T)

for a chosen weight tensor T (plus the mean of q for Schrodinger-type
operators) by one path: `_sample_pass` gives the integrand, tr T, H_T and
the minimum eigenvalues of T and T' = (tr T) I - 2 T, `_average` takes
every mean (P1 quadrature on mesh vertices, the plain mean over seeded
samples), and `_report` adds the potential's mean, the tr T statistics
and the geodesic radius from (tr T / lambda_2)^(1/2), then asserts the
bound unless T is not positive.  Each kind adds its own diagnostics: the
forms, solve, residuals, potential constancy and H_T alignment of a mesh,
the exact spectrum and T-minimality of a reference record, and the H2
guard and decomposition cross-check of the mean tensor.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .ellipticity import _mean_scalars, mean_curvature_tensor
from .errors import (ArgumentError, EllipticityError, InequalityViolation,
                     UnsupportedConfiguration)
from .fem import DiscreteGeometry, assemble_forms
from .mesh import check_mesh, icosphere, projective_icosphere, torus_grid
from .newton import newton_tensor
from .secondform import rowdot
from .spectra import product_spectrum, solve_pencil

TOL_FEM = 0.03
TOL_EXACT = 1e-9

CSV_COLUMNS = ("name", "c", "operator", "lambda2", "rhs", "gap",
               "trT_min", "Tprime_min", "radius", "backend")


@dataclass(frozen=True)
class OperatorSpec:
    """Choice of the weight tensor T and an optional potential.

    kind: "identity", "newton" (rank in `degree`), "mean_curvature", or
    "custom" with a tensor_fn(FrameBatch) returning an array that
    broadcasts against (..., n, n).  The potential, when present, is a
    callable FrameBatch -> array that broadcasts against (...,), called
    once on the vertex frames of a mesh.  So constant callbacks such as
    `lambda fr: 3.0` serve every point.
    """

    kind: str = "identity"
    degree: int = 2
    tensor_fn: object = None
    potential: object = None

    def __post_init__(self):
        if self.kind not in ("identity", "newton", "mean_curvature", "custom"):
            raise ArgumentError("unknown operator kind %r" % (self.kind,))
        if self.kind == "newton" and self.degree < 0:
            raise ArgumentError("newton rank must be nonnegative")
        if self.kind == "custom" and self.tensor_fn is None:
            raise ArgumentError("custom operator needs a tensor_fn")

    @property
    def label(self) -> str:
        if self.kind == "newton":
            return "newton:%d" % self.degree
        return self.kind

    def tensors(self, frames) -> np.ndarray:
        """The weight tensor T (..., n, n) at every point of a FrameBatch,
        from one evaluation over the whole batch."""
        shape = frames.metric.shape
        if self.kind == "identity":
            return np.broadcast_to(np.eye(frames.n), shape)
        if self.kind == "newton":
            if self.degree > frames.n - 2:
                raise ArgumentError(
                    "newton rank %d exceeds n-2 = %d" % (self.degree, frames.n - 2))
            if frames.p > 1 and self.degree % 2 == 1:
                raise UnsupportedConfiguration(
                    "odd newton ranks need codimension one")
            return newton_tensor(frames.h, self.degree).as_matrix()
        if self.kind == "mean_curvature":
            return mean_curvature_tensor(frames.h).T
        return np.broadcast_to(np.asarray(self.tensor_fn(frames), dtype=float),
                               shape)


def operator_from_label(label: str) -> OperatorSpec:
    """Parse "identity", "newton:<r>", "mean_curvature" into a spec."""
    label = str(label)
    if label.startswith("newton:"):
        return OperatorSpec(kind="newton", degree=int(label.split(":", 1)[1]))
    return OperatorSpec(kind=label)


@dataclass
class ReillyReport:
    """Both sides of the bound plus diagnostics for one geometry."""

    name: str
    c: float
    operator: str
    lambda2: float
    rhs: float
    volume: float
    backend: str
    tolerance: float
    preconditions: dict
    equality: dict
    qbar: float = 0.0
    asserted: bool = True
    passed: bool = True
    notes: list = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.rhs - self.lambda2

    def as_dict(self) -> dict:
        return {**asdict(self), "gap": self.gap}

    def csv_cells(self) -> list:
        radius = self.equality.get("radius_estimate")
        return [self.name, "%.17g" % self.c, self.operator,
                "%.17g" % self.lambda2, "%.17g" % self.rhs,
                "%.17g" % self.gap,
                "%.17g" % self.preconditions["trT_min"],
                "%.17g" % self.preconditions["Tprime_min"],
                "" if radius is None else "%.17g" % radius,
                self.backend]


def write_csv(header, rows, stream_or_path):
    """Write a header line and the rows to a stream or a path; returns
    the text.  Cells go through the csv module's minimal quoting (gallery
    names contain commas) and every line ends in a bare newline.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if hasattr(stream_or_path, "write"):
        stream_or_path.write(text)
    else:
        with open(stream_or_path, "w") as fh:
            fh.write(text)
    return text


def write_report_csv(reports, stream_or_path):
    """One header line and one row per report, stable formatting."""
    return write_csv(CSV_COLUMNS, [rep.csv_cells() for rep in reports],
                     stream_or_path)


def _sample_pass(frames, tensors, c):
    """Per-frame integrand c trT + |H_T|^2/trT, tr T, the ambient vectors
    H_T (K, C) and |H_T|, plus the positivity preconditions over all
    frames.

    frames is a FrameBatch and tensors holds the weight tensor of each of
    its rows, (K, n, n).
    """
    tensors = np.asarray(tensors, dtype=float)
    trT = np.trace(tensors, axis1=-2, axis2=-1)
    bad = np.flatnonzero(trT <= 0.0)
    if bad.size:
        raise EllipticityError("tr T must be positive, got %.3e" % trT[bad[0]])
    wn = frames.weighted_normal(tensors)
    ht2 = (wn[:, None, :] @ wn[:, :, None])[:, 0, 0]
    integrand = c * trT + ht2 / trT
    ht_ambient = (wn[:, None, :] @ frames.normal)[:, 0]
    # T and T' = (tr T) I - 2 T of every sample in one eigvalsh call
    tprime = trT[:, None, None] * np.eye(frames.n) - 2.0 * tensors
    eig = np.linalg.eigvalsh(np.concatenate([tensors, tprime]))[:, 0]
    count = len(trT)
    pre = {"T_posdef_min": float(np.min(eig[:count])),
           "Tprime_min": float(np.min(eig[count:])),
           "trT_min": float(np.min(trT))}
    return integrand, trT, ht_ambient, np.sqrt(ht2), pre


def _radius_estimate(trT_mean, lam2, space):
    """Geodesic radius in space from r0 = (trT / lambda2)^(1/2)."""
    if lam2 <= 0.0 or trT_mean <= 0.0:
        return None, ["radius estimate undefined for nonpositive data"]
    r0 = math.sqrt(trT_mean / lam2)
    if space.c == 1.0 and r0 > 1.0 + 1e-12:
        return None, ["radius parameter %.6g exceeds 1; no geodesic "
                      "sphere of curvature 1 fits the equality case" % r0]
    return space.geodesic_radius(r0), []


def mesh_for(immersion, level: int):
    """Default mesh family for a two-dimensional gallery geometry."""
    topo = immersion.metadata.get("topology", "sphere")
    if immersion.metadata.get("antipodal_quotient"):
        return projective_icosphere(level)
    if topo == "sphere":
        return icosphere(level)
    if topo == "torus":
        return torus_grid(3 * 2 ** level)
    raise UnsupportedConfiguration("no mesh family for topology %r" % topo)


def _centroid(positions, areas, triangles):
    """Area-weighted mean of the ambient positions."""
    corner = positions[triangles]  # (F, 3, N)
    m = np.einsum("f,fn->n", areas, np.mean(corner, axis=1))
    return m / float(np.sum(areas))


def _sphere_center(m, c):
    """Ambient centroid m normalized back to the space form."""
    if c == 0.0:
        return m
    if c == 1.0:
        norm = np.linalg.norm(m)
        return m / norm if norm > 1e-12 else m
    q = m[-1] ** 2 - float(m[:-1] @ m[:-1])
    return m / math.sqrt(q) if q > 1e-12 else m


def _t_minimal_residual(frames, ht_ambient, center, space):
    """Largest non-radial part of H_T relative to the estimated center.

    A T-minimal submanifold of a geodesic sphere has H_T parallel to the
    sphere's radial direction at every point.  Points within 1e-9 of the
    center are skipped.
    """
    inner = space.inner
    scale = max(1e-30, float(np.max(np.sqrt(np.abs(inner(ht_ambient, ht_ambient))),
                                    initial=0.0)))
    if space.c == 0.0:
        rad = frames.point - center
    else:
        rad = space.project_radial_out(frames.point, center)
    nrm2 = inner(rad, rad)
    keep = nrm2 >= 1e-18
    rad = rad[keep] / np.sqrt(nrm2[keep])[:, None]
    ht = ht_ambient[keep]
    resid = ht - inner(ht, rad)[:, None] * rad
    worst = float(np.max(np.sqrt(np.abs(inner(resid, resid))), initial=0.0))
    return worst / scale


def takahashi_residual(geom, stiffness, mass, trT_vertex, cprime, center):
    """Weak residual of L_T x = c' (tr T) x for the centered position vector.

    Integrated against every P1 hat function and summed in l1 over
    coordinates; decreases at the discretization rate on true equality
    cases.
    """
    X = geom.positions - np.asarray(center)[None, :]
    lhs = stiffness @ X
    rhs = mass @ (cprime * trT_vertex[:, None] * X)
    return float(np.sum(np.abs(lhs - rhs)))


def _average(values, geom=None):
    """Mean of per-point values by the one rule of every report: P1
    quadrature over geom.volume on mesh vertices, or the plain mean over
    seeded samples when geom is None."""
    if geom is None:
        return float(np.mean(values))
    return geom.integrate(values) / geom.volume


def _sample_frames(immersion, samples, seed):
    """FrameBatch at `samples` seeded random domain points."""
    if samples < 1:
        raise ArgumentError("need at least one sample, got %d" % samples)
    return immersion.frame_at(immersion.sample_points(samples, seed=seed))


def _mesh_forms(immersion, spec, level, mesh, potential=None):
    """Geometry and assembled stiffness and mass of a mesh report, plus
    the potential's vertex values (None without a potential), from one
    potential call on the vertex frames.  A mesh passed in must pass
    `check_mesh`: the bound is about closed connected surfaces; an open
    mesh would solve a Neumann problem, and a mesh of several components
    has lambda_2 = 0 whatever its geometry.  The gallery families are
    closed and connected by construction."""
    if mesh is None:
        mesh = mesh_for(immersion, level)
    else:
        check_mesh(mesh)
    geom = DiscreteGeometry(immersion, mesh)
    tensor_field = None if spec.kind == "identity" else spec.tensors
    qvals = None if potential is None else np.broadcast_to(
        np.asarray(potential(geom.frames), dtype=float), geom.frames.point.shape[:-1])
    stiffness, mass = assemble_forms(geom, tensor_field, potential=qvals)
    return geom, stiffness, mass, qvals


def _start_guess(geom) -> np.ndarray:
    """(V, 1 + N) start vectors of a mesh eigensolve: the constant and the
    ambient coordinates x^A at the vertices, the test functions of the
    bound, which are lambda_2 eigenfunctions in its equality case."""
    return np.column_stack([np.ones(len(geom.positions)), geom.positions])


def _mesh_residuals(geom, stiffness, mass, ht_ambient, trT_vertex, cprime):
    """T-minimality residual about the estimated sphere center and, when
    cprime is given, the weak residual of L_T x = c'(trT) x."""
    space = geom.immersion.ambient
    centroid = _centroid(geom.positions, geom.areas, geom.mesh.triangles)
    out = {"Tminimal_residual": _t_minimal_residual(
        geom.frames, ht_ambient, _sphere_center(centroid, space.c), space)}
    if cprime is not None:
        # positions relative to the raw centroid so constant coordinates
        # of curved ambients drop out
        out["takahashi_residual"] = takahashi_residual(
            geom, stiffness, mass, trT_vertex, cprime, centroid)
    return out


def t_minimality(immersion, spec: OperatorSpec, cprime: float, level: int = 4,
                 mesh=None) -> dict:
    """T-minimality diagnostics at a stated c', without an eigensolve.

    The equality case of the bound is Takahashi's: M is T-minimal in a
    geodesic sphere and L_T x = c' (tr T) x.  Returns the largest |H_T|
    over vertices, the largest non-radial fraction of H_T relative to the
    estimated sphere center, and the weak residual of L_T x = c'(trT) x
    at the given cprime.  `fem_report` gives the same residuals at the c'
    it reads off lambda_2.  The potential of spec, if any, is not
    assembled.
    """
    geom, stiffness, mass, _ = _mesh_forms(immersion, spec, level, mesh)
    _, trT_vertex, ht_ambient, ht, _ = _sample_pass(
        geom.frames, spec.tensors(geom.frames), immersion.ambient.c)
    out = {"HT_max": float(np.max(ht))}
    out.update(_mesh_residuals(geom, stiffness, mass, ht_ambient, trT_vertex,
                               cprime))
    return out


def _report(immersion, label, lam2, backend, tol, sample, diagnose,
            geom=None, qvals=None) -> ReillyReport:
    """Build and assert one report from its lambda_2 and sample pass, with
    every mean taken by `_average` over geom: adds the mean qbar of the
    potential's values qvals (None without one), the mean and spread of
    tr T, the radius estimate with its notes, and diagnose(cprime), the
    kind's own equality diagnostics at cprime = (lambda_2 - qbar) / mean tr T.
    """
    integrand, trT, _, _, pre = sample
    c = immersion.ambient.c
    qbar = 0.0 if qvals is None else _average(qvals, geom)
    rhs = _average(integrand, geom) + qbar
    trT_mean = _average(trT, geom)
    radius, notes = _radius_estimate(trT_mean, lam2 - qbar, immersion.ambient)
    equality = {"trT_mean": trT_mean, "trT_stddev": float(np.std(trT)),
                "radius_estimate": radius}
    equality.update(diagnose((lam2 - qbar) / trT_mean))
    report = ReillyReport(
        name=immersion.name, c=c, operator=label, lambda2=lam2, rhs=rhs,
        volume=math.nan if geom is None else geom.volume, backend=backend,
        tolerance=tol, preconditions=pre, equality=equality, qbar=qbar,
        notes=notes)
    _assert_bound(report, tol)
    return report


def fem_report(immersion, spec: OperatorSpec, level: int = 4, mesh=None,
               tol: float = TOL_FEM, chain=None) -> ReillyReport:
    """Assemble, solve, and diagnose the bound on a triangle mesh."""
    geom, stiffness, mass, qvals = _mesh_forms(immersion, spec, level, mesh,
                                               spec.potential)
    has_q = qvals is not None
    # the potential's form is >= min(q) M and the rest of the stiffness is
    # positive semidefinite, so min(q) bounds the spectrum below
    spectrum = solve_pencil(stiffness, mass,
                            floor=float(np.min(qvals)) if has_q else 0.0,
                            guess=_start_guess(geom))
    lam2 = spectrum.lambda2()
    frames = geom.frames
    sample = _sample_pass(frames, spec.tensors(frames), immersion.ambient.c)
    trT, ht_ambient = sample[1], sample[2]

    def diagnose(cprime):
        out = _mesh_residuals(geom, stiffness, mass, ht_ambient, trT,
                              None if has_q else cprime)
        if has_q:
            out["potential_constancy_stddev"] = float(np.std(
                cprime * trT + qvals))
        if chain is not None:
            out["HT_alignment_residual"] = ht_alignment_residual(
                frames, ht_ambient, trT, chain, immersion.ambient)
        return out

    return _report(immersion, spec.label, lam2, spectrum.backend, tol, sample,
                   diagnose, geom, qvals)


def ht_alignment_residual(frames, ht_ambient, trT, chain, space):
    """Deviation of H_T from (tr T) times the normal gradient of the
    conformal factor; vanishes exactly on balanced equality cases.

    frames is a FrameBatch; ht_ambient (K, C) and trT (K,) hold the
    ambient H_T and tr T of each row.
    """
    grad = chain.grad_rho(frames.point)
    tang = space.inner(grad[:, None, :], frames.tangent)  # (K, n)
    perp = grad - (tang[:, None, :] @ frames.tangent)[:, 0]
    resid = ht_ambient - trT[:, None] * perp
    mag = np.sqrt(np.abs(space.inner(resid, resid)))
    size = np.sqrt(np.abs(space.inner(ht_ambient, ht_ambient)))
    return float(np.max(mag / np.maximum(1.0, size), initial=0.0))


def _exact_spectrum(immersion, label):
    """(record, lambda2, backend) of the reference record of `label`,
    from the closed form its factors give."""
    record = immersion.reference.get(label)
    if record is None or record.factors is None:
        raise UnsupportedConfiguration(
            "no closed-form spectral backend for %s on %s"
            % (label, immersion.name))
    spectrum = product_spectrum([(dim, a) for _, dim, a in record.factors],
                                weights=[t for t, _, _ in record.factors])
    return record, spectrum.lambda2(), spectrum.backend


def closed_form_report(immersion, spec: OperatorSpec, samples: int = 32,
                       seed: int = 0, tol: float = TOL_EXACT) -> ReillyReport:
    """Bound report through an exact spectral backend (no mesh).

    Requires a reference record for the operator label with `factors`
    (one factor for a round sphere), and a spec without a potential.  The
    right side is still evaluated independently from sampled frames.
    """
    if spec.potential is not None:
        raise UnsupportedConfiguration(
            "a closed-form lambda_2 carries no potential; potentials need "
            "the mesh solver of a surface, and %s has n = %d"
            % (immersion.name, immersion.n))
    record, lam2, backend = _exact_spectrum(immersion, spec.label)
    frames = _sample_frames(immersion, samples, seed)
    sample = _sample_pass(frames, spec.tensors(frames), immersion.ambient.c)

    def diagnose(_):
        if record.center is None:
            return {}
        return {"Tminimal_residual": _t_minimal_residual(
            frames, sample[2], np.asarray(record.center, dtype=float),
            immersion.ambient)}

    return _report(immersion, spec.label, lam2, backend, tol, sample, diagnose)


def check_inequality(immersion, spec: OperatorSpec, level: int = 4,
                     tol: float = None, **kw) -> ReillyReport:
    """Dispatch to the mesh solver (surfaces), to the mean-tensor report
    (the mean_curvature operator with n >= 4 and p >= 2, where `level`
    is unused), or to exact spectra (n >= 3).  A potential is refused
    unless n = 2."""
    if immersion.n == 2:
        return fem_report(immersion, spec, level=level,
                          tol=TOL_FEM if tol is None else tol, **kw)
    tol = TOL_EXACT if tol is None else tol
    if spec.kind == "mean_curvature" and immersion.n >= 4 and \
            immersion.p >= 2 and spec.potential is None:
        return mean_tensor_report(immersion, tol=tol, **kw)
    # closed_form_report refuses a potential
    return closed_form_report(immersion, spec, tol=tol, **kw)


def _assert_bound(report: ReillyReport, tol: float):
    """Mark the report; raise only when a trusted precondition holds but
    the inequality fails beyond tolerance."""
    scale = max(abs(report.rhs), abs(report.lambda2), 1e-30)
    if report.preconditions["T_posdef_min"] <= 0.0 or \
            report.preconditions["Tprime_min"] < -1e-10 * scale:
        report.asserted = False
        report.notes.append("positivity preconditions fail; bound not asserted")
        return
    report.passed = report.gap >= -tol * scale
    if not report.passed:
        raise InequalityViolation(
            "second eigenvalue %.12g exceeds the bound %.12g by more than "
            "tolerance %.3g on %s" % (report.lambda2, report.rhs, tol,
                                      report.name))


def mean_tensor_report(immersion, samples: int = 64, seed: int = 0,
                       tol: float = TOL_EXACT) -> ReillyReport:
    """Bound for the mean-curvature-direction operator on n >= 4 geometry.

    Checks H2 > 0 at every sample, evaluates the right side both through
    the general |H_T|^2/trT integrand and through its decomposition into
    H2, the off-principal part tau, and principal cross terms, and requires
    the two to agree at machine precision before reporting.
    """
    n = immersion.n
    p = immersion.p
    if n < 4:
        raise UnsupportedConfiguration("mean tensor bound needs n >= 4")
    if p < 2:
        raise UnsupportedConfiguration("mean tensor report covers p >= 2; "
                                       "use the newton operator for p = 1")
    c = immersion.ambient.c

    frames = _sample_frames(immersion, samples, seed)
    h = frames.h
    # the first sample with H2 <= 0 fails the report, unless one with
    # |H| = 0 comes no later, on which mean_curvature_tensor raises
    bad = np.flatnonzero(_mean_scalars(h)[2] <= 0.0)
    data = mean_curvature_tensor(h[:bad[0] + 1] if bad.size else h)
    if bad.size:
        raise EllipticityError("second mean curvature must be positive, "
                               "got %.3e" % data.H2[bad[0]])

    H = data.H
    principal = data.principal
    pp = np.sum(principal * principal, axis=(-2, -1))
    tau2 = np.sum(h * h, axis=(-3, -2, -1)) - pp
    cvec = np.einsum("kij,kaij->ka", principal, h)
    cross = rowdot(cvec, cvec) - pp ** 2
    split = n * (n - 1) * (
        c * H
        + (data.H2 + tau2 / (n * (n - 1))) ** 2 / H
        + cross / (n ** 2 * (n - 1) ** 2 * H))
    # tr T = n(n-1)|H| > 0 here, so the pass cannot fail on tr T
    sample = _sample_pass(frames, data.T, c)

    agree = float(np.max(np.abs(sample[0] - split)))
    if agree > 1e-10 * max(1.0, float(np.max(np.abs(sample[0])))):
        raise InequalityViolation(
            "decomposed and general right sides disagree by %.3e" % agree)

    _, lam2, backend = _exact_spectrum(immersion, "mean_curvature")
    return _report(immersion, "mean_curvature", lam2, backend, tol, sample,
                   lambda _: {"H2_min": float(np.min(data.H2)),
                              "decomposition_agreement": agree})


def reports_json(reports) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2,
                      sort_keys=True, default=float)
