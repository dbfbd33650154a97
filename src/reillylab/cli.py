"""Scenario-driven command line front end.

Subcommands: run a JSON scenario config, verify the random-instance
identity suites, produce mesh-refinement convergence tables and plots,
balance a point measure loaded from an OFF file, and list or export the
gallery.  Exit codes: 0 all checks passed, 1 configuration problem,
2 an asserted inequality or identity failed.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .balance import balance_measure
from .errors import (ArgumentError, ConfigError, InequalityViolation,
                     ReillyLabError, UnsupportedConfiguration)
from .fem import element_metric
from .gallery import GALLERY, gallery, list_gallery
from .identities import (conformal_stretch_residual, identity_suite,
                         second_form_transform_residual)
from .mesh import load_off, save_off
from .moebius import ConformalChain, MoebiusParam, hyperboloid_to_ball
from .reports import (check_inequality, fem_report, mesh_for,
                      operator_from_label, reports_json, write_csv,
                      write_report_csv)
from .svgplot import fit_loglog_slope, line_plot

DEFAULT_LEVELS = (3, 4, 5)
_OUTPUT_KINDS = ("report", "convergence", "balance", "identities")
# largest residual an identity of the suite may leave
IDENTITY_BOUND = 1e-10


def default_seed(explicit=None) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("REILLY_LAB_SEED")
    return int(env) if env else 0


def _field(cfg, key, default, convert, where):
    """cfg[key] through convert, or default when it is absent or null."""
    value = cfg.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError("%s: malformed %r: %r" % (where, key, value))


def _finite_tol(tol, where):
    """A report tolerance from outside the program: None or finite.  A
    negative one stays allowed; it forces a failure."""
    if tol is not None and not math.isfinite(tol):
        raise ConfigError("%s: tolerance must be finite, got %r" % (where, tol))
    return tol


def _potential_from_config(cfg, where, coords):
    """A constant or a scaled ambient coordinate among `coords` of them."""
    if not isinstance(cfg, dict):
        raise ConfigError("%s: potential must be an object" % where)
    kind = cfg.get("kind", "constant")
    if kind == "constant":
        value = _field(cfg, "value", 0.0, float, where)
        return lambda fr: value
    if kind == "coordinate":
        axis = _field(cfg, "axis", 0, int, where)
        if not 0 <= axis < coords:
            raise ConfigError("%s: potential axis %d outside 0..%d"
                              % (where, axis, coords - 1))
        scale = _field(cfg, "scale", 1.0, float, where)
        return lambda fr: scale * fr.point[..., axis]
    raise ConfigError("%s: unknown potential kind %r" % (where, kind))


def _operator_from_config(cfg, where, coords):
    """A label string, or an object with kind, degree and potential."""
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    if not isinstance(cfg, dict):
        raise ConfigError("%s: operator must be a label or an object" % where)
    label = cfg.get("kind", "identity")
    if label == "newton":
        label = "newton:%d" % _field(cfg, "degree", 2, int, where)
    try:
        spec = operator_from_label(label)
    except ValueError as exc:
        raise ConfigError("%s: operator rejected: %s" % (where, exc))
    if "potential" in cfg:
        spec = replace(spec, potential=_potential_from_config(
            cfg["potential"], where, coords))
    return spec


def load_scenarios(path) -> list:
    """Parse and validate a config; geometry construction happens here so
    that bad gallery parameters surface as configuration errors."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON (line %d column %d): %s"
                          % (path, exc.lineno, exc.colno, exc.msg))
    if isinstance(doc, dict):
        doc = doc.get("scenarios")
    if not isinstance(doc, list) or not doc:
        raise ConfigError("config must hold a nonempty 'scenarios' list")

    out = []
    names = set()
    for idx, sc in enumerate(doc):
        where = "scenario %d" % idx
        if not isinstance(sc, dict):
            raise ConfigError("%s: must be an object" % where)
        name = sc.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError("%s: missing 'name'" % where)
        where = "scenario %d (%s)" % (idx, name)
        if name in names:
            raise ConfigError("%s: duplicate name" % where)
        names.add(name)
        geo = sc.get("geometry")
        if not isinstance(geo, dict) or "gallery" not in geo:
            raise ConfigError("%s: geometry needs a 'gallery' field" % where)
        if geo["gallery"] not in GALLERY:
            raise ConfigError("%s: unknown gallery item %r (known: %s)"
                              % (where, geo["gallery"],
                                 ", ".join(list_gallery())))
        try:
            imm = gallery(geo["gallery"], **geo.get("params", {}))
        except (ReillyLabError, TypeError) as exc:
            raise ConfigError("%s: geometry parameters rejected: %s"
                              % (where, exc))
        spec = _operator_from_config(sc.get("operator", "identity"), where,
                                     imm.ambient.coords)
        if spec.potential is not None and imm.n != 2:
            raise ConfigError("%s: a potential needs a surface (n = 2), and "
                              "%s has n = %d" % (where, imm.name, imm.n))
        for key in ("levels", "outputs"):
            if key in sc and not isinstance(sc[key], list):
                raise ConfigError("%s: %r must be a list, got %s"
                                  % (where, key, json.dumps(sc[key])))
        level = _field(sc, "level", 4, int, where)
        levels = _field(sc, "levels", None, lambda v: [int(x) for x in v],
                        where)
        if level < 0 or any(lvl < 0 for lvl in levels or ()):
            raise ConfigError("%s: subdivision levels must be nonnegative"
                              % where)
        if levels is not None:
            if any(b <= a for a, b in zip(levels, levels[1:])) or not levels:
                raise ConfigError("%s: levels must be strictly increasing"
                                  % where)
        count = _field(sc, "count", 100, int, where)
        if count < 0:
            raise ConfigError("%s: identity count must be nonnegative, got %d"
                              % (where, count))
        outputs = sc.get("outputs", ["report"])
        bad = [o for o in outputs if o not in _OUTPUT_KINDS]
        if bad:
            raise ConfigError("%s: unknown outputs %s (known: %s)"
                              % (where, bad, ", ".join(_OUTPUT_KINDS)))
        out.append({
            "name": name, "immersion": imm, "spec": spec, "level": level,
            "levels": levels, "outputs": outputs,
            "tol": _finite_tol(_field(sc, "tol", None, float, where), where),
            "count": count,
        })
    return out


def convergence_rows(immersion, spec, levels, done=None):
    """level, vertices, lambda2, rhs, gap per mesh level (FEM only).  A
    level's `fem_report` of the same immersion and operator in `done`
    (level -> report) is read instead of solved again; the tolerance
    does not move those values."""
    if immersion.n != 2:
        raise UnsupportedConfiguration(
            "convergence studies need a two-dimensional geometry")
    done = done or {}
    rows = []
    for lvl in levels:
        mesh = mesh_for(immersion, lvl)
        # tol=1.0: the table lists the gap of every level, so a gap on a
        # coarse mesh must not raise
        rep = done.get(lvl) or fem_report(immersion, spec, mesh=mesh, tol=1.0)
        rows.append((lvl, mesh.vertex_count, rep.lambda2, rep.rhs, rep.gap))
    return rows


def _convergence_artifact(sc, levels, outdir, done=None):
    """Write convergence.csv and, when the scenario's operator has a
    reference eigenvalue and there are two or more levels, plot.svg; the
    reports in `done` are reused as in `convergence_rows`.  Returns (rows,
    fitted slope or None)."""
    rows = convergence_rows(sc["immersion"], sc["spec"], levels, done=done)
    write_csv(("level", "vertices", "lambda2", "rhs", "gap"),
              [(lvl, nv, "%.17g" % lam, "%.17g" % rhs, "%.17g" % gap)
               for lvl, nv, lam, rhs, gap in rows],
              os.path.join(outdir, "convergence.csv"))
    record = sc["immersion"].reference.get(sc["spec"].label)
    if len(rows) < 2 or record is None or not record.lambda2:
        return rows, None
    svg, slope = convergence_plot(rows, record.lambda2, sc["name"])
    with open(os.path.join(outdir, "plot.svg"), "w") as fh:
        fh.write(svg)
    return rows, slope


def convergence_plot(rows, reference, title):
    """Log-log plot of the eigenvalue error against mesh size h."""
    hs = [1.0 / math.sqrt(nv) for _, nv, _, _, _ in rows]
    errs = [abs(lam - reference) for _, _, lam, _, _ in rows]
    if min(errs) <= 0.0:
        raise UnsupportedConfiguration("zero error; nothing to plot on log axes")
    slope = fit_loglog_slope(hs, errs)
    return line_plot(hs, errs, "slope %.2f" % slope, title, "mesh size h",
                     "|lambda2 - reference|"), slope


def _balance_artifact(sc, outdir):
    imm = sc["immersion"]
    if imm.metadata.get("topology") != "sphere" or imm.n != 2:
        raise ConfigError("scenario %s: balance output needs a sphere-domain "
                          "surface" % sc["name"])
    mesh = mesh_for(imm, sc["level"])
    areas = element_metric(imm.position(mesh.points), mesh.triangles,
                           imm.ambient.metric_diag)[-1]
    weights = np.zeros(mesh.vertex_count)
    np.add.at(weights, mesh.triangles, (areas / 3.0)[:, None])
    res = balance_measure(mesh.points, weights)
    write_balance_csv(res, os.path.join(outdir, "balance.csv"))
    return res


def write_balance_csv(result, path_or_stream):
    return write_csv(("iteration", "residual", "gnorm", "step"),
                     [(it, "%.17g" % res, "%.17g" % gn, "%.17g" % step)
                      for it, res, gn, step in result.history_rows()],
                     path_or_stream)


def run_scenario(sc, out_root, seed, tol_override):
    """Execute one scenario; returns a summary dict with pass/fail."""
    outdir = os.path.join(out_root, sc["name"])
    os.makedirs(outdir, exist_ok=True)
    summary = {"name": sc["name"], "ok": True, "failures": []}
    reports = []

    if "report" in sc["outputs"]:
        tol = sc["tol"] if tol_override is None else tol_override
        try:
            rep = check_inequality(sc["immersion"], sc["spec"],
                                   level=sc["level"], tol=tol)
            reports.append(rep)
            if not rep.asserted:
                summary["failures"].append(
                    "preconditions fail; inequality not asserted")
        except InequalityViolation as exc:
            summary["ok"] = False
            summary["failures"].append(str(exc))
        except ReillyLabError as exc:
            summary["ok"] = False
            summary["failures"].append("report failed: %s" % exc)
    if reports:
        write_report_csv(reports, os.path.join(outdir, "report.csv"))
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            fh.write(reports_json(reports))

    if "convergence" in sc["outputs"]:
        levels = sc["levels"] or list(DEFAULT_LEVELS)
        # a surface's report is the fem_report at the scenario's level
        done = {sc["level"]: reports[0]} if reports else None
        try:
            _, slope = _convergence_artifact(sc, levels, outdir, done)
            if slope is not None:
                summary["slope"] = slope
        except ReillyLabError as exc:
            summary["ok"] = False
            summary["failures"].append("convergence failed: %s" % exc)

    if "balance" in sc["outputs"]:
        try:
            res = _balance_artifact(sc, outdir)
            summary["balance_converged"] = res.converged
            if not res.converged:
                summary["ok"] = False
                summary["failures"].append("balance did not converge")
        except ReillyLabError as exc:
            summary["ok"] = False
            summary["failures"].append(str(exc))

    if "identities" in sc["outputs"]:
        suite = identity_suite(instances=sc["count"], seed=seed)
        write_csv(("identity", "max_residual"),
                  [(key, "%.17g" % suite[key]) for key in sorted(suite)],
                  os.path.join(outdir, "identities.csv"))
        worst = max(suite.values()) if suite else 0.0
        if worst > IDENTITY_BOUND:
            summary["ok"] = False
            summary["failures"].append("identity residual %.3e over bound"
                                       % worst)
    return summary


def cmd_run(args) -> int:
    scenarios = load_scenarios(args.config)
    tol = _finite_tol(args.tol, "--tol")
    seed = default_seed(args.seed)
    summaries = [run_scenario(sc, args.out, seed, tol)
                 for sc in scenarios]
    ok = True
    for sm in summaries:
        status = "ok" if sm["ok"] else "FAIL"
        print("%-40s %s" % (sm["name"], status))
        for msg in sm["failures"]:
            print("    %s" % msg)
        ok = ok and sm["ok"]
    return 0 if ok else 2


def identity_table(count, seed):
    """Rows (name, value, bound, direction) for the identity suites.

    Direction 'le' means value must stay below the bound (a residual),
    'ge' means it must exceed it (a refinement ratio).
    """
    rows = []
    if count > 0:
        suite = identity_suite(instances=count, seed=seed)
        for key in sorted(suite):
            rows.append((key, suite[key], IDENTITY_BOUND, "le"))
        from .gallery import clifford_torus, ring_torus, sphere
        from .identities import factor_curvature_residual
        from .mesh import icosphere
        rng = np.random.default_rng(seed)
        probes = [sphere(2, 0.6, 1, 1.0), clifford_torus(), ring_torus()]
        for imm in probes:
            chain = ConformalChain(
                imm.ambient.c,
                MoebiusParam(rng.uniform(-0.25, 0.25, imm.ambient.dim + 1)),
                imm.ambient.dim)
            rows.append(("conformal_stretch[%s]" % imm.name,
                         conformal_stretch_residual(imm, chain), 1e-8, "le"))
            if imm.p == 1:
                rows.append(("second_form_transform[%s]" % imm.name,
                             second_form_transform_residual(imm, chain),
                             1e-4, "le"))
        round_sphere = sphere(2, 1.0, 1, 0.0)
        chain = ConformalChain(
            0.0,
            MoebiusParam(rng.uniform(-0.25, 0.25,
                                     round_sphere.ambient.dim + 1)),
            round_sphere.ambient.dim)
        coarse, fine = (factor_curvature_residual(round_sphere,
                                                  icosphere(lvl), chain)
                        for lvl in (2, 3))
        rows.append(("factor_curvature_ratio[%s]" % round_sphere.name,
                     coarse / fine, 3.0, "ge"))
    return rows


def cmd_verify_identities(args) -> int:
    if args.count < 0:
        raise ConfigError("--count must be nonnegative, got %d" % args.count)
    seed = default_seed(args.seed)
    rows = identity_table(args.count, seed)
    print("%-56s %13s %9s %s" % ("identity", "max_residual", "bound",
                                 "status"))
    ok = True
    for name, value, bound, direction in rows:
        good = value <= bound if direction == "le" else value >= bound
        ok = ok and good
        print("%-56s %13.3e %9.0e %s" % (name, value, bound,
                                         "pass" if good else "FAIL"))
    return 0 if ok else 2


def _parse_levels(text):
    lo, ranged, hi = text.partition("..")
    try:
        levels = [int(v) for v in ((lo, hi) if ranged else text.split(","))]
    except ValueError:
        raise ConfigError("malformed levels %r" % text)
    if ranged and levels[1] < levels[0]:
        raise ConfigError("level range %s is empty" % text)
    if any(lvl < 0 for lvl in levels):
        raise ConfigError("subdivision levels must be nonnegative: %s" % text)
    return list(range(levels[0], levels[1] + 1)) if ranged else levels


def cmd_convergence(args) -> int:
    scenarios = load_scenarios(args.config)
    levels = _parse_levels(args.levels) if args.levels else list(DEFAULT_LEVELS)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be strictly increasing")
    for sc in scenarios:
        outdir = os.path.join(args.out, sc["name"])
        os.makedirs(outdir, exist_ok=True)
        try:
            rows, slope = _convergence_artifact(sc, levels, outdir)
        except UnsupportedConfiguration as exc:
            raise ConfigError("scenario %s: %s" % (sc["name"], exc))
        line = "%-40s levels %s lambda2 %.8g" % (
            sc["name"], levels, rows[-1][2])
        if slope is not None:
            line += " slope %.2f" % slope
        print(line)
    return 0


def cmd_balance(args) -> int:
    try:
        points, _ = load_off(args.mesh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read mesh %s: %s" % (args.mesh, exc))
    if len(points) == 0:
        raise ConfigError("mesh %s has no vertices to balance" % args.mesh)
    if args.ambient == "hyperbolic":  # Lorentz hyperboloid to Poincare ball
        quad = points[:, -1] ** 2 - np.sum(points[:, :-1] ** 2, axis=1)
        if np.max(np.abs(quad - 1.0)) > 1e-6 or np.min(points[:, -1]) <= 0:
            raise ConfigError("mesh vertices do not lie on the hyperboloid")
        points, support = hyperboloid_to_ball(points), "ball"
    else:
        norms = np.linalg.norm(points, axis=1)
        if args.ambient == "euclidean" and np.min(norms) < 1e-12:
            raise ConfigError("euclidean points must avoid the origin")
        if args.ambient == "sphere" and np.max(np.abs(norms - 1.0)) > 1e-6:
            raise ConfigError("mesh vertices do not lie on the unit sphere")
        points, support = points / norms[:, None], "sphere"
    try:
        result = balance_measure(points, tol_rel=args.tol, support=support)
    except ArgumentError as exc:
        raise ConfigError(str(exc))
    print("converged %s after %d iterations; residual %.3e; g = %s"
          % (result.converged, result.iterations, result.residual,
             np.array_str(result.param.g, precision=10)))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_balance_csv(result, os.path.join(args.out, "balance.csv"))
    return 0 if result.converged else 2


def cmd_gallery(args) -> int:
    if args.list or not args.name:
        for name in list_gallery():
            print(name)
        return 0
    try:
        imm = gallery(args.name, **json.loads(args.params or "{}"))
        mesh = mesh_for(imm, args.level) if args.off and imm.n == 2 else None
    except (ReillyLabError, TypeError, ValueError) as exc:
        raise ConfigError("gallery %s rejected: %s" % (args.name, exc))
    print(imm.name)
    for label, rec in sorted(imm.reference.items()):
        print("  %-16s lambda2=%s rhs=%s equality=%s [%s]"
              % (label, rec.lambda2, rec.rhs, rec.equality, rec.source))
    if args.off:
        if imm.n != 2:
            raise ConfigError("OFF export needs a two-dimensional geometry")
        save_off(args.off, imm.position(mesh.points), mesh.triangles)
        print("wrote %s (%d vertices, %d triangles)"
              % (args.off, mesh.vertex_count, mesh.triangle_count))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reilly-lab",
        description="second-eigenvalue bounds on immersed submanifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(fn=cmd_run)

    p_ver = sub.add_parser("verify-identities",
                           help="run the random-instance identity suites")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--count", type=int, default=100)
    p_ver.set_defaults(fn=cmd_verify_identities)

    p_conv = sub.add_parser("convergence",
                            help="eigenvalue convergence table and plot")
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", default=None,
                        help="a..b range or comma list")
    p_conv.add_argument("--out", default="out")
    p_conv.set_defaults(fn=cmd_convergence)

    p_bal = sub.add_parser("balance", help="balance an OFF vertex measure")
    p_bal.add_argument("mesh")
    p_bal.add_argument("--ambient", default="sphere",
                       choices=("euclidean", "sphere", "hyperbolic"))
    p_bal.add_argument("--tol", type=float, default=1e-8)
    p_bal.add_argument("--out", default=None)
    p_bal.set_defaults(fn=cmd_balance)

    p_gal = sub.add_parser("gallery", help="list or export gallery items")
    p_gal.add_argument("name", nargs="?", default=None)
    p_gal.add_argument("--list", action="store_true")
    p_gal.add_argument("--params", default=None,
                       help="JSON object of gallery parameters")
    p_gal.add_argument("--level", type=int, default=3)
    p_gal.add_argument("--off", default=None,
                       help="write the immersed mesh to this OFF file")
    p_gal.set_defaults(fn=cmd_gallery)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except ReillyLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
