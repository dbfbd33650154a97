"""The package's public namespace and its import cost."""

import os
import subprocess
import sys
from pathlib import Path

import reillylab


def test_public_names_resolve():
    missing = [name for name in reillylab.__all__
               if not hasattr(reillylab, name)]
    assert missing == []


def test_cli_import_leaves_scipy_unloaded():
    # `reillylab balance` needs no scipy; its process should not pay for
    # importing it
    src = str(Path(reillylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, reillylab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_source_module_uses_scipy_optimize():
    # the sampling oracle of the tilted-sum minimum, its one user, lives
    # with the tests
    package = Path(reillylab.__file__).resolve().parent
    users = [path.name for path in sorted(package.glob("*.py"))
             if "scipy.optimize" in path.read_text()]
    assert users == []


def test_test_oracles_and_helpers_are_not_in_the_package():
    from reillylab import curvature, secondform, spectra
    gone = {reillylab: ["tilted_sum_minimum_sampled"],
            reillylab.ellipticity: ["tilted_sum_minimum_sampled"],
            curvature: ["curvature_from_tensor", "contraction_lhs",
                        "_SYMMETRIES"],
            curvature.CurvatureData: ["sectional"],
            secondform.SecondFundamentalForm: ["from_principal"],
            spectra.SpectrumResult: ["multiplicity_of"],
            spectra: ["_MULT_REL_TOL"]}
    left = [(getattr(owner, "__name__", owner), name)
            for owner, names in gone.items() for name in names
            if hasattr(owner, name)]
    assert left == []
    assert "tilted_sum_minimum_sampled" not in reillylab.__all__


def test_duplicate_report_paths_stay_gone():
    # fem_report and closed_form_report already compute the right side
    # and take a potential; the convergence table fixes its own tolerance
    import inspect

    from reillylab import cli, reports
    from reillylab.gallery import ReferenceRecord
    for name in ("rhs_integral", "schrodinger_report"):
        assert not hasattr(reillylab, name)
        assert not hasattr(reports, name)
        assert name not in reillylab.__all__
    # a field without a default is no class attribute, so read the fields
    assert "operator" not in ReferenceRecord.__dataclass_fields__
    assert "tol" not in inspect.signature(cli.convergence_rows).parameters
    # t_minimality solves nothing: its c' is stated, not read off lambda_2
    assert inspect.signature(reports.t_minimality).parameters[
        "cprime"].default is inspect.Parameter.empty


def test_unused_helpers_stay_gone():
    # the hyperboloid chart's own jets are what the conformal chain
    # composes; the radius rule lives on AmbientSpace; the plot draws the
    # one series the convergence artifact passes
    import inspect

    from reillylab import cli, gallery, moebius, svgplot
    gone = {moebius: ["ball_to_hyperboloid_jacobian",
                      "ball_to_hyperboloid_hessian"],
            gallery: ["_geodesic_radius"],
            cli: ["write_convergence_csv"]}
    left = [(owner.__name__, name) for owner, names in gone.items()
            for name in names if hasattr(owner, name)]
    assert left == []
    assert "series" not in inspect.signature(svgplot.line_plot).parameters
