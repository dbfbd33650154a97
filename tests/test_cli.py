"""End-to-end exercises of the command line front end.

Everything drives cli.main() in process so exit codes and artifacts can
be checked without spawning interpreters.
"""

import csv
import json
import os

import numpy as np
import pytest

import reillylab
from reillylab import cli
from reillylab.cli import (_parse_levels, identity_table, load_scenarios,
                           main)
from reillylab.errors import ArgumentError, ConfigError
from reillylab.gallery import gallery
from reillylab.mesh import icosphere, load_off, save_off
from reillylab.reports import fem_report

NAN, INF = float("nan"), float("inf")
BUNDLED = os.path.join(os.path.dirname(reillylab.__file__), "configs",
                       "equality_cases.json")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sphere_scenario(**extra):
    sc = {
        "name": "round_sphere",
        "geometry": {"gallery": "sphere",
                     "params": {"n": 2, "a": 1.0, "codim": 1, "c": 0.0}},
        "operator": "identity",
        "level": 3,
    }
    sc.update(extra)
    return sc


class TestLoadScenarios:
    def test_bundled_config(self):
        scenarios = load_scenarios(BUNDLED)
        assert len(scenarios) == 5
        names = [sc["name"] for sc in scenarios]
        assert len(set(names)) == 5
        assert "round_sphere" in names

    def test_duplicate_names_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario(),
                                                    sphere_scenario()]})
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenarios(cfg)

    def test_missing_name_rejected(self, tmp_path):
        sc = sphere_scenario()
        del sc["name"]
        cfg = write_config(tmp_path, {"scenarios": [sc]})
        with pytest.raises(ConfigError, match="name"):
            load_scenarios(cfg)

    def test_levels_must_increase(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"scenarios": [sphere_scenario(levels=[4, 3])]})
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_scenarios(cfg)

    def test_unknown_output_rejected(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"scenarios": [sphere_scenario(outputs=["pdf"])]})
        with pytest.raises(ConfigError, match="unknown outputs"):
            load_scenarios(cfg)

    def test_unknown_operator_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, {"scenarios": [sphere_scenario(operator="laplace")]})
        with pytest.raises(ConfigError, match="operator"):
            load_scenarios(cfg)

    def test_unknown_potential_rejected(self, tmp_path):
        sc = sphere_scenario(
            operator={"kind": "identity",
                      "potential": {"kind": "white-noise"}})
        cfg = write_config(tmp_path, {"scenarios": [sc]})
        with pytest.raises(ConfigError, match="potential"):
            load_scenarios(cfg)

    @pytest.mark.parametrize("extra", [
        {"operator": "newton:x"},
        {"operator": {"kind": "newton", "degree": "two"}},
        {"operator": {"kind": "newton", "degree": -1}},
        {"operator": ["identity"]},
        {"operator": {"kind": "identity", "potential": 3}},
        {"level": "four"},
        {"level": -1},
        {"levels": [-1, 2]},
        {"count": "x"},
        {"operator": {"kind": "identity",
                      "potential": {"kind": "coordinate", "axis": 3}}},
        {"count": -5},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"geometry": {"gallery": "clifford_torus"},
         "operator": {"kind": "newton", "degree": 2,
                      "potential": {"kind": "constant", "value": 5}}},
        {"geometry": {"gallery": "sphere",
                      "params": {"n": 4, "a": 0.8, "codim": 2}},
         "operator": {"kind": "mean_curvature",
                      "potential": {"kind": "coordinate", "axis": 0}}},
    ])
    def test_malformed_field_is_config_error(self, tmp_path, extra):
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario(**extra)]})
        with pytest.raises(ConfigError, match="round_sphere"):
            load_scenarios(cfg)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("extra", [
        {"geometry": {"gallery": "sphere", "params": {"a": NAN}}},
        {"geometry": {"gallery": "ellipsoid",
                      "params": {"axes": [1.0, NAN, 1.3]}}},
        {"geometry": {"gallery": "hyperbolic_geodesic_sphere",
                      "params": {"r": NAN}}},
        {"geometry": {"gallery": "flat_torus", "params": {"r1": NAN}}},
        {"geometry": {"gallery": "flat_torus", "params": {"r2": -INF}}},
        {"geometry": {"gallery": "product_spheres", "params": {"a": NAN}}},
        {"operator": {"kind": "identity",
                      "potential": {"kind": "constant", "value": NAN}}},
        {"operator": {"kind": "identity",
                      "potential": {"kind": "coordinate", "scale": INF}}},
    ], ids=["sphere-a", "ellipsoid-axes", "hyperbolic-r", "flat-torus-r1",
            "flat-torus-r2", "product-a", "potential-value", "potential-scale"])
    def test_nonfinite_number_is_config_error(self, tmp_path, capsys, extra):
        # json reads NaN and Infinity, which pass a "<= 0" check
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario(**extra)]})
        with pytest.raises(ConfigError,
                           match="round_sphere.*is not a finite number"):
            load_scenarios(cfg)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        if "geometry" in extra:
            name, params = extra["geometry"]["gallery"], extra["geometry"]["params"]
            assert main(["gallery", name, "--params", json.dumps(params)]) == 1
            assert "not a finite number" in capsys.readouterr().err
            with pytest.raises(ArgumentError, match="positive"):
                gallery(name, **params)

    @pytest.mark.parametrize("extra", [
        {"outputs": None},
        {"outputs": 5},
        {"outputs": "report"},
        {"levels": "12"},
    ], ids=["outputs-null", "outputs-number", "outputs-string",
            "levels-string"])
    def test_list_field_must_be_a_list(self, tmp_path, extra):
        # no traceback, and no string read as the list of its characters
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario(**extra)]})
        with pytest.raises(ConfigError, match=r"round_sphere.*must be a list"):
            load_scenarios(cfg)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_empty_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": []})
        with pytest.raises(ConfigError, match="nonempty"):
            load_scenarios(cfg)


class TestRunCommand:
    def test_bundled_equality_cases_pass(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", BUNDLED, "--out", out]) == 0
        for sc in load_scenarios(BUNDLED):
            d = os.path.join(out, sc["name"])
            assert os.path.isfile(os.path.join(d, "report.csv"))
            doc = json.load(open(os.path.join(d, "report.json")))
            rep = doc[0]
            # equality cases close the bound to within the report tolerance
            scale = max(1.0, abs(rep["rhs"]))
            assert rep["rhs"] - rep["lambda2"] >= -rep["tolerance"] * scale

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario()]})
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", cfg, "--out", out1]) == 0
        assert main(["run", cfg, "--out", out2]) == 0
        for fname in ("report.csv", "report.json"):
            a = open(os.path.join(out1, "round_sphere", fname), "rb").read()
            b = open(os.path.join(out2, "round_sphere", fname), "rb").read()
            assert a == b

    def test_malformed_json_exit_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{scenarios: oops")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_unknown_gallery_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [
            {"name": "x", "geometry": {"gallery": "klein_bottle"}}]})
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_bad_gallery_parameter_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [
            {"name": "x", "geometry": {"gallery": "clifford_torus",
                                       "params": {"a": 1.5}}}]})
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_negative_tolerance_exit_two(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"scenarios": [sphere_scenario(tol=-0.5)]})
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_tol_flag_overrides_scenario(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario()]})
        out = str(tmp_path / "o")
        assert main(["run", cfg, "--out", out, "--tol", "-0.5"]) == 2

    def test_identities_output(self, tmp_path):
        sc = sphere_scenario(outputs=["identities"], count=10)
        cfg = write_config(tmp_path, {"scenarios": [sc]})
        out = str(tmp_path / "o")
        assert main(["run", cfg, "--out", out]) == 0
        rows = list(csv.reader(
            open(os.path.join(out, "round_sphere", "identities.csv"))))
        assert rows[0] == ["identity", "max_residual"]
        assert all(float(r[1]) <= 1e-10 for r in rows[1:])

    def test_balance_output(self, tmp_path):
        sc = sphere_scenario(outputs=["balance"], level=2)
        cfg = write_config(tmp_path, {"scenarios": [sc]})
        out = str(tmp_path / "o")
        assert main(["run", cfg, "--out", out]) == 0
        rows = list(csv.reader(
            open(os.path.join(out, "round_sphere", "balance.csv"))))
        assert rows[0] == ["iteration", "residual", "gnorm", "step"]


    # solved levels by vertex count: 162 at level 2, 642 at level 3
    @pytest.mark.parametrize("flags,code,solved", [([], 0, [162]),
                                                   (["--tol", "-0.5"], 2, [162, 642])])
    def test_convergence_reads_the_report_level(self, tmp_path, monkeypatch,
                                                flags, code, solved):
        """run solves the report's level once when its report succeeded;
        its convergence.csv is the one `convergence` writes by solving
        every level."""
        sc = sphere_scenario(outputs=["report", "convergence"], levels=[2, 3])
        cfg = write_config(tmp_path, {"scenarios": [sc]})
        calls = []

        def counted(immersion, spec, mesh, **kw):
            calls.append(mesh.vertex_count)
            return fem_report(immersion, spec, mesh=mesh, **kw)
        monkeypatch.setattr(cli, "fem_report", counted)
        out = str(tmp_path / "run")
        assert main(["run", cfg, "--out", out] + flags) == code
        assert calls == solved
        calls.clear()
        assert main(["convergence", cfg, "--levels", "2,3",
                     "--out", str(tmp_path / "conv")]) == 0
        assert calls == [162, 642]
        name = os.path.join("round_sphere", "convergence.csv")
        assert (open(os.path.join(out, name), "rb").read()
                == open(os.path.join(tmp_path, "conv", name), "rb").read())


class TestVerifyIdentities:
    def test_all_pass(self, capsys):
        assert main(["verify-identities", "--count", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split()[:2] == ["identity", "max_residual"]
        assert len(lines) > 10
        assert all(line.endswith("pass") for line in lines[1:])

    def test_count_zero_header_only(self, capsys):
        assert main(["verify-identities", "--count", "0"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1

    def test_rerun_identical(self, capsys):
        main(["verify-identities", "--count", "3", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify-identities", "--count", "3", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_seed_env_variable(self, monkeypatch):
        rows_flag = identity_table(3, 11)
        monkeypatch.setenv("REILLY_LAB_SEED", "11")
        from reillylab.cli import default_seed
        assert default_seed() == 11
        rows_env = identity_table(3, default_seed())
        assert [r[0] for r in rows_env] == [r[0] for r in rows_flag]
        assert np.allclose([r[1] for r in rows_env],
                           [r[1] for r in rows_flag])


class TestConvergence:
    def test_sphere_levels(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario()]})
        out = str(tmp_path / "o")
        assert main(["convergence", cfg, "--levels", "2..4",
                     "--out", out]) == 0
        d = os.path.join(out, "round_sphere")
        rows = list(csv.reader(open(os.path.join(d, "convergence.csv"))))
        assert rows[0] == ["level", "vertices", "lambda2", "rhs", "gap"]
        assert [int(r[0]) for r in rows[1:]] == [2, 3, 4]
        assert os.path.isfile(os.path.join(d, "plot.svg"))
        # quadratic eigenvalue convergence for P1 elements
        from reillylab.svgplot import fit_loglog_slope
        hs = [1.0 / np.sqrt(int(r[1])) for r in rows[1:]]
        errs = [abs(float(r[2]) - 2.0) for r in rows[1:]]
        assert fit_loglog_slope(hs, errs) >= 1.8

    def test_single_level_csv_only(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario()]})
        out = str(tmp_path / "o")
        assert main(["convergence", cfg, "--levels", "3", "--out", out]) == 0
        d = os.path.join(out, "round_sphere")
        assert os.path.isfile(os.path.join(d, "convergence.csv"))
        assert not os.path.exists(os.path.join(d, "plot.svg"))

    def test_decreasing_levels_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [sphere_scenario()]})
        assert main(["convergence", cfg, "--levels", "4,3",
                     "--out", str(tmp_path / "o")]) == 1

    def test_higher_dimension_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [
            {"name": "cliff", "geometry": {"gallery": "clifford_torus"},
             "operator": {"kind": "newton", "degree": 2}}]})
        assert main(["convergence", cfg, "--levels", "2..3",
                     "--out", str(tmp_path / "o")]) == 1

    def test_parse_levels(self):
        assert _parse_levels("2..5") == [2, 3, 4, 5]
        assert _parse_levels("3,5,7") == [3, 5, 7]
        with pytest.raises(ConfigError):
            _parse_levels("5..2")
        with pytest.raises(ConfigError, match="nonnegative"):
            _parse_levels("-1..2")


class TestBalance:
    def test_sphere_mesh(self, tmp_path, capsys):
        mesh = icosphere(2)
        path = str(tmp_path / "sphere.off")
        save_off(path, mesh.points, mesh.triangles)
        out = str(tmp_path / "bal")
        assert main(["balance", path, "--ambient", "sphere",
                     "--out", out]) == 0
        assert "converged True" in capsys.readouterr().out
        rows = list(csv.reader(open(os.path.join(out, "balance.csv"))))
        assert rows[0] == ["iteration", "residual", "gnorm", "step"]

    def test_euclidean_normalizes(self, tmp_path, capsys):
        mesh = icosphere(2)
        path = str(tmp_path / "scaled.off")
        save_off(path, 2.5 * mesh.points, mesh.triangles)
        assert main(["balance", path, "--ambient", "euclidean"]) == 0
        assert "converged True" in capsys.readouterr().out

    def test_sphere_rejects_off_sphere_points(self, tmp_path):
        mesh = icosphere(2)
        path = str(tmp_path / "scaled.off")
        save_off(path, 2.5 * mesh.points, mesh.triangles)
        assert main(["balance", path, "--ambient", "sphere"]) == 1

    def test_hyperbolic_mesh(self, tmp_path, capsys):
        # geodesic sphere of radius 1 on the hyperboloid sheet
        mesh = icosphere(2)
        pts = np.hstack([np.sinh(1.0) * mesh.points,
                         np.full((mesh.vertex_count, 1), np.cosh(1.0))])
        path = str(tmp_path / "hyp.off")
        save_off(path, pts, mesh.triangles)
        assert main(["balance", path, "--ambient", "hyperbolic"]) == 0
        assert "converged True" in capsys.readouterr().out

    def test_hyperbolic_rejects_bad_sheet(self, tmp_path):
        mesh = icosphere(2)
        path = str(tmp_path / "flat.off")
        save_off(path, mesh.points, mesh.triangles)
        assert main(["balance", path, "--ambient", "hyperbolic"]) == 1


class TestGallery:
    def test_list(self, capsys):
        assert main(["gallery", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "sphere" in names and "veronese_rp2" in names
        assert len(names) == 8

    def test_export_off(self, tmp_path, capsys):
        path = str(tmp_path / "ell.off")
        assert main(["gallery", "ellipsoid", "--off", path,
                     "--level", "2"]) == 0
        points, tris = load_off(path)
        assert points.shape == (162, 3)
        assert tris.shape[0] == 320

    def test_export_noff_higher_ambient(self, tmp_path, capsys):
        # curved-ambient positions have four coordinates, so the nOFF
        # dialect is used
        path = str(tmp_path / "hyp.off")
        assert main(["gallery", "hyperbolic_geodesic_sphere",
                     "--off", path, "--level", "2"]) == 0
        points, _ = load_off(path)
        assert points.shape == (162, 4)
        assert open(path).readline().strip() == "nOFF"

    def test_unknown_name_exit_one(self, capsys):
        assert main(["gallery", "mystery_surface"]) == 1

    def test_reference_summary(self, capsys):
        assert main(["gallery", "clifford_torus"]) == 0
        out = capsys.readouterr().out
        assert "newton:2" in out and "equality=True" in out


@pytest.mark.parametrize("argv", [
    ["convergence", BUNDLED, "--levels", "2,x"],
    ["convergence", BUNDLED, "--levels=-1..2"],
    ["convergence", BUNDLED, "--levels=-1,2"],
    ["gallery", "sphere", "--params", "{bad"],
    ["balance", "TMP/missing.off"],
    ["balance", "TMP/truncated.off"],
    ["gallery", "sphere", "--off", "TMP/x.off", "--level", "-1"],
    ["balance", "TMP/empty.off", "--ambient", "euclidean"],
    ["balance", "TMP/empty.off", "--ambient", "sphere"],
    ["balance", "TMP/empty.off", "--ambient", "hyperbolic"],
    ["balance", "TMP/nan.off", "--ambient", "sphere"],
    ["balance", "TMP/inf.off", "--ambient", "euclidean"],
    ["balance", "TMP/badface.off", "--ambient", "sphere"],
    ["run", BUNDLED, "--tol", "nan"],
    ["run", BUNDLED, "--tol", "inf"],
    ["verify-identities", "--count", "-3"],
    ["balance", "TMP/octahedron.off", "--tol", "nan"],
    ["balance", "TMP/octahedron.off", "--tol=-1"],
    ["balance", "TMP/octahedron.off", "--tol", "0"],
    ["balance", "TMP/octahedron.off", "--tol", "inf"],
])
def test_bad_input_is_config_error(argv, tmp_path, capsys):
    (tmp_path / "truncated.off").write_text("OFF\n4 2 0\n0 0 1\n1 0 0\n")
    (tmp_path / "empty.off").write_text("OFF\n0 0 0\n")
    octahedron = "1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n"
    (tmp_path / "octahedron.off").write_text("OFF\n6 0 0\n" + octahedron)
    (tmp_path / "nan.off").write_text("OFF\n7 0 0\n" + octahedron + "nan 0 0\n")
    (tmp_path / "inf.off").write_text("OFF\n7 0 0\n" + octahedron + "inf 0 0\n")
    (tmp_path / "badface.off").write_text("OFF\n6 1 0\n" + octahedron + "3 0 1 7\n")
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    assert main(argv) == 1
    assert "configuration error" in capsys.readouterr().err
