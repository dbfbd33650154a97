"""Reports: both sides of the bound, diagnostics, serialization."""

import io
import json
import math
from functools import partial

import numpy as np
import pytest

from reillylab.errors import (ArgumentError, InequalityViolation,
                              TopologyError, UnsupportedConfiguration)
from reillylab.gallery import (clifford_torus, ellipsoid, flat_torus, gallery,
                               hyperbolic_geodesic_sphere, list_gallery,
                               product_spheres, ring_torus, sphere,
                               veronese_rp2)
from reillylab.immersion import AmbientSpace
from reillylab.mesh import Mesh, icosphere
from reillylab.moebius import ConformalChain, MoebiusParam
from reillylab.reports import (OperatorSpec, _radius_estimate, check_inequality,
                               closed_form_report, fem_report,
                               mean_tensor_report, mesh_for,
                               operator_from_label, reports_json,
                               t_minimality, write_report_csv)


class TestOperatorSpec:
    def test_labels(self):
        assert OperatorSpec().label == "identity"
        assert OperatorSpec(kind="newton", degree=2).label == "newton:2"
        assert operator_from_label("newton:2").degree == 2
        assert operator_from_label("mean_curvature").kind == "mean_curvature"

    def test_validation(self):
        with pytest.raises(ArgumentError):
            OperatorSpec(kind="frobnicate")
        with pytest.raises(ArgumentError):
            OperatorSpec(kind="newton", degree=-1)
        with pytest.raises(ArgumentError):
            OperatorSpec(kind="custom")

    def test_newton_rank_rules(self):
        fr4 = clifford_torus().frame_at(clifford_torus().domain.random_point(
            np.random.default_rng(0)))
        T = OperatorSpec(kind="newton", degree=2).tensors(fr4)
        assert T.shape == (4, 4)
        with pytest.raises(UnsupportedConfiguration):
            OperatorSpec(kind="newton", degree=1).tensors(fr4)
        with pytest.raises(ArgumentError):
            OperatorSpec(kind="newton", degree=4).tensors(fr4)


class TestRhsIntegral:
    def test_unit_sphere_quadrature_exact(self):
        from reillylab.reports import _sample_pass
        imm = sphere(2, 1.0, 1, 0.0)
        assert abs(fem_report(imm, OperatorSpec(), level=2).rhs - 2.0) < 1e-12
        frames = imm.frame_at(icosphere(2).points)
        vals = _sample_pass(frames, OperatorSpec().tensors(frames), 0.0)[0]
        assert np.std(vals) < 1e-12

    def test_sampled_homogeneous(self):
        from reillylab.reports import _sample_frames, _sample_pass
        spec = OperatorSpec(kind="newton", degree=2)
        rep = closed_form_report(clifford_torus(), spec)
        assert abs(rep.rhs - 8.0) < 1e-9
        frames = _sample_frames(clifford_torus(), 32, 0)
        vals = _sample_pass(frames, spec.tensors(frames), 0.0)[0]
        assert np.std(vals) < 1e-9


@pytest.mark.parametrize("kind", ["fem", "closed_form", "mean_tensor"])
def test_every_kind_carries_trT_and_radius(kind, monkeypatch):
    from reillylab import reports
    make = {"fem": lambda: fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(),
                                      level=2),
            "closed_form": lambda: closed_form_report(
                clifford_torus(), OperatorSpec(kind="newton", degree=2)),
            "mean_tensor": lambda: mean_tensor_report(sphere(4, 0.8, 2, 0.0))}
    rep = make[kind]()
    for key in ("trT_mean", "trT_stddev", "radius_estimate"):
        assert key in rep.equality
    assert rep.equality["trT_stddev"] < 1e-10
    assert rep.equality["radius_estimate"] > 0
    # the radius notes reach the report of every kind
    monkeypatch.setattr(reports, "_radius_estimate",
                        lambda trT_mean, lam2, space: (None, ["radius probe"]))
    rep = make[kind]()
    assert rep.equality["radius_estimate"] is None
    assert rep.notes == ["radius probe"]


class TestFemReports:
    def test_unit_sphere_equality(self):
        rep = fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=3)
        assert abs(rep.lambda2 - 2.0) < 0.02 * 2.0
        assert abs(rep.rhs - 2.0) < 1e-10
        assert rep.passed and rep.asserted
        assert abs(rep.equality["radius_estimate"] - 1.0) < 0.01
        assert rep.equality["trT_stddev"] < 1e-12
        assert rep.equality["Tminimal_residual"] < 1e-10
        assert rep.backend == "fem-block"

    def test_hyperbolic_sphere_equality(self):
        rep = fem_report(hyperbolic_geodesic_sphere(1.0), OperatorSpec(), level=3)
        exact = 2.0 / math.sinh(1.0) ** 2
        assert abs(rep.rhs - exact) < 1e-10
        assert abs(rep.lambda2 - exact) < 0.02 * exact
        assert abs(rep.equality["radius_estimate"] - 1.0) < 0.01

    def test_ellipsoid_strict(self):
        rep = fem_report(ellipsoid(), OperatorSpec(), level=3)
        assert rep.gap > 0.1
        assert rep.equality["Tminimal_residual"] > 0.05

    def test_ring_torus_strict(self):
        rep = fem_report(ring_torus(), OperatorSpec(), level=3)
        assert rep.gap > 0.0

    def test_tolerance_violation_raises(self):
        with pytest.raises(InequalityViolation):
            fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=2,
                       tol=-0.5)

    def test_failed_precondition_flags_instead_of_asserting(self):
        # T' = trT I - 2T has a negative eigenvalue for diag(3, 1)
        spec = OperatorSpec(kind="custom",
                            tensor_fn=lambda fr: np.diag([3.0, 1.0]))
        rep = fem_report(sphere(2, 1.0, 1, 0.0), spec, level=2)
        assert not rep.asserted
        assert rep.preconditions["Tprime_min"] < 0
        assert any("not asserted" in note for note in rep.notes)

    def test_scale_covariance(self):
        r1 = fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=3)
        r2 = fem_report(sphere(2, 2.0, 1, 0.0), OperatorSpec(), level=3)
        assert r2.lambda2 == pytest.approx(r1.lambda2 / 4.0, rel=1e-10)
        assert r2.rhs == pytest.approx(r1.rhs / 4.0, rel=1e-10)
        assert (r1.gap >= 0) == (r2.gap >= 0)

    def test_alignment_with_balancing_chain(self):
        centered = ConformalChain(0.0, MoebiusParam(np.zeros(4)), 3)
        rep = fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=2,
                         chain=centered)
        assert rep.equality["HT_alignment_residual"] < 1e-10
        # a round sphere stays aligned under every Moebius parameter (its
        # image is again a round sphere), so shifting the parameter keeps
        # the residual at machine scale
        shifted = ConformalChain(0.0, MoebiusParam(
            np.array([0.4, 0.0, 0.0, 0.0])), 3)
        rep = fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=2,
                         chain=shifted)
        assert rep.equality["HT_alignment_residual"] < 1e-10
        # the ellipsoid is no equality case: alignment visibly fails
        rep = fem_report(ellipsoid(), OperatorSpec(), level=2, chain=centered)
        assert rep.equality["HT_alignment_residual"] > 1e-3


class TestTMinimality:
    def test_takahashi_refines_on_equality_case(self):
        vals = [t_minimality(veronese_rp2(), OperatorSpec(), level=lvl,
                             cprime=3.0)["takahashi_residual"]
                for lvl in (2, 3)]
        assert vals[0] / vals[1] >= 3.0

    def test_totally_geodesic_equator(self):
        coarse = t_minimality(sphere(2, 1.0, 1, 1.0), OperatorSpec(), level=2,
                              cprime=1.0)
        fine = t_minimality(sphere(2, 1.0, 1, 1.0), OperatorSpec(), level=3,
                            cprime=1.0)
        assert coarse["HT_max"] < 1e-10
        assert coarse["Tminimal_residual"] < 1e-10
        assert coarse["takahashi_residual"] / fine["takahashi_residual"] >= 3.0

    def test_matches_fem_report(self):
        imm = ellipsoid()
        spec = OperatorSpec(kind="newton", degree=0)
        mesh = mesh_for(imm, 2)
        rep = fem_report(imm, spec, mesh=mesh)
        diag = t_minimality(imm, spec, mesh=mesh,
                            cprime=rep.lambda2 / rep.equality["trT_mean"])
        for key in ("Tminimal_residual", "takahashi_residual"):
            assert diag[key] == rep.equality[key]


def disjoint_icospheres(copies):
    """`copies` icosphere(1) meshes side by side, sharing no vertex."""
    base = icosphere(1)
    shift = base.vertex_count * np.arange(copies)[:, None, None]
    return Mesh(np.tile(base.points, (copies, 1)),
                (base.triangles + shift).reshape(-1, 3))


@pytest.mark.parametrize("entry", [fem_report,
                                   partial(t_minimality, cprime=1.0)],
                         ids=["fem_report", "t_minimality"])
def test_disconnected_mesh_is_refused(entry):
    with pytest.raises(TopologyError, match="4 connected components"):
        entry(sphere(2, 1.0, 1, 0.0), OperatorSpec(),
              mesh=disjoint_icospheres(4))


@pytest.mark.parametrize("entry", [fem_report,
                                   partial(t_minimality, cprime=1.0)],
                         ids=["fem_report", "t_minimality"])
def test_open_mesh_is_refused(entry):
    """An icosphere with the cap around one vertex removed is open: its
    boundary edges lie in one triangle each."""
    base = icosphere(3)
    open_mesh = Mesh(base.points,
                     base.triangles[~np.any(base.triangles == 0, axis=1)])
    with pytest.raises(TopologyError, match="lies in 1 triangles"):
        entry(sphere(2, 1.0, 1, 0.0), OperatorSpec(), mesh=open_mesh)


class TestClosedFormReports:
    def test_clifford_newton2_equality(self):
        rep = closed_form_report(clifford_torus(),
                                 OperatorSpec(kind="newton", degree=2))
        assert rep.lambda2 == pytest.approx(8.0, abs=1e-9)
        assert rep.rhs == pytest.approx(8.0, abs=1e-9)
        assert abs(rep.gap) < 1e-9
        assert rep.backend == "product-exact"
        assert rep.equality["radius_estimate"] == pytest.approx(1.0, abs=1e-9)
        assert rep.preconditions["T_posdef_min"] > 1.9

    def test_product_spheres_newton2_any_radii(self):
        for a, b in ((1.0, 1.3), (0.7, 1.9), (1.2, 1.2)):
            rep = closed_form_report(product_spheres(a, b),
                                     OperatorSpec(kind="newton", degree=2))
            assert abs(rep.gap) < 1e-9 * max(1.0, rep.rhs)
            assert rep.equality["radius_estimate"] == pytest.approx(
                math.hypot(a, b), rel=1e-9)

    def test_curvature_one_radius(self):
        rep = closed_form_report(sphere(2, 0.8, 1, 1.0), OperatorSpec())
        assert rep.equality["radius_estimate"] == math.asin(0.8)
        radius, notes = _radius_estimate(2.0, 1.0, AmbientSpace(1.0, 3))
        assert radius is None
        assert len(notes) == 1 and "exceeds 1" in notes[0]

    def test_mean_curvature_sphere(self):
        # (n - 1) k n / a^2 with n = 4, a = 0.8, k = 1 / a
        rep = closed_form_report(sphere(4, 0.8, 1, 0.0),
                                 OperatorSpec(kind="mean_curvature"))
        assert rep.lambda2 == pytest.approx(23.4375, abs=1e-9)
        assert rep.rhs == pytest.approx(23.4375, abs=1e-9)
        assert rep.equality["radius_estimate"] == pytest.approx(0.8, rel=1e-12)

    def test_missing_backend_rejected(self):
        with pytest.raises(UnsupportedConfiguration):
            closed_form_report(ellipsoid(), OperatorSpec())

    @pytest.mark.parametrize("entry", [closed_form_report, check_inequality])
    def test_potential_refused(self, entry):
        # a closed-form lambda_2 is that of L_T alone; it used to drop the
        # potential and report lambda_2 = rhs = 8 with qbar = 0
        spec = OperatorSpec(kind="newton", degree=2, potential=lambda fr: 5.0)
        with pytest.raises(UnsupportedConfiguration, match="potential"):
            entry(clifford_torus(), spec)

    def test_dispatch_by_dimension(self):
        rep = check_inequality(clifford_torus(),
                               OperatorSpec(kind="newton", degree=2))
        assert rep.backend == "product-exact"
        rep = check_inequality(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=2)
        assert rep.backend.startswith("fem")
        rep = check_inequality(sphere(4, 0.8, 2, 0.0),
                               OperatorSpec(kind="mean_curvature"))
        assert rep.backend == "sphere-exact"
        assert "decomposition_agreement" in rep.equality


EQUALITY_RECORDS = [(name, label) for name in list_gallery()
                    for label, rec in sorted(gallery(name).reference.items())
                    if rec.equality and rec.radius is not None]


@pytest.mark.parametrize("name,label", EQUALITY_RECORDS)
def test_equality_record_radius_is_recovered(name, label):
    # a closed form recovers the record's radius to rounding, a level-4
    # mesh to its discretization error
    imm = gallery(name)
    rep = check_inequality(imm, operator_from_label(label), level=4)
    tol = 1e-2 if rep.backend == "fem-block" else 1e-12
    assert rep.equality["radius_estimate"] == pytest.approx(
        imm.reference[label].radius, rel=tol)


class TestMeanTensorReports:
    def test_sphere_equality_exact(self):
        rep = mean_tensor_report(sphere(4, 0.8, 2, 0.0))
        assert abs(rep.gap) <= 1e-9 * rep.rhs
        assert rep.equality["decomposition_agreement"] < 1e-10
        assert rep.equality["radius_estimate"] == pytest.approx(0.8, rel=1e-9)
        assert rep.backend == "sphere-exact"

    def test_product_strict(self):
        rep = mean_tensor_report(product_spheres(1.0, 1.3))
        assert rep.gap > 0.1
        assert rep.equality["H2_min"] > 0
        assert rep.equality["decomposition_agreement"] < 1e-10

    def test_equal_radii_product_is_equality(self):
        rep = mean_tensor_report(product_spheres(1.0, 1.0))
        assert abs(rep.gap) <= 1e-9 * rep.rhs

    def test_one_tensor_per_sample(self, monkeypatch):
        from reillylab import reports
        calls = []
        original = reports.mean_curvature_tensor

        def counted(h):
            calls.append(1)
            return original(h)
        monkeypatch.setattr(reports, "mean_curvature_tensor", counted)
        mean_tensor_report(sphere(4, 0.8, 2, 0.0))
        assert len(calls) == 1

    def test_sample_count_must_be_positive(self):
        with pytest.raises(ArgumentError, match="at least one sample"):
            closed_form_report(clifford_torus(), OperatorSpec(kind="newton", degree=2),
                               samples=0)
        with pytest.raises(ArgumentError, match="at least one sample"):
            mean_tensor_report(sphere(4, 0.8, 2, 0.0), samples=0)

    def test_dimension_guards(self):
        with pytest.raises(UnsupportedConfiguration):
            mean_tensor_report(sphere(2, 1.0, 2, 0.0))
        with pytest.raises(UnsupportedConfiguration):
            mean_tensor_report(sphere(4, 0.8, 1, 0.0))

    def test_potential_refused_before_dispatch(self):
        spec = OperatorSpec(kind="mean_curvature",
                            potential=lambda fr: fr.point[..., 0])
        with pytest.raises(UnsupportedConfiguration, match="potential"):
            check_inequality(sphere(4, 0.8, 2, 0.0), spec)

    def test_backend_required(self):
        # the flat-ambient Clifford torus passes the H2 > 0 hypothesis but
        # carries no closed-form spectral record for this operator
        with pytest.raises(UnsupportedConfiguration, match="backend"):
            mean_tensor_report(clifford_torus())


class TestSchrodinger:
    def test_constant_potential_shifts_equality(self):
        rep = fem_report(sphere(2, 1.0, 1, 0.0),
                         OperatorSpec(potential=lambda fr: 3.0), level=3)
        assert abs(rep.lambda2 - 5.0) < 0.02 * 5.0
        assert rep.qbar == pytest.approx(3.0, abs=1e-12)
        assert rep.rhs == pytest.approx(5.0, abs=1e-10)
        assert rep.equality["potential_constancy_stddev"] < 1e-10

    def test_negative_potential_on_arpack_mesh(self):
        # level 4 takes the shift-invert path; a shift above the potential's
        # minimum makes it return other eigenvalues and a false violation
        rep = fem_report(sphere(2, 1.0, 1, 0.0),
                         OperatorSpec(potential=lambda fr: -1000.0), level=4)
        assert rep.backend == "fem-block"
        assert rep.asserted and rep.passed
        assert rep.lambda2 == pytest.approx(-997.99711, abs=1e-5)
        assert rep.rhs == pytest.approx(-998.0, abs=1e-10)

    def test_nonconstant_potential_strict(self):
        rep = fem_report(
            sphere(2, 1.0, 1, 0.0),
            OperatorSpec(potential=lambda fr: 3.0 * fr.point[..., 0]), level=3)
        assert rep.gap > 0.3
        assert rep.equality["potential_constancy_stddev"] > 1.0

    def test_potential_evaluated_once_per_vertex(self):
        calls = []

        def potential(fr):
            calls.append(fr.point.shape[:-1])
            return 3.0 * fr.point[..., 0]

        rep = fem_report(sphere(2, 1.0, 1, 0.0),
                         OperatorSpec(potential=potential), level=2)
        # one call, on the batch of all vertex frames
        assert calls == [(mesh_for(sphere(2, 1.0, 1, 0.0), 2).vertex_count,)]
        assert rep.qbar == pytest.approx(0.0, abs=1e-12)

    def test_zero_potential_reduces_to_plain(self):
        base = fem_report(flat_torus(), OperatorSpec(), level=3)
        shifted = fem_report(flat_torus(),
                             OperatorSpec(potential=lambda fr: 0.0), level=3)
        assert shifted.lambda2 == pytest.approx(base.lambda2, rel=1e-12)
        assert shifted.rhs == pytest.approx(base.rhs, rel=1e-12)

    def test_undefined_radius_is_noted(self):
        rep = fem_report(
            sphere(2, 1.0, 1, 0.0),
            OperatorSpec(potential=lambda fr: 40 * fr.point[..., 2]), level=2)
        assert rep.equality["radius_estimate"] is None
        assert any("radius estimate undefined" in note for note in rep.notes)


class TestSerialization:
    def test_csv_layout(self):
        import csv as csvmod
        rep = closed_form_report(clifford_torus(),
                                 OperatorSpec(kind="newton", degree=2))
        buf = io.StringIO()
        text = write_report_csv([rep], buf)
        rows = list(csvmod.reader(io.StringIO(text)))
        assert rows[0] == ["name", "c", "operator", "lambda2", "rhs", "gap",
                           "trT_min", "Tprime_min", "radius", "backend"]
        cells = rows[1]
        assert cells[0].startswith("clifford_torus")
        assert cells[2] == "newton:2"
        assert float(cells[3]) == pytest.approx(8.0, abs=1e-9)
        assert cells[-1] == "product-exact"
        assert buf.getvalue() == text

    def test_json_document(self):
        rep = fem_report(sphere(2, 1.0, 1, 0.0), OperatorSpec(), level=2)
        doc = json.loads(reports_json([rep]))
        assert doc[0]["operator"] == "identity"
        assert doc[0]["passed"] is True
        assert "takahashi_residual" in doc[0]["equality"]

    def test_mesh_for_families(self):
        assert mesh_for(flat_torus(), 2).topology == "torus"
        assert mesh_for(veronese_rp2(), 2).topology == "projective_plane"
        assert mesh_for(ellipsoid(), 2).topology == "sphere"
        with pytest.raises(UnsupportedConfiguration):
            mesh_for(clifford_torus(), 2)
