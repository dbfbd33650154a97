"""Meshes, P1 assembly, and spectral extraction."""

import functools
import inspect
import math
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, strategies as st

from reillylab import reports, spectra
from reillylab.errors import (ArgumentError, ConvergenceError,
                              EllipticityError, TopologyError,
                              UnsupportedConfiguration)
from reillylab.fem import DiscreteGeometry, assemble_forms
from reillylab.gallery import (clifford_torus, ellipsoid, flat_torus,
                               hyperbolic_geodesic_sphere, ring_torus, sphere,
                               veronese_rp2)
from reillylab.mesh import (_ICO_FACES, _ICO_VERTS, Mesh, check_mesh, icosphere,
                            load_off, projective_icosphere, save_off,
                            torus_grid)
from reillylab.reports import OperatorSpec, mesh_for
from reillylab.spectra import (SpectrumResult, _dissection_order,
                               _shift_factor, product_spectrum, solve_pencil)


def multiplicity(res, value):
    """How many of a solve's values lie within 1e-3 relative of value."""
    vals = res.values
    ref = max(abs(value), 1e-30)
    return int(np.sum(np.abs(vals - value) <= 1e-3 * ref))


def diagonal(a, b):
    """Diagonal (..., 2, 2) weight matrices with entries a and b, which
    broadcast against each other."""
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape + (2, 2))
    out[..., 0, 0], out[..., 1, 1] = a, b
    return out


def icosphere_loop(level):
    """Reference: the per-face midpoint loop that `icosphere` vectorises."""
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(level):
        midpoint = {}

        def split(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        refined = []
        for a, b, c in faces:
            ab, bc, ca = split(a, b), split(b, c), split(c, a)
            refined += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = refined
    return np.array(verts), np.array(faces, dtype=int)


def projective_loop(level):
    """Reference: the antipode dictionary that `projective_icosphere`
    vectorises; returns (points, triangles)."""
    base = icosphere(level)
    keys = {tuple(np.round(v, 12)): idx for idx, v in enumerate(base.points)}
    rep = np.empty(base.vertex_count, dtype=int)
    kept, order = [], {}
    for idx, v in enumerate(base.points):
        pair = min(idx, keys[tuple(np.round(-v, 12))])
        if pair not in order:
            order[pair] = len(kept)
            kept.append(pair)
        rep[idx] = order[pair]
    seen = {}
    for t in rep[base.triangles]:
        seen.setdefault(tuple(sorted(t)), tuple(t))
    return base.points[kept], np.array(sorted(seen.values()), dtype=int)


def torus_loop(n1, n2):
    """Reference: the double loop that `torus_grid` vectorises."""
    t1 = 2.0 * np.pi * np.arange(n1) / n1
    t2 = 2.0 * np.pi * np.arange(n2) / n2
    pts = np.empty((n1 * n2, 4))
    tris = []
    for i in range(n1):
        for j in range(n2):
            pts[i * n2 + j] = (math.cos(t1[i]), math.sin(t1[i]),
                               math.cos(t2[j]), math.sin(t2[j]))
            v00 = i * n2 + j
            v10 = ((i + 1) % n1) * n2 + j
            v01 = i * n2 + (j + 1) % n2
            v11 = ((i + 1) % n1) * n2 + (j + 1) % n2
            tris += [(v00, v10, v11), (v00, v11, v01)]
    return pts, np.array(tris, dtype=int)


class TestMeshes:
    @pytest.mark.parametrize("level", range(6))
    def test_icosphere_equals_loop(self, level):
        points, triangles = icosphere_loop(level)
        m = icosphere(level)
        assert np.array_equal(m.points, points)
        assert np.array_equal(m.triangles, triangles)
        assert m.triangles.dtype == triangles.dtype

    @pytest.mark.parametrize("level", range(5))
    def test_projective_quotient_equals_loop(self, level):
        points, triangles = projective_loop(level)
        m = projective_icosphere(level)
        assert np.array_equal(m.points, points)
        assert np.array_equal(m.triangles, triangles)

    def test_icosphere_counts(self):
        for level in range(4):
            m = icosphere(level)
            assert m.vertex_count == 10 * 4**level + 2
            assert m.triangle_count == 20 * 4**level
            stats = check_mesh(m)
            assert stats["euler"] == 2
            assert np.allclose(np.linalg.norm(m.points, axis=1), 1.0)

    def test_torus_grid(self):
        m = torus_grid(8, 10)
        assert m.vertex_count == 80
        stats = check_mesh(m)
        assert stats["euler"] == 0 and stats["oriented"]

    @pytest.mark.parametrize("n1,n2", [(3, 3), (3, 5), (8, 10), (96, 96)])
    def test_torus_grid_equals_loop(self, n1, n2):
        points, triangles = torus_loop(n1, n2)
        m = torus_grid(n1, n2)
        assert np.array_equal(m.points, points)
        assert np.array_equal(m.triangles, triangles)
        assert m.triangles.dtype == triangles.dtype

    def test_check_mesh_names_the_first_open_edge(self):
        m = icosphere(1)
        tris = m.triangles[np.random.default_rng(3).permutation(
            m.triangle_count)]
        removed = {tuple(sorted(e)) for e in ((tris[-1][0], tris[-1][1]),
                                              (tris[-1][1], tris[-1][2]),
                                              (tris[-1][2], tris[-1][0]))}
        first = next(key for a, b, c in tris[:-1]
                     for key in (tuple(sorted(e)) for e in ((a, b), (b, c), (c, a)))
                     if key in removed)
        with pytest.raises(TopologyError,
                           match=r"^edge \(%d, %d\) lies in 1 triangles$" % first):
            check_mesh(Mesh(points=m.points, triangles=tris[:-1]))

    def test_check_mesh_names_the_first_reversed_edge(self):
        m = icosphere(1)
        tris = m.triangles.copy()
        tris[5] = tris[5][::-1]
        counts = {}
        for a, b, c in tris:
            for edge in ((a, b), (b, c), (c, a)):
                counts[edge] = counts.get(edge, 0) + 1
        first = next(edge for edge, cnt in counts.items() if cnt != 1)
        assert check_mesh(Mesh(points=m.points, triangles=tris,
                               oriented=False))["euler"] == 2
        with pytest.raises(TopologyError, match=r"^edge \(%d, %d\) traversed "
                           r"2 times in one direction$" % first):
            check_mesh(Mesh(points=m.points, triangles=tris))

    @pytest.mark.parametrize("columns", [(), (0, 1), (0, 1, 2, 0)])
    def test_triangles_must_be_a_nonempty_three_column_array(self, columns):
        m = icosphere(1)
        tris = m.triangles[:0] if not columns else m.triangles[:, columns]
        with pytest.raises(TopologyError, match="nonempty \\(F, 3\\)"):
            check_mesh(Mesh(points=m.points, triangles=tris))

    def test_disconnected_mesh_rejected(self):
        m = icosphere(1)
        tris = np.concatenate([m.triangles, m.triangles + m.vertex_count])
        two = Mesh(points=np.concatenate([m.points, m.points]), triangles=tris)
        with pytest.raises(TopologyError, match="2 connected components"):
            check_mesh(two)

    def test_projective_quotient(self):
        for level in (1, 2):
            base = icosphere(level)
            m = projective_icosphere(level)
            assert m.vertex_count == base.vertex_count // 2
            assert m.triangle_count == base.triangle_count // 2
            stats = check_mesh(m)
            assert stats["euler"] == 1 and not stats["oriented"]

    def test_open_mesh_rejected(self):
        m = icosphere(0)
        broken = Mesh(points=m.points, triangles=m.triangles[:-1],
                      topology="sphere")
        with pytest.raises(TopologyError):
            check_mesh(broken)

    def test_orientation_flip_rejected(self):
        m = icosphere(1)
        tris = m.triangles.copy()
        tris[0] = tris[0][::-1]
        with pytest.raises(TopologyError):
            check_mesh(Mesh(points=m.points, triangles=tris, topology="sphere"))

    def test_invalid_grid_arguments(self):
        with pytest.raises(ArgumentError):
            torus_grid(2)
        with pytest.raises(ArgumentError):
            icosphere(-1)


class TestOFF:
    def test_round_trip_three_dim(self, tmp_path):
        m = icosphere(1)
        path = os.path.join(tmp_path, "sphere.off")
        save_off(path, m.points, m.triangles)
        pts, tris = load_off(path)
        assert np.array_equal(pts, m.points)
        assert np.array_equal(tris, m.triangles)

    def test_round_trip_higher_dim(self, tmp_path):
        m = torus_grid(5)
        path = os.path.join(tmp_path, "torus.off")
        save_off(path, m.points, m.triangles)
        pts, tris = load_off(path)
        assert np.array_equal(pts, m.points)
        assert np.array_equal(tris, m.triangles)

    def test_reject_foreign_file(self, tmp_path):
        path = os.path.join(tmp_path, "junk.off")
        with open(path, "w") as fh:
            fh.write("PLY\n12 20 0\n")
        with pytest.raises(ArgumentError):
            load_off(path)

    @pytest.mark.parametrize("vertex,face,match", [
        ("0 0 1", "3 0 1 3", "face index"),
        ("0 0 1", "3 0 -1 2", "face index"),
        ("0 0 1", "4 0 1 2 0", "triangle faces"),
        ("0 0 nan", "3 0 1 2", "non-finite"),
        ("0 0 inf", "3 0 1 2", "non-finite"),
        ("-inf 0 1", "3 0 1 2", "non-finite"),
    ])
    def test_reject_bad_vertex_or_face(self, tmp_path, vertex, face, match):
        path = os.path.join(tmp_path, "bad.off")
        with open(path, "w") as fh:
            fh.write("OFF\n3 1 0\n1 0 0\n0 1 0\n%s\n%s\n" % (vertex, face))
        with pytest.raises(ArgumentError, match=match):
            load_off(path)


class TestAssembly:
    def setup_method(self):
        self.imm = sphere(2, 1.0, 1, 0.0)
        self.geom = DiscreteGeometry(self.imm, icosphere(2))
        self.K, self.M = assemble_forms(self.geom)

    def test_constants_in_kernel(self):
        ones = np.ones(self.geom.mesh.vertex_count)
        scale = abs(self.K.diagonal()).max()
        assert np.max(np.abs(self.K @ ones)) < 1e-12 * scale

    def test_mass_reproduces_volume(self):
        ones = np.ones(self.geom.mesh.vertex_count)
        assert abs(ones @ (self.M @ ones) - self.geom.volume) < 1e-12 * self.geom.volume
        assert abs(self.geom.volume - 4 * math.pi) < 0.02 * 4 * math.pi

    def test_weight_linearity(self):
        K2, _ = assemble_forms(self.geom, tensor_field=lambda fr: 2.0 * np.eye(2))
        assert np.max(np.abs((K2 - 2.0 * self.K).toarray())) < 1e-12 * abs(self.K.diagonal()).max()

    def test_unit_potential_adds_mass(self):
        Kq, _ = assemble_forms(self.geom,
                               potential=np.ones(self.geom.mesh.vertex_count))
        diff = (Kq - self.K - self.M).toarray()
        assert np.max(np.abs(diff)) < 1e-13

    def test_indefinite_weight_rejected(self):
        with pytest.raises(EllipticityError, match="not positive definite"):
            assemble_forms(self.geom, tensor_field=lambda fr: np.diag([1.0, -1.0]))

    def _first_failing(self, tensor_field, scale=0.0):
        """First non-elliptic element and its centroid, one element at a time."""
        for f, corners in enumerate(self.geom.mesh.points[self.geom.mesh.triangles]):
            w = self.imm.domain.centroid(corners)
            eig = np.linalg.eigvalsh(tensor_field(self.imm.frame_at(w)))
            scale = max(scale, abs(eig[-1]))
            if eig[0] <= 1e-10 * scale:
                return f, w
        return None, None

    @pytest.mark.parametrize("case", ["sign", "running_scale"])
    def test_ellipticity_error_names_first_element(self, case):
        if case == "sign":
            def field(fr):
                return diagonal(1.0, fr.point[..., 2] + 0.3)
        else:
            # an early cap element raises the running scale to 1e6, after
            # which the weight 1e-5 of the other elements no longer passes
            def field(fr):
                cap = fr.point[..., 2] > 0.8
                return diagonal(np.where(cap, 1e6, 1.0), np.where(cap, 1.0, 1e-5))
        f, w = self._first_failing(field)
        assert f is not None and f > 0
        if case == "running_scale":
            # a scale taken over all elements would stop earlier
            assert self._first_failing(field, scale=1e6)[0] < f
        with pytest.raises(EllipticityError) as err:
            assemble_forms(self.geom, tensor_field=field)
        assert ("at element %d (domain point %s)"
                % (f, np.array_str(w, precision=6))) in str(err.value)

    def test_degenerate_triangle_names_first_index(self):
        tris = self.geom.mesh.triangles.copy()
        tris[7] = [tris[7, 0], tris[7, 1], tris[7, 1]]  # zero determinant
        tris[12] = [tris[12, 0], tris[12, 0], tris[12, 2]]  # zero edge
        mesh = Mesh(points=self.geom.mesh.points, triangles=tris)
        with pytest.raises(TopologyError, match="triangle 7 has"):
            DiscreteGeometry(self.imm, mesh)
        tris[7] = self.geom.mesh.triangles[7]
        with pytest.raises(TopologyError, match="triangle 12 has"):
            DiscreteGeometry(self.imm, mesh)

    def test_integrate_constant(self):
        vals = np.ones(self.geom.mesh.vertex_count)
        assert abs(self.geom.integrate(vals) - self.geom.volume) < 1e-12 * self.geom.volume

    def test_requires_surface_domain(self):
        with pytest.raises(UnsupportedConfiguration):
            DiscreteGeometry(clifford_torus(2, 4, 0.7, 0.0), icosphere(1))

    @pytest.mark.parametrize("imm", [
        sphere(2, 1.0, 1, 0.0),
        ellipsoid((1.0, 1.0, 1.3)),
        ring_torus(1.0, 0.4),
        hyperbolic_geodesic_sphere(1.0),
    ], ids=lambda im: im.name)
    @pytest.mark.parametrize("label", ["identity", "newton:0"])
    def test_stiffness_annihilates_constants(self, imm, label):
        # the hat gradients of an element sum to zero: constants span the
        # kernel of K up to rounding, whatever the weight tensor
        geom = DiscreteGeometry(imm, mesh_for(imm, 4))
        spec = reports.operator_from_label(label)
        K, _ = assemble_forms(geom, None if label == "identity" else spec.tensors)
        ones = np.ones(geom.mesh.vertex_count)
        assert np.max(np.abs(K @ ones)) <= 1e-13 * np.max(np.abs(K.data))


class TestSphereSpectrum:
    def test_fem_eigenvalue_and_multiplicity(self):
        geom = DiscreteGeometry(sphere(2, 1.0, 1, 0.0), icosphere(3))
        res = solve_pencil(*assemble_forms(geom), count=12)
        lam2 = res.lambda2()
        assert abs(lam2 - 2.0) < 0.02 * 2.0
        assert multiplicity(res, lam2) == 3

    def test_galerkin_refinement_decreases(self):
        imm = sphere(2, 1.0, 1, 0.0)
        seq = []
        for level in (1, 2, 3, 4):
            geom = DiscreteGeometry(imm, icosphere(level))
            seq.append(solve_pencil(*assemble_forms(geom), count=6).lambda2())
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(v > 2.0 - 1e-6 for v in seq)
        assert abs(seq[-1] - 2.0) < 0.002 * 2.0

    def test_rayleigh_quotient_bounds(self):
        geom = DiscreteGeometry(sphere(2, 1.0, 1, 0.0), icosphere(2))
        K, M = assemble_forms(geom)
        res = solve_pencil(K, M, count=6)
        rng = np.random.default_rng(3)
        ones = np.ones(K.shape[0])
        for _ in range(5):
            v = rng.standard_normal(K.shape[0])
            v -= ones * (ones @ (M @ v)) / (ones @ (M @ ones))
            quot = (v @ (K @ v)) / (v @ (M @ v))
            assert quot >= res.lambda2() - 1e-10

    def test_dense_and_arpack_agree(self):
        geom = DiscreteGeometry(flat_torus(), torus_grid(47))
        K, M = assemble_forms(geom)
        res = solve_pencil(K, M, count=8)
        assert res.backend == "fem-block"
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                                  subset_by_index=(0, 7))
        assert np.max(np.abs(res.values - dense)) < 1e-8 * max(1.0, dense[-1])

    def test_potential_shift_is_exact(self):
        geom = DiscreteGeometry(sphere(2, 1.0, 1, 0.0), icosphere(2))
        K, M = assemble_forms(geom)
        Kq, _ = assemble_forms(geom, potential=np.full(K.shape[0], 3.0))
        plain = solve_pencil(K, M, count=4)
        shifted = solve_pencil(Kq, M, count=4)
        assert abs(shifted.lambda2() - plain.lambda2() - 3.0) < 1e-9

    def test_negative_potential_shift_is_exact_on_arpack(self):
        # a potential far below any mesh-scaled shift: the floor keeps the
        # shift below the spectrum, so shift-invert returns the lowest values
        geom = DiscreteGeometry(sphere(2, 1.0, 1, 0.0), icosphere(4))
        K, M = assemble_forms(geom)
        Kq, _ = assemble_forms(geom, potential=np.full(K.shape[0], -1000.0))
        plain = solve_pencil(K, M, count=4)
        shifted = solve_pencil(Kq, M, count=4, floor=-1000.0)
        assert shifted.backend == "fem-block"
        assert abs(shifted.lambda2() - (plain.lambda2() - 1000.0)) < 1e-8

    def test_arpack_matches_dense_on_sphere(self):
        K, M = sphere_forms(4)
        res = solve_pencil(K, M, count=12)
        assert res.backend == "fem-block"
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                                  subset_by_index=(0, 11))
        assert np.max(np.abs(res.values - dense)) < 1e-10
        # the round sphere's clusters: 1, 3 and 5 values near 0, 2 and 6
        assert [multiplicity(res, res.values[i]) for i in (1, 4)] == [3, 5]
        assert abs(res.values[0]) < 1e-10 and abs(res.values[4] - 6.0) < 0.1

    def test_factor_is_symmetric_mode(self):
        K, M = sphere_forms(4)
        _, factor = _shift_factor(K, M, -0.5)
        assert np.array_equal(factor.perm_r, factor.perm_c)

    def test_dissection_order_shrinks_the_factor(self):
        # guards the ordering: SuperLU's default COLAMD factor has more
        # fill (about 1.35 M against 0.87 M entries at level 5)
        K, M = sphere_forms(5)
        sigma = -0.5
        _, factor = _shift_factor(K, M, sigma)
        default = scipy.sparse.linalg.splu((K - sigma * M).tocsc())
        assert (factor.L.nnz + factor.U.nnz
                <= 0.8 * (default.L.nnz + default.U.nnz))

    def test_disconnected_pencil_merges_the_spectra(self):
        (K1, M1), (K2, M2) = sphere_forms(4), ellipsoid_forms(4)
        merged = solve_pencil(sp.block_diag([K1, K2]), sp.block_diag([M1, M2]),
                              count=12)
        assert merged.backend == "fem-block"
        apart = np.sort(np.concatenate([solve_pencil(K1, M1, count=12).values,
                                        solve_pencil(K2, M2, count=12).values]))
        assert np.max(np.abs(merged.values - apart[:12])) < 1e-10
        # each component carries a constant: lambda_2 of the pencil is 0
        assert abs(merged.lambda2()) < 1e-10

    def test_failed_factor_names_the_shift(self):
        # an isolated unknown with no stiffness and no mass: K - sigma M
        # has a zero column at every shift
        K, M = sphere_forms(4)
        zero = sp.csr_matrix((1, 1))
        with pytest.raises(ConvergenceError, match="at sigma = -0.55"):
            solve_pencil(sp.block_diag([K, zero]), sp.block_diag([M, zero]))

    def test_shift_does_not_depend_on_mesh_size(self, monkeypatch):
        seen = []
        factor = spectra._shift_factor

        def recording(stiffness, mass, sigma):
            seen.append(sigma)
            return factor(stiffness, mass, sigma)

        monkeypatch.setattr(spectra, "_shift_factor", recording)
        imm = sphere(2, 1.0, 1, 0.0)
        forms = {level: assemble_forms(DiscreteGeometry(imm, icosphere(level)))
                 for level in (4, 5)}
        for level in (4, 5):
            solve_pencil(*forms[level], count=4)
        assert all(-1.0 <= s < 0.0 for s in seen), seen
        assert abs(seen[0] - seen[1]) <= 0.01 * abs(seen[1])
        solve_pencil(*forms[4], count=4, floor=-5.0)
        assert seen[2] < -5.0

    @pytest.mark.parametrize("level", [4, 2])
    def test_floor_above_lambda1_is_refused(self, level):
        # at level 4 the shift lands between the triple 2 and the fivefold 6,
        # and four values from the 6 cluster come back, all above the floor
        K, M = sphere_forms(level)
        assert solve_pencil(K, M).backend == "fem-block"
        with pytest.raises(ConvergenceError, match="not a lower bound"):
            solve_pencil(K, M, floor=5.0)


class TestFourValues:
    """Reports solve for the four lowest values, and lambda_2 at four
    values is lambda_2 at twelve."""

    def test_reports_request_four_values(self, monkeypatch):
        # from a guess of 1 + N columns: the constant and the coordinates
        # of R^3 at the 162 vertices
        requested = []

        def spy(*args, **kw):
            call = inspect.signature(solve_pencil).bind(*args, **kw)
            call.apply_defaults()
            requested.append((call.arguments["count"],
                              call.arguments["guess"].shape))
            return solve_pencil(*args, **kw)

        monkeypatch.setattr(reports, "solve_pencil", spy)
        imm = sphere(2, 1.0, 1, 0.0)
        reports.fem_report(imm, OperatorSpec(), level=2)
        # t_minimality takes c' as stated and solves nothing
        reports.t_minimality(imm, OperatorSpec(), level=2, cprime=1.0)
        assert requested == [(4, (162, 4))]

    @pytest.mark.parametrize("imm,spec", [
        (sphere(2, 1.0, 1, 0.0), OperatorSpec()),
        (ellipsoid((1.0, 1.0, 1.3)), OperatorSpec(kind="newton", degree=0)),
        (ring_torus(), OperatorSpec()),
        (hyperbolic_geodesic_sphere(1.0), OperatorSpec()),
        (sphere(2, 1.0, 1, 0.0), OperatorSpec(potential=lambda fr: -1000.0)),
    ], ids=["sphere", "ellipsoid-newton0", "ring-torus", "hyperbolic-sphere",
            "potential-1000"])
    def test_lambda2_at_four_equals_twelve(self, imm, spec):
        _, K, M, qvals = reports._mesh_forms(imm, spec, 4, None, spec.potential)
        floor = 0.0 if qvals is None else float(np.min(qvals))
        four = solve_pencil(K, M, floor=floor)
        twelve = solve_pencil(K, M, count=12, floor=floor)
        assert four.backend == "fem-block" and len(four.values) == 4
        want = twelve.lambda2()
        assert abs(four.lambda2() - want) <= 1e-12 * abs(want)


def tetrahedron():
    """The regular tetrahedron inscribed in the unit sphere: 4 vertices."""
    points = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                      dtype=float) / math.sqrt(3.0)
    triangles = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return Mesh(points, triangles)


GALLERY_PENCILS = {
    "sphere": (sphere(2, 1.0, 1, 0.0), OperatorSpec()),
    "hyperbolic-sphere": (hyperbolic_geodesic_sphere(1.0), OperatorSpec()),
    "veronese": (veronese_rp2(), OperatorSpec()),
    "ellipsoid": (ellipsoid((1.0, 1.0, 1.3)), OperatorSpec()),
    "ellipsoid-newton0": (ellipsoid((1.0, 1.0, 1.3)),
                          OperatorSpec(kind="newton", degree=0)),
    "ring-torus": (ring_torus(), OperatorSpec()),
    "flat-torus": (flat_torus(), OperatorSpec()),
    "potential-1000": (sphere(2, 1.0, 1, 0.0),
                       OperatorSpec(potential=lambda fr: -1000.0)),
}


class TestOneSolvePath:
    """Every pencil, down to the tetrahedron, takes the shift-invert solve,
    and its values are those of a dense generalized eigensolve."""

    @pytest.mark.parametrize("name,level", [
        *((name, level) for name in GALLERY_PENCILS for level in range(4)),
        ("veronese", 4), ("sphere", "tetrahedron")])
    def test_matches_dense_eigh(self, name, level):
        imm, spec = GALLERY_PENCILS[name]
        mesh = tetrahedron() if level == "tetrahedron" else None
        _, K, M, qvals = reports._mesh_forms(imm, spec, level, mesh,
                                             spec.potential)
        floor = 0.0 if qvals is None else float(np.min(qvals))
        res = solve_pencil(K, M, floor=floor)
        assert res.backend == "fem-block"
        assert len(res.values) == min(4, K.shape[0] - 1)
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                                  subset_by_index=(0, len(res.values) - 1))
        if qvals is None:
            # constants span the kernel, so lambda_1 is exactly 0; the dense
            # solve rounds it at about 1e-12 (tr K / tr M reaches 4.6e3)
            dense[0] = 0.0
        err = np.abs(res.values - dense)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(dense))), err

    def test_count_is_capped_below_the_unknowns(self):
        _, K, M, _ = reports._mesh_forms(sphere(2, 1.0, 1, 0.0), OperatorSpec(),
                                         None, tetrahedron())
        assert len(solve_pencil(K, M, count=12).values) == 3

    @pytest.mark.parametrize("count,size", [(0, 10), (-1, 10), (1, 1), (4, 0)])
    def test_degenerate_request_is_an_argument_error(self, count, size):
        K = path_graph(size).tocsr() if size else sp.csr_matrix((0, 0))
        with pytest.raises(ArgumentError):
            solve_pencil(K, sp.identity(size, format="csr"), count=count)


class TestBlockLanczos:
    """The block shift-invert Lanczos run: a cluster of up to its width
    in one run, breakdown on invariant Krylov spaces, and its solve
    count."""

    def test_sphere_triple_comes_whole(self):
        res = solve_pencil(*sphere_forms(4))
        lam2 = res.lambda2()
        assert np.ptp(res.values[1:4]) <= 1e-12 * lam2
        assert multiplicity(res, lam2) == 3
        # each copy carries a residual that met the stop rule
        assert res.residuals.shape == (4,) and np.all(res.residuals <= 1e-7)

    def test_fivefold_cluster_at_six(self):
        res = solve_pencil(*sphere_forms(4), count=9)
        five = res.values[4:9]
        assert np.ptp(five) <= 1e-12 * five[0]
        assert abs(five[0] - 6.0) < 0.03 * 6.0
        assert multiplicity(res, five[0]) == 5
        assert res.solves <= 12

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("count", [4, 12])
    def test_doubled_pencil_matches_dense_eigh(self, level, count):
        # two copies of one sphere pencil: every eigenvalue doubles, so a
        # cluster can hold more copies than the block is wide, and at
        # level 0 the Krylov space is invariant before it reaches n
        K, M = sphere_forms(level)
        K, M = sp.block_diag([K, K]).tocsr(), sp.block_diag([M, M]).tocsr()
        res = solve_pencil(K, M, count=count)
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                                  subset_by_index=(0, count - 1))
        err = np.abs(res.values - dense)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(dense))), err

    @pytest.mark.parametrize("along", [1.0, 7.0])
    def test_two_unknowns_match_dense_eigh(self, along):
        # the start vector (1, cos 1) is an eigenvector, of value `along`:
        # the first block spans an invariant space, and at 7 the lowest
        # value 5 is reached only through a fresh vector
        start = np.array([1.0, math.cos(1.0)])
        turn = np.array([[start[0], -start[1]], [start[1], start[0]]])
        turn /= np.linalg.norm(start)
        K = sp.csr_matrix(turn @ np.diag([along, 5.0]) @ turn.T)
        M = sp.identity(2, format="csr")
        res = solve_pencil(K, M)
        dense = scipy.linalg.eigh(K.toarray(), eigvals_only=True)
        # a fresh vector completes the basis, and T is then exact
        assert len(res.values) == 1 and res.solves == 2
        assert abs(res.values[0] - dense[0]) <= 1e-12 * dense[0]

    def test_linear_potential_matches_dense_eigh(self):
        # q = 160 z squeezes the wanted values together after the shift:
        # 16 blocks, past a cap of 15
        spec = OperatorSpec(potential=lambda fr: 160.0 * fr.point[..., 2])
        _, K, M, qvals = reports._mesh_forms(sphere(2, 1.0, 1, 0.0), spec, 3,
                                             None, spec.potential)
        res = solve_pencil(K, M, floor=float(np.min(qvals)))
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                                  subset_by_index=(0, 3))
        err = np.abs(res.values - dense)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(dense))), err

    @pytest.mark.parametrize("imm,spec", [
        (sphere(2, 1.0, 1, 0.0), OperatorSpec()),
        (ellipsoid((1.0, 1.0, 1.3)), OperatorSpec(kind="newton", degree=0)),
        (ring_torus(), OperatorSpec()),
        (hyperbolic_geodesic_sphere(1.0), OperatorSpec()),
    ], ids=["sphere", "ellipsoid-newton0", "ring-torus", "hyperbolic-sphere"])
    def test_few_block_solves(self, monkeypatch, imm, spec):
        # ARPACK took 49 one-vector solves on the sphere at this level
        blocks = []
        solve = spectra._shift_solve

        def counting(order, factor, rhs):
            blocks.append(rhs.shape)
            return solve(order, factor, rhs)

        monkeypatch.setattr(spectra, "_shift_solve", counting)
        _, K, M, _ = reports._mesh_forms(imm, spec, 4, None)
        res = solve_pencil(K, M)
        assert blocks == [(K.shape[0], 4)] * len(blocks)
        assert res.solves == len(blocks) <= 12

    def test_block_cap_is_refused(self, monkeypatch):
        # one block solve never reaches the stop rule, which needs a second
        monkeypatch.setattr(spectra, "_BLOCK_STEPS", 1)
        with pytest.raises(ConvergenceError,
                           match="no 4 converged values in 1 block solves"):
            solve_pencil(*sphere_forms(3))


def assert_cold_values(res, K, M, floor=0.0):
    """res holds the values of the solve without a guess, to 1e-12 of
    their largest magnitude, in no more block solves."""
    cold = solve_pencil(K, M, floor=floor)
    err = np.max(np.abs(res.values - cold.values))
    assert err <= 1e-12 * np.max(np.abs(cold.values)), err
    assert res.solves <= cold.solves


class TestGuessedStart:
    """A guess goes in front of the cold start block: the values stay
    those of the cold run, whatever the guess spans."""

    @pytest.mark.parametrize("imm,spec", [
        (sphere(2, 1.0, 1, 0.0), OperatorSpec()),
        (ellipsoid((1.0, 1.0, 1.3)), OperatorSpec(kind="newton", degree=0)),
        (ring_torus(), OperatorSpec()),
        (hyperbolic_geodesic_sphere(1.0), OperatorSpec()),
        (veronese_rp2(), OperatorSpec()),
        (sphere(2, 1.0, 1, 0.0),
         OperatorSpec(potential=lambda fr: 3.0 * fr.point[..., 0])),
    ], ids=["sphere", "ellipsoid-newton0", "ring-torus", "hyperbolic-sphere",
            "veronese", "tilted-potential"])
    def test_report_guess_gives_the_cold_values(self, monkeypatch, imm, spec):
        blocks = []
        solve = spectra._shift_solve

        def counting(order, factor, rhs):
            blocks.append(rhs.shape)
            return solve(order, factor, rhs)

        geom, K, M, qvals = reports._mesh_forms(imm, spec, 4, None,
                                                spec.potential)
        floor = 0.0 if qvals is None else float(np.min(qvals))
        guess = reports._start_guess(geom)
        monkeypatch.setattr(spectra, "_shift_solve", counting)
        res = solve_pencil(K, M, floor=floor, guess=guess)
        monkeypatch.undo()
        # one column per guess vector, on top of the four cold ones
        assert blocks == [(K.shape[0], 4 + guess.shape[1])] * res.solves
        assert_cold_values(res, K, M, floor)

    @pytest.mark.parametrize("kind", ["harmonics", "eigenvectors"])
    def test_misleading_guess_cannot_hide_lambda2(self, kind):
        # the constant and the fivefold cluster at 6 span a sector without
        # lambda_2; exact eigenvectors span an invariant space, on which
        # the first block's Ritz pairs have converged before S has acted
        # on anything else
        K, M = sphere_forms(3)
        if kind == "harmonics":
            x, y, z = icosphere(3).points.T
            guess = np.column_stack([np.ones_like(x), x * y, y * z, x * z,
                                     x * x - y * y, 2 * z * z - x * x - y * y])
        else:
            vecs = scipy.linalg.eigh(K.toarray(), M.toarray())[1]
            guess = vecs[:, [0, 4, 5, 6, 7, 8]]
        res = solve_pencil(K, M, guess=guess)
        lam2 = res.lambda2()
        assert abs(lam2 - 2.0) < 0.01 * 2.0
        assert np.ptp(res.values[1:4]) <= 1e-12 * lam2
        assert_cold_values(res, K, M)

    @pytest.mark.parametrize("kind", ["repeated", "zero", "hyperbolic-x0"])
    def test_dependent_guess_is_refilled(self, kind):
        if kind == "hyperbolic-x0":
            # the last coordinate is cosh(1) at every vertex: the constant
            imm = hyperbolic_geodesic_sphere(1.0)
            geom, K, M, _ = reports._mesh_forms(imm, OperatorSpec(), 3, None)
            guess = reports._start_guess(geom)
        else:
            K, M = sphere_forms(3)
            x, y, z = icosphere(3).points.T
            guess = (np.column_stack([np.ones_like(x), x, x, y, z])
                     if kind == "repeated" else np.zeros((len(x), 2)))
        assert_cold_values(solve_pencil(K, M, guess=guess), K, M)

    def test_guess_wider_than_the_pencil(self):
        # count 3 and a guess of 3 on 4 unknowns: one block of all 4
        # vectors, on which T is exact
        _, K, M, _ = reports._mesh_forms(sphere(2, 1.0, 1, 0.0), OperatorSpec(),
                                         None, tetrahedron())
        res = solve_pencil(K, M, count=12, guess=np.eye(4)[:, :3])
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        assert res.solves == 1 and len(res.values) == 3
        assert np.max(np.abs(res.values - dense[:3])) <= 1e-12 * dense[2]

    @pytest.mark.parametrize("shape", [(10,), (9, 2), (10, 2, 1)])
    def test_guess_of_another_shape_is_an_argument_error(self, shape):
        K = path_graph(10).tocsr()
        with pytest.raises(ArgumentError, match="one row per unknown"):
            solve_pencil(K, sp.identity(10, format="csr"), guess=np.ones(shape))


class TestOtherGeometries:
    def test_flat_torus_spectrum(self):
        geom = DiscreteGeometry(flat_torus(), torus_grid(40))
        res = solve_pencil(*assemble_forms(geom), count=12)
        lam2 = res.lambda2()
        assert abs(lam2 - 4 * math.pi**2) < 0.01 * 4 * math.pi**2
        assert multiplicity(res, lam2) == 4

    def test_rectangular_torus_prefers_long_direction(self):
        r1 = 1.0 / (2 * math.pi)
        geom = DiscreteGeometry(flat_torus(r1, 2 * r1), torus_grid(24, 48))
        res = solve_pencil(*assemble_forms(geom), count=8)
        assert abs(res.lambda2() - 1.0 / (2 * r1) ** 2) < 0.01 / (2 * r1) ** 2

    def test_anisotropic_weight_splits_multiplicity(self):
        geom = DiscreteGeometry(flat_torus(), torus_grid(40))
        K, M = assemble_forms(geom, tensor_field=lambda fr: np.diag([2.0, 1.0]))
        res = solve_pencil(K, M, count=8)
        lam2 = res.lambda2()
        assert abs(lam2 - 4 * math.pi**2) < 0.01 * 4 * math.pi**2
        assert multiplicity(res, lam2) == 2

    def test_projective_plane_spectrum(self):
        geom = DiscreteGeometry(veronese_rp2(), projective_icosphere(3))
        res = solve_pencil(*assemble_forms(geom), count=14)
        lam2 = res.lambda2()
        assert abs(lam2 - 6.0) < 0.025 * 6.0
        assert multiplicity(res, lam2) == 5
        assert abs(geom.volume - 2 * math.pi) < 0.02 * 2 * math.pi

    def test_hyperbolic_sphere_spectrum(self):
        geom = DiscreteGeometry(hyperbolic_geodesic_sphere(1.0), icosphere(4))
        res = solve_pencil(*assemble_forms(geom), count=8)
        want = 2.0 / math.sinh(1.0) ** 2
        assert abs(res.lambda2() - want) < 0.01 * want

    def test_ellipsoid_below_round_sphere(self):
        geom = DiscreteGeometry(ellipsoid((1.0, 1.0, 1.3)), icosphere(3))
        res = solve_pencil(*assemble_forms(geom), count=6)
        assert res.lambda2() < 2.0


class TestClosedFormSpectra:
    def test_sphere_spectrum_table(self):
        # 1 + 3 + 5 + 7 = 16 values hold the whole 7-fold level
        res = product_spectrum([(2, 1.0)], count=16)
        levels, mults = np.unique(res.values, return_counts=True)
        assert np.allclose(levels[:4], [0.0, 2.0, 6.0, 12.0])
        assert list(mults[:4]) == [1, 3, 5, 7]
        assert res.lambda2() == 2.0
        assert res.backend == "sphere-exact"
        res4 = product_spectrum([(4, 0.8)], count=8)
        assert abs(res4.lambda2() - 4.0 / 0.64) < 1e-12
        assert np.unique(res4.values, return_counts=True)[1][1] == 5

    def test_circle_multiplicities(self):
        res = product_spectrum([(1, 1.0)], count=7)
        levels, mults = np.unique(res.values, return_counts=True)
        assert list(mults[:4]) == [1, 2, 2, 2]
        assert np.allclose(levels[:3], [0.0, 1.0, 4.0])

    def test_product_matches_brute_force(self):
        # 21 values: the whole level that the 20th value opens
        res = product_spectrum([(2, 1.0), (2, 1.3)], weights=[1.5, 3.0], count=21)
        brute = []
        for j in range(8):
            for k in range(8):
                lamj = 1.5 * j * (j + 1)
                lamk = 3.0 * k * (k + 1) / 1.69
                mult = sphere_multiplicity_ref(2, j) * sphere_multiplicity_ref(2, k)
                brute.extend([lamj + lamk] * mult)
        brute = np.sort(brute)
        assert len(res.values) == 21
        assert np.allclose(res.values, brute[:21], atol=1e-12)

    def test_lambda2_needs_two_values(self):
        with pytest.raises(ConvergenceError, match="at least two"):
            product_spectrum([(2, 1.0)], count=1).lambda2()

    def test_product_lambda2_picks_cheapest_factor(self):
        res = product_spectrum([(2, 0.5), (1, 1.0)], weights=[1.0, 4.0], count=10)
        assert abs(res.lambda2() - min(2.0 / 0.25, 4.0 * 1.0)) < 1e-12

    def test_clifford_closed_form(self):
        a = math.sqrt(0.5)
        b = math.sqrt(0.5)
        rec = clifford_torus(2, 4, a, 0.0).reference["newton:2"]
        res = product_spectrum([(2, a), (2, b)],
                               weights=[t for t, _, _ in rec.factors], count=8)
        assert abs(res.lambda2() - 8.0) < 1e-9

    def test_argument_validation(self):
        with pytest.raises(ArgumentError):
            product_spectrum([(0, 1.0)])
        with pytest.raises(ArgumentError):
            product_spectrum([(2, 1.0)], weights=[1.0, 2.0])
        with pytest.raises(ArgumentError):
            product_spectrum([(2, 1.0)], weights=[-1.0])
        with pytest.raises(ArgumentError):
            product_spectrum([(2, 1.0)], count=0)


def sphere_multiplicity_ref(n, k):
    if k == 0:
        return 1
    return math.comb(n + k, n) - math.comb(n + k - 2, n)


@functools.lru_cache(maxsize=None)
def ellipsoid_l2():
    imm = ellipsoid((1.0, 1.0, 1.3))
    return DiscreteGeometry(imm, mesh_for(imm, 2))


@st.composite
def spd_2x2(draw):
    """L L^T for a lower-triangular L with a positive diagonal."""
    floats = functools.partial(st.floats, allow_nan=False, allow_infinity=False)
    lower = np.array([[draw(floats(0.1, 3.0)), 0.0],
                      [draw(floats(-2.0, 2.0)), draw(floats(0.1, 3.0))]])
    return lower @ lower.T


@given(A=spd_2x2(), B=spd_2x2(), a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
def test_pencil_is_linear_in_T(A, B, a, b):
    geom = ellipsoid_l2()
    K_A, M = assemble_forms(geom, lambda fr: A)
    K_B, _ = assemble_forms(geom, lambda fr: B)
    K, M_ab = assemble_forms(geom, lambda fr: a * A + b * B)
    want = (a * K_A + b * K_B).toarray()
    assert np.max(np.abs(K.toarray() - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(M_ab.toarray(), M.toarray())


@functools.lru_cache(maxsize=None)
def sphere_forms(level):
    return assemble_forms(DiscreteGeometry(sphere(2, 1.0, 1, 0.0),
                                           icosphere(level)))


@functools.lru_cache(maxsize=None)
def ellipsoid_forms(level):
    imm = ellipsoid((1.0, 1.0, 1.3))
    return assemble_forms(DiscreteGeometry(imm, mesh_for(imm, level)))


def path_graph(n):
    return sp.diags([np.ones(n - 1), 2.0 * np.ones(n), np.ones(n - 1)],
                    [-1, 0, 1])


@pytest.mark.parametrize("case", ["sphere", "two spheres", "path",
                                  "isolated", "complete", "single"])
def test_dissection_order_is_a_permutation(case):
    K, _ = sphere_forms(3)
    matrix = {"sphere": lambda: K,
              "two spheres": lambda: sp.block_diag([K, path_graph(5), K]),
              "path": lambda: path_graph(1000),
              "isolated": lambda: sp.identity(300),
              "complete": lambda: sp.csr_matrix(np.ones((200, 200))),
              "single": lambda: sp.csr_matrix(np.ones((1, 1)))}[case]()
    order = _dissection_order(matrix)
    assert np.array_equal(np.sort(order), np.arange(matrix.shape[0]))
