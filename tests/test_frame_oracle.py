"""The frame and element kernels against their first formulation
(`frame_oracle`): the jets, the frame fields and the assembled K and M
agree within 1e-13 of their scale, the sphere charts within the rounding
their Gram-Schmidt steps allow, and the closed-form polar factor equals
the SVD's.  The charts and frames themselves are orthonormal to
rounding."""

import math

import numpy as np
import pytest

import frame_oracle
from reillylab.fem import DiscreteGeometry, _orthogonal_polar, assemble_forms
from reillylab.gallery import (clifford_torus, ellipsoid, flat_torus,
                               hyperbolic_geodesic_sphere, product_spheres,
                               ring_torus, sphere, veronese_rp2)
from reillylab.reports import mesh_for, operator_from_label


def gallery_cases():
    return [
        sphere(2, 1.0, 1, 0.0),
        sphere(2, 0.6, 2, 1.0),
        sphere(2, 0.7, 1, -1.0),
        sphere(3, 0.8, 1, -1.0),
        sphere(4, 0.8, 2, 0.0),
        clifford_torus(2, 4, math.sqrt(0.5), 0.0),
        clifford_torus(2, 4, math.sqrt(0.5), -1.0),
        clifford_torus(3, 6, 0.5, -1.0),
        veronese_rp2(),
        ellipsoid((1.0, 1.0, 1.3)),
        hyperbolic_geodesic_sphere(1.0),
        flat_torus(),
        ring_torus(1.0, 0.4),
        product_spheres(1.0, 1.3),
    ]


def level3_points(imm):
    """Vertices and element centroids of the level-3 mesh of a surface;
    as many sample points as that mesh has vertices otherwise."""
    if imm.n != 2:
        return imm.sample_points(642, seed=5)
    mesh = mesh_for(imm, 3)
    centroids = imm.domain.centroid(mesh.points[mesh.triangles])
    return np.concatenate([mesh.points, centroids])


def assert_close(new, old, tol=1e-13):
    scale = max(1.0, float(np.max(np.abs(old))))
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= tol * scale


@pytest.mark.parametrize("imm", gallery_cases(), ids=lambda im: im.name)
def test_frames_match_first_formulation(imm):
    points = level3_points(imm)
    new = imm.frame_at(points)
    old = frame_oracle.frames(imm, points)
    for name in ("point", "metric", "tangent", "normal", "h", "coeff"):
        assert_close(getattr(new, name), old[name])
    x, d1, d2 = imm.jets(points)
    for mine, theirs in zip((x, d1, d2), frame_oracle.jets(imm, points)):
        assert_close(mine, theirs)


@pytest.mark.parametrize("imm", gallery_cases(), ids=lambda im: im.name)
def test_chart_matches_first_formulation(imm):
    points = level3_points(imm)
    tau = imm.domain.chart(points)
    row = 0
    for d, sl in zip(imm.domain.dims, imm.domain.slices):
        old, smallest = frame_oracle.sphere_tangents(points[:, sl])
        err = np.max(np.abs(tau[:, row:row + d, sl] - old), axis=(1, 2))
        # one Gram-Schmidt step on a candidate of length s rounds as 1/s
        assert np.all(err * smallest <= 1e-14)
        row += d


@pytest.mark.parametrize("imm", gallery_cases(), ids=lambda im: im.name)
def test_charts_and_frames_orthonormal_to_rounding(imm):
    # every candidate is projected twice, so a short remainder (down to
    # 1e-7 on the sphere charts, 1e-5 in the normal completion) leaves
    # no eps / length error behind; one pass left the chart of
    # sphere(3, 0.8, 1, -1.0) at its sample 50 6.7e-12 off
    points = level3_points(imm)
    tau = imm.domain.chart(points)
    eye = np.eye(tau.shape[-2])
    assert np.max(np.abs(tau @ np.swapaxes(tau, -1, -2) - eye)) <= 1e-15
    row = 0
    for d, sl in zip(imm.domain.dims, imm.domain.slices):
        block = tau[:, row:row + d, sl]
        assert np.max(np.abs(block @ points[:, sl, None])) <= 1e-15
        row += d
    fr = imm.frame_at(points)
    frame = np.concatenate([fr.tangent, fr.normal], axis=1)
    gram = np.einsum("kad,kbd,d->kab", frame, frame, imm.ambient.metric_diag)
    # a Lorentzian product sums terms up to max |coordinate|^2 in size
    scale = max(1.0, float(np.max(np.abs(frame)))) ** 2
    assert np.max(np.abs(gram - np.eye(gram.shape[-1]))) <= 1e-15 * scale


def tensor_field(frames):
    """A symmetric positive definite field that is not a multiple of I."""
    x = frames.point
    out = np.empty(x.shape[:-1] + (2, 2))
    out[..., 0, 0] = 2.0 + x[..., 0]
    out[..., 1, 1] = 1.5 + x[..., 1] ** 2
    out[..., 0, 1] = out[..., 1, 0] = 0.3 * x[..., 2]
    return out


@pytest.mark.parametrize("imm", [im for im in gallery_cases() if im.n == 2],
                         ids=lambda im: im.name)
@pytest.mark.parametrize("field", ["identity", "newton:0", "custom"])
def test_forms_match_first_formulation(imm, field):
    geom = DiscreteGeometry(imm, mesh_for(imm, 3))
    tensors = {"identity": None, "custom": tensor_field,
               "newton:0": operator_from_label("newton:0").tensors}[field]
    potential = np.cos(np.arange(geom.mesh.vertex_count))
    for q in (None, potential):
        new = assemble_forms(geom, tensors, potential=q)
        old = frame_oracle.assemble_forms(geom, tensors, potential=q)
        for a, b in zip(new, old):
            assert_close(a.toarray(), b.toarray())


def test_projective_mesh_has_reflected_elements():
    # the Veronese case of test_forms_match_first_formulation: some of
    # the maps to local coordinates reverse orientation, so the polar
    # factor there is a reflection
    imm = veronese_rp2()
    mesh = mesh_for(imm, 3)
    assert mesh.topology == "projective_plane"
    geom = DiscreteGeometry(imm, mesh)
    frames = imm.frame_at(frame_oracle.element_centroids(imm, mesh))
    det = np.linalg.det(frame_oracle.polar_input(geom, frames.tangent))
    assert np.any(det < 0.0) and np.any(det > 0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_closed_form_polar_factor_matches_svd(sign):
    a = np.random.default_rng(13).standard_normal((2000, 2, 2))
    a[:, 0] *= np.where(np.linalg.det(a) * sign < 0.0, -1.0, 1.0)[:, None]
    assert np.all(np.linalg.det(a) * sign > 0.0)
    u, _, vt = np.linalg.svd(a)
    rot = _orthogonal_polar(a)
    assert np.max(np.abs(rot - u @ vt)) <= 1e-14
    assert np.allclose(np.linalg.det(rot), sign, rtol=0.0, atol=1e-14)
