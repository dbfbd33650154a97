"""Property: lambda2 and the right side do not move under rigid motions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reillylab.gallery import ellipsoid, ring_torus
from reillylab.immersion import PolynomialMap
from reillylab.reports import fem_report, operator_from_label

CASES = {
    "ellipsoid_newton0": (ellipsoid((1.0, 1.0, 1.3)), "newton:0"),
    "ring_torus_identity": (ring_torus(1.0, 0.4), "identity"),
}


def rotation(quaternion):
    """The rotation in SO(3) of a nonzero quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(quaternion) / np.linalg.norm(quaternion)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def rotated(immersion, q):
    """x -> Q x applied to the coefficients: (Q a0, Q a1, Q . a2)."""
    m = immersion.mapping
    mapping = PolynomialMap(q @ m.a0, q @ m.a1,
                            np.einsum("mn,nij->mij", q, m.a2))
    return dataclasses.replace(immersion, mapping=mapping)


quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1)


@pytest.mark.parametrize("name", sorted(CASES))
@given(quaternion=quaternions)
def test_rigid_motion_invariance(name, quaternion):
    imm, label = CASES[name]
    q = rotation(quaternion)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(q) > 0.0
    spec = operator_from_label(label)
    base = fem_report(imm, spec, level=2)
    moved = fem_report(rotated(imm, q), spec, level=2)
    for key in ("lambda2", "rhs"):
        a, b = getattr(base, key), getattr(moved, key)
        assert abs(a - b) <= 1e-10 * abs(a)
