"""Property: lambda2 and the right side scale like 1/t^2 under x -> t x."""

import dataclasses
import functools

import pytest
from hypothesis import given, strategies as st

from reillylab.gallery import ellipsoid, sphere
from reillylab.immersion import PolynomialMap
from reillylab.reports import fem_report, operator_from_label

# the shift-invert solve's shift scales like the spectrum, 1/t^2
LEVEL = 4
CASES = {
    "sphere_identity": (sphere(2, 1.0, 1, 0.0), "identity"),
    "ellipsoid_newton0": (ellipsoid((1.0, 1.0, 1.3)), "newton:0"),
}


def scaled(immersion, t):
    """x -> t x applied to the coefficients: (t a0, t a1, t a2)."""
    m = immersion.mapping
    return dataclasses.replace(
        immersion, mapping=PolynomialMap(t * m.a0, t * m.a1, t * m.a2))


@functools.lru_cache(maxsize=None)
def unscaled_report(name):
    imm, label = CASES[name]
    return fem_report(imm, operator_from_label(label), level=LEVEL)


@pytest.mark.parametrize("name", sorted(CASES))
@given(t=st.floats(0.2, 5.0))
def test_scaling_covariance(name, t):
    imm, label = CASES[name]
    base = unscaled_report(name)
    moved = fem_report(scaled(imm, t), operator_from_label(label), level=LEVEL)
    assert moved.backend == base.backend == "fem-block"
    for key in ("lambda2", "rhs"):
        a, b = getattr(base, key) / t**2, getattr(moved, key)
        assert abs(a - b) <= 1e-10 * abs(a), (key, t)
