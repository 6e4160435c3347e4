"""Unit tests for the golden-section search of the union-bound oracles."""

import math

from union_bound_oracles import golden_min


def test_golden_min_parabola():
    # sqrt(eps) is the localization limit for a smooth minimum
    x, val = golden_min(lambda t: (t - 1.25) ** 2 + 3.0, 0.0, 4.0, tol=1e-12)
    assert abs(x - 1.25) < 1e-7
    assert abs(val - 3.0) < 1e-12


def test_golden_min_boundary_minimum():
    x, val = golden_min(lambda t: t, 2.0, 5.0, tol=1e-12)
    assert abs(x - 2.0) < 1e-6
    assert abs(val - 2.0) < 1e-6


def test_golden_min_matches_math_cos():
    x, _ = golden_min(math.cos, 2.0, 4.5, tol=1e-12)
    assert abs(x - math.pi) < 1e-7
