"""Unit tests for the minimization / root-finding helpers."""

import math

import pytest
from union_bound_oracles import golden_min

from expbounds.numerics import BracketError, bisect_root


def test_golden_min_parabola():
    # sqrt(eps) is the localization limit for a smooth minimum
    x, val = golden_min(lambda t: (t - 1.25) ** 2 + 3.0, 0.0, 4.0, tol=1e-12)
    assert abs(x - 1.25) < 1e-7
    assert abs(val - 3.0) < 1e-12


def test_golden_min_boundary_minimum():
    x, val = golden_min(lambda t: t, 2.0, 5.0, tol=1e-12)
    assert abs(x - 2.0) < 1e-6
    assert abs(val - 2.0) < 1e-6


def test_bisect_root_cubic():
    root = bisect_root(lambda t: t ** 3 - 8.0, 0.0, 10.0, tol=1e-14)
    assert abs(root - 2.0) < 1e-12


def test_bisect_root_expands_span():
    root = bisect_root(lambda t: t - 300.0, 0.0, tol=1e-12)
    assert abs(root - 300.0) < 1e-9


def test_bisect_root_tol_below_float_spacing():
    # Near 1e4 adjacent floats are 1.8e-12 apart, wider than tol.
    root = bisect_root(lambda t: t - (1e4 + 1.0 / 3.0), 1.0, tol=1e-12)
    assert abs(root - (1e4 + 1.0 / 3.0)) <= 2e-12


def test_bisect_root_no_sign_change():
    with pytest.raises(BracketError):
        bisect_root(lambda t: 1.0 + t * t, -5.0, 5.0)


def test_golden_min_matches_math_cos():
    x, _ = golden_min(math.cos, 2.0, 4.5, tol=1e-12)
    assert abs(x - math.pi) < 1e-7
