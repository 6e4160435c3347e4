"""Lattice layer: exact nearest-point decoding, sampling, figures of merit."""

import math
import os

import numpy as np
import pytest

from expbounds.lattices import (
    Lattice,
    MAX_DIMENSION,
    d4,
    e8,
    integer_lattice,
    lattice_figures,
    load_basis,
    unit_ball_volume,
)

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "src", "expbounds", "data")


def test_volumes():
    assert abs(integer_lattice(4).volume - 1.0) < 1e-12
    assert abs(d4().volume - 2.0) < 1e-12
    assert abs(e8().volume - 1.0) < 1e-12


def test_zn_decoder_rounds():
    lat = integer_lattice(3)
    pts = np.array([[0.2, -0.7, 1.4], [2.51, -2.49, 0.0]])
    got = lat.nearest(pts)
    want = np.array([[0.0, -1.0, 1.0], [3.0, -2.0, 0.0]])
    assert np.array_equal(got, want)


def _check_fast_matches_enumeration(lat, count=200, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=(count, lat.n))
    fast = lat.nearest(pts)
    slow = lat.nearest_enumerated(pts)
    d_fast = ((pts - fast) ** 2).sum(axis=1)
    d_slow = ((pts - slow) ** 2).sum(axis=1)
    # Both must achieve the same (optimal) distance; points may differ on ties.
    assert np.max(np.abs(d_fast - d_slow)) < 1e-9


def test_fast_decoders_match_enumeration():
    _check_fast_matches_enumeration(integer_lattice(4))
    _check_fast_matches_enumeration(d4())
    _check_fast_matches_enumeration(e8(), count=100)


@pytest.mark.parametrize("make", [lambda: integer_lattice(4), d4, e8], ids=["Z4", "D4", "E8"])
@pytest.mark.parametrize("scale", [1.0, 2.5, 1.0 / 3.0])
@pytest.mark.parametrize("step", [0.5, 0.25])
def test_fast_decoders_match_enumeration_at_ties(make, scale, step):
    # Points on step * Z^n sit on Voronoi faces and deep holes, where the
    # closest point is not unique; the fast rules may pick any of them.
    lat = make().rescaled(scale) if scale != 1.0 else make()
    rng = np.random.default_rng(5)
    pts = scale * step * rng.integers(-8, 9, size=(120, lat.n))
    fast = lat.nearest(pts)
    slow = lat.nearest_enumerated(pts)
    d_fast = ((pts - fast) ** 2).sum(axis=1)
    d_slow = ((pts - slow) ** 2).sum(axis=1)
    assert np.max(np.abs(d_fast - d_slow)) <= 1e-12
    coords = fast @ np.linalg.inv(lat.basis)
    assert np.max(np.abs(coords - np.round(coords))) < 1e-9


def test_decoded_points_are_lattice_points():
    lat = e8()
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 8))
    near = lat.nearest(pts)
    # Every decoded point must have integer coordinates in the basis.
    coords = near @ np.linalg.inv(lat.basis)
    assert np.max(np.abs(coords - np.round(coords))) < 1e-9


def test_sample_voronoi_properties():
    lat = d4()
    rng = np.random.default_rng(2)
    pts = lat.sample_voronoi(500, rng)
    # Samples decode to the origin: they lie in the central Voronoi region.
    assert np.max(np.abs(lat.nearest(pts))) < 1e-9


def test_second_moment_zn():
    # Integer lattice per-dimension second moment is exactly 1/12.
    figs = lattice_figures(integer_lattice(4), samples=200_000, seed=0)
    assert abs(figs.second_moment - 1.0 / 12.0) < 4.0 * figs.second_moment_stderr
    assert abs(figs.nsm - figs.second_moment) < 1e-15  # unit volume


def test_e8_beats_z8_as_quantizer():
    figs_e8 = lattice_figures(e8(), samples=100_000, seed=0)
    figs_z8 = lattice_figures(integer_lattice(8), samples=100_000, seed=0)
    assert figs_e8.nsm < figs_z8.nsm
    # Any lattice quantizer obeys the sphere lower bound.
    n = 8
    sphere = (unit_ball_volume(n) ** (-2.0 / n)) * n / (n + 2.0) / n
    assert figs_e8.nsm > sphere


def test_effective_radius():
    figs = lattice_figures(integer_lattice(2), samples=1_000, seed=0)
    assert abs(figs.r_eff - 1.0 / math.sqrt(math.pi)) < 1e-12


def test_covering_radius_bounds_probe():
    figs = lattice_figures(e8(), samples=1_000, seed=0, probe=500)
    assert figs.deep_hole_probe <= figs.r_cov + 1e-9
    assert figs.r_cov >= figs.r_eff  # covering radius cannot beat equal volume


def test_rescaled_equivariance():
    lat = d4()
    scaled = lat.rescaled(2.5)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 4))
    assert np.allclose(scaled.nearest(2.5 * pts), 2.5 * lat.nearest(pts))
    assert abs(scaled.volume - lat.volume * 2.5 ** 4) < 1e-9


def test_load_basis_roundtrip():
    lat = load_basis(DATA + "/e8.lat")
    assert lat.n == 8
    assert lat.decoder == "E8"
    assert abs(lat.volume - 1.0) < 1e-12
    generic = load_basis(DATA + "/z4.lat")
    assert generic.decoder == "Zn"


def test_generic_basis_uses_enumeration():
    basis = np.array([[1.0, 0.3], [0.0, 0.8]])
    lat = Lattice("generic", basis)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    near = lat.nearest(pts)
    # Verify optimality against a brute-force neighborhood search.
    ks = np.array([[i, j] for i in range(-6, 7) for j in range(-6, 7)])
    cands = ks @ basis
    for p, q in zip(pts, near):
        best = np.min(((cands - p) ** 2).sum(axis=1))
        assert ((p - q) ** 2).sum() <= best + 1e-9


def test_dimension_cap():
    with pytest.raises(ValueError):
        Lattice("too-big", np.eye(MAX_DIMENSION + 1))
