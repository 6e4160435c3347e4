"""Lattice layer: exact nearest-point decoding, sampling, figures of merit."""

import dataclasses
import hashlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expbounds.lattices import (
    CVP_ROWS,
    Lattice,
    LatticeFigures,
    MAX_DIMENSION,
    _DEEP_HOLE_PROBES,
    _FIGURES_BLOCKS,
    _closest_coords,
    _cvp_frame,
    _row_sum,
    d4,
    e8,
    integer_lattice,
    lattice_figures,
    load_basis,
    unit_ball_volume,
)
from expbounds.simulator import BLOCK

DATA = os.path.join(os.path.dirname(__file__), "data")
# The benchmark's D4 basis in a non-standard form: the standard rows times a
# unimodular matrix.  A `Lattice` built on it directly decodes by enumeration;
# `load_basis` would recognise it as D4 and give it D4's fast rule.
D4_UNIMODULAR = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 1, 1]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 300),
    st.integers(1, 5000),
    st.integers(0, 300),
    st.integers(0, 2 ** 32 - 1),
)
@example(7, 3, 0, 0)
@example(8, 3, 0, 0)
@example(128, 5000, 30, 1)
@example(129, 17, 300, 2)
@example(300, 1, 300, 3)
def test_row_sum_keeps_numpy_sum_bits(n, rows, spread, seed):
    # Every branch of numpy's pairwise order: sequential below 8 terms,
    # eight accumulators up to 128, halves above.  Mixed signs, magnitudes
    # 10^-spread .. 10^spread, and zeros of both signs.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-spread, spread + 1, (rows, n))
    x[rng.random((rows, n)) < 0.05] = 0.0
    x[rng.random((rows, n)) < 0.05] = -0.0
    x[rng.random(rows) < 0.1] = -0.0
    want = x.sum(axis=-1).tobytes()
    assert _row_sum(np.ascontiguousarray(x.T)).tobytes() == want
    assert _row_sum(x.T).tobytes() == want


def _dfs_cvp(R, t, seed_u, seed_d2):
    """Exact CVP in the QR frame: minimize ||R u - t||^2 over integer u.

    R is upper triangular; depth-first search from the last coordinate with
    zig-zag candidate order, pruned by the best distance found so far.
    """
    n = R.shape[0]
    best = {"d2": seed_d2 + 1e-12, "u": seed_u.copy()}
    u = seed_u.copy()

    def descend(level, partial):
        r = t[level] - R[level, level + 1 :] @ u[level + 1 :]
        c = r / R[level, level]
        k0 = math.floor(c + 0.5)
        for delta in range(0, 10_000):
            advanced = False
            ks = (k0,) if delta == 0 else (k0 + delta, k0 - delta)
            for k in ks:
                resid = partial + (r - R[level, level] * k) ** 2
                if resid < best["d2"]:
                    advanced = True
                    u[level] = k
                    if level == 0:
                        best["d2"] = resid
                        best["u"] = u.copy()
                    else:
                        descend(level - 1, resid)
            if delta > 0 and not advanced:
                break

    descend(n - 1, 0.0)
    return best["u"]


def _dfs_nearest(lat, points):
    """Oracle: one depth-first search per point on the given (unreduced) basis."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Q, R = np.linalg.qr(lat.basis.T)
    sign = np.sign(np.diag(R))
    sign[sign == 0] = 1.0
    Q = Q * sign
    R = (R.T * sign).T
    inv = np.linalg.inv(lat.basis)
    out = np.empty_like(pts)
    for i, p in enumerate(pts):
        seed_u = np.rint(p @ inv)
        e = seed_u @ lat.basis - p
        out[i] = _dfs_cvp(R, Q.T @ p, seed_u, float(e @ e)) @ lat.basis
    return out


def _assert_same_distances(pts, got, want, tol=1e-12):
    d_got = ((pts - got) ** 2).sum(axis=1)
    d_want = ((pts - want) ** 2).sum(axis=1)
    assert np.max(np.abs(d_got - d_want)) <= tol


def _assert_lattice_points(lat, pts):
    coords = pts @ np.linalg.inv(lat.basis)
    assert np.max(np.abs(coords - np.round(coords))) < 1e-9


# The row-major decoders that the blocked, coordinate-major kernels replaced,
# kept as bit-for-bit oracles: one pass over the whole batch, with masks.


def _decode_dn_rows(points):
    f = np.floor(points + 0.5)
    odd = (f.sum(axis=1) % 2).astype(bool)
    if np.any(odd):
        err = points[odd] - f[odd]
        idx = np.argmax(np.abs(err), axis=1)
        rows = np.arange(err.shape[0])
        step = np.where(err[rows, idx] >= 0.0, 1.0, -1.0)
        f2 = f[odd]
        f2[rows, idx] += step
        f[odd] = f2
    return f


def _decode_e8_rows(points):
    y0 = _decode_dn_rows(points)
    y1 = _decode_dn_rows(points - 0.5) + 0.5
    d0 = ((points - y0) ** 2).sum(axis=1)
    d1 = ((points - y1) ** 2).sum(axis=1)
    return np.where((d0 <= d1)[:, None], y0, y1)


def _coset_bisector(points):
    """Points moved onto the bisector of their two E8 candidates, one from
    each D8 coset: there the two distances agree up to round-off, and the
    order of their sums decides the tie."""
    y0 = _decode_dn_rows(points)
    y1 = _decode_dn_rows(points - 0.5) + 0.5
    w = y1 - y0
    lag = ((points - 0.5 * (y0 + y1)) * w).sum(axis=1) / (w * w).sum(axis=1)
    return points - lag[:, None] * w


_ROW_MAJOR = {"Zn": lambda x: np.floor(x + 0.5), "D4": _decode_dn_rows, "E8": _decode_e8_rows}


def _row_major_nearest(lat, points):
    return _ROW_MAJOR[lat.decoder](points / lat.scale) * lat.scale


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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
    pts = rng.uniform(-3.0, 3.0, size=(count, lat.n)) * lat.scale
    slow = lat.nearest_enumerated(pts)
    # Both must achieve the same (optimal) distance; points may differ on ties.
    _assert_same_distances(pts, lat.nearest(pts), slow, tol=1e-9)
    _assert_same_distances(pts, slow, _dfs_nearest(lat, pts))


def test_fast_decoders_match_enumeration():
    for scale in (1.0, 2.5, 1.0 / 3.0):
        _check_fast_matches_enumeration(integer_lattice(4).rescaled(scale))
        _check_fast_matches_enumeration(d4().rescaled(scale))
        _check_fast_matches_enumeration(e8().rescaled(scale), count=100)


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
    _assert_same_distances(pts, fast, slow)
    _assert_same_distances(pts, slow, _dfs_nearest(lat, pts))
    _assert_lattice_points(lat, fast)
    _assert_lattice_points(lat, slow)


@pytest.mark.parametrize(
    "basis, count",
    [
        (D4_UNIMODULAR @ d4().basis, 300),
        (np.array([[1.0, 0.3], [0.0, 0.8]]), 300),
        # The oracle takes milliseconds a point here.
        (np.random.default_rng(9).normal(size=(16, 16)), 4),
    ],
    ids=["d4-file", "generic-2d", "random-16d"],
)
def test_enumeration_matches_dfs_oracle(basis, count):
    lat = Lattice("file", basis)
    rng = np.random.default_rng(6)
    pts = np.vstack(
        [
            rng.uniform(-3.0, 3.0, size=(count, lat.n)) @ basis,
            0.5 * rng.integers(-8, 9, size=(count, lat.n)),
            0.25 * rng.integers(-8, 9, size=(count, lat.n)),
        ]
    )
    got = lat.nearest_enumerated(pts)
    _assert_same_distances(pts, got, _dfs_nearest(lat, pts))
    _assert_lattice_points(lat, got)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_enumeration_core_matches_dfs_on_unreduced_frames(n):
    # The diagonal shrinks toward the first level searched, far faster than an
    # LLL-reduced frame allows, so answers often need a third-nearest integer
    # or farther on a level: the zig-zag order must visit every candidate.
    rng = np.random.default_rng(13)
    R = np.diag(2.0 ** np.arange(n)[::-1]) + np.triu(rng.normal(scale=2.0, size=(n, n)), 1)
    t = rng.uniform(-10.0, 10.0, size=(300, n))
    got = _closest_coords(R, t)
    want = np.array([_dfs_cvp(R, ti, np.zeros(n), np.inf) for ti in t])
    _assert_same_distances(t, got @ R.T, want @ R.T, tol=1e-9)
    assert np.array_equal(got, np.round(got))


def _unimodular(n, rng):
    """A random unimodular integer matrix: unit lower times unit upper triangular."""
    lower = np.tril(rng.integers(-1, 2, size=(n, n)), -1) + np.eye(n)
    upper = np.triu(rng.integers(-1, 2, size=(n, n)), 1) + np.eye(n)
    return lower @ upper


@st.composite
def _unimodular_copies(draw):
    """A built-in lattice and its basis times a random unimodular matrix."""
    lat = draw(
        st.one_of(
            st.sampled_from(range(MAX_DIMENSION, 0, -1)).map(integer_lattice),
            st.sampled_from([d4(), e8()]),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return lat, _unimodular(lat.n, rng) @ lat.basis, rng


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_unimodular_copies())
def test_enumeration_on_unimodular_copies_matches_fast_rule(case):
    # The depth-first oracle takes about 0.4 s a point on such bases.
    lat, basis, rng = case
    pts = rng.uniform(-3.0, 3.0, size=(64, lat.n))
    got = Lattice("copy", basis).nearest_enumerated(pts)
    _assert_same_distances(pts, got, lat.nearest(pts))
    _assert_lattice_points(lat, got)


def _edge_points(rng, count, n):
    """Rounding edges: +-(1/2 - 2^-54), which rounds to 1 under floor(t + 1/2),
    with halves, zeros and ones; subnormals; and coordinates of 2^53 and
    more, where the coordinate sums that decide parity are no longer exact."""
    below_half = 0.5 - 2.0 ** -54
    edges = np.array([below_half, -below_half, 0.5, -0.5, 0.0, -0.0, 1.0, -1.0, 1.5 - 2.0 ** -53])
    tiny = np.finfo(float).smallest_subnormal
    big = 2.0 ** 53 * rng.integers(-4, 5, size=(count, n)) + rng.uniform(-3.0, 3.0, size=(count, n))
    small = rng.random((count, n)) < 0.5
    big[small] = rng.uniform(-3.0, 3.0, size=int(small.sum()))
    return (
        rng.choice(edges, size=(count, n)),
        tiny * rng.integers(-2 ** 20, 2 ** 20, size=(count, n)),
        big,
    )


def _overflow_points(rng, count, n):
    """Coordinates near 1e308, so that t's coordinate sums overflow to +-inf
    (one sign a row) or to nan (mixed signs, from pairwise sums)."""
    mag = 1e308 * rng.uniform(0.45, 0.7, size=(count, n))
    sign = np.where(rng.random((count, 1)) < 0.5, 1.0, -1.0)
    mixed = rng.random(count) < 0.3
    sign = np.where(mixed[:, None], np.where(rng.random((count, n)) < 0.5, 1.0, -1.0), sign)
    return sign * mag


def _e8_certificate_blocks(rng, cols):
    """Blocks of `cols` queries near E8 points, for `_decode_e8`'s certificate:
    a query within squared distance 0.49 of its D8 point skips D8 + 1/2.

    The first five blocks hold 0, 1, cols // 2, cols // 2 + 1 and cols
    queries that are not certified, about the sparse rule's edge at half a
    block.  In the next two, a quarter of the queries have some coordinates
    of 2^51 and more, where t - 1/2 and D8 + 1/2 are not exact and the dense
    rule must decode the block, or one just below 2^51, where the sparse
    rule still does.  The last block's queries are about 0.49 from D8.
    """

    def near_d8(rows, spread):
        k = rng.integers(-4, 5, size=(rows, 8)).astype(float)
        k[:, 0] += k.sum(axis=1) % 2  # a point of D8
        return k + rng.uniform(-spread, spread, size=(rows, 8))

    def block(uncertified, far=None):
        pts = near_d8(cols, 0.2)
        rows = rng.permutation(cols)
        pts[rows[:uncertified]] += 0.5  # near D8 + 1/2, at least 0.72 from D8
        assert (((pts - _decode_dn_rows(pts)) ** 2).sum(axis=1) >= 0.49).sum() == uncertified
        if far is not None:
            few = rows[cols - max(1, cols // 4) :]
            pts[few] = near_d8(few.size, 0.45) + far(few.size)
        return pts

    def big(rows):
        return 2.0 ** 51 * rng.integers(-8, 9, size=(rows, 8)) * (rng.random((rows, 8)) < 0.5)

    def edge(rows):
        return np.array([2.0 ** 51 - 8.0] + [0.0] * 7)

    radius = near_d8(cols, 0.0) + math.sqrt(0.49 / 8) * rng.choice([-1.0, 1.0], size=(cols, 8)) * (
        1.0 + 1e-15 * rng.integers(-4, 5, size=(cols, 1)))
    counts = (0, 1, cols // 2, cols // 2 + 1, cols)
    return [block(u) for u in counts] + [block(1, big), block(1, edge), radius]


@pytest.mark.parametrize("make", [lambda: integer_lattice(4), d4, e8], ids=["Z4", "D4", "E8"])
@pytest.mark.parametrize("scale", [1.0, 2.5, 1.0 / 3.0])
@pytest.mark.parametrize("chunk", [CVP_ROWS, 7])
def test_fast_decoders_bit_identical_to_row_major_oracles(monkeypatch, make, scale, chunk):
    # Empty, single and block-edge batches; random points and points on
    # step * Z^n (ties between closest points, and signed zeros) or on the
    # E8 coset bisector; rounding edges; and blocks about E8's certificate,
    # alone and together: every bit of `nearest`, `reduce`,
    # `residual_norms2` and `sample_voronoi` is the oracle's.
    monkeypatch.setattr("expbounds.lattices.CVP_ROWS", chunk)
    lat = make().rescaled(scale)
    rng = np.random.default_rng(14)

    def check(pts):
        want = _row_major_nearest(lat, pts)
        _assert_same_bits(lat.nearest(pts), want)
        _assert_same_bits(lat.reduce(pts), pts - want)
        norms2, outside = lat.residual_norms2(pts)
        _assert_same_bits(norms2, ((pts - want) ** 2).sum(axis=1))
        _assert_same_bits(outside, (want != 0.0).any(axis=1))

    for count in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        for pts in (
            scale * rng.uniform(-3.0, 3.0, size=(count, lat.n)),
            scale * 0.5 * rng.integers(-8, 9, size=(count, lat.n)),
            -scale * 0.5 * rng.integers(-8, 9, size=(count, lat.n)),
            scale * 0.25 * rng.integers(-8, 9, size=(count, lat.n)),
            scale * _coset_bisector(rng.uniform(-3.0, 3.0, size=(count, 8)))[:, : lat.n],
            *(scale * p for p in _edge_points(rng, count, lat.n)),
        ):
            check(pts)
        # Near 1e308 every float is an even integer, so each point is its own
        # closest point; a parity sum that overflows must leave it alone (the
        # oracle's flip of one step vanishes there too), never give nan, nor warn.
        pts = scale * _overflow_points(rng, count, lat.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lat.nearest(pts)
            norms2, outside = lat.residual_norms2(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_same_bits(got, _row_major_nearest(lat, pts))
        assert np.isfinite(got).all()
        assert np.array_equal(got / scale % 2.0, np.zeros_like(got))
        _assert_same_bits(norms2, np.zeros(count))
        _assert_same_bits(outside, (got != 0.0).any(axis=1))
        u = np.random.default_rng(count).random((count, lat.n)) @ lat.basis
        got = lat.sample_voronoi(count, np.random.default_rng(count))
        _assert_same_bits(got, u - _row_major_nearest(lat, u))
    blocks = _e8_certificate_blocks(rng, chunk)
    for pts in blocks + [np.concatenate(blocks)]:
        check(scale * pts[:, : lat.n])


def _row_major_enumerated(lat, points, chunk):
    """Enumeration's closest points, row-major, `chunk` rows at a time: the
    frame's coordinates mapped back to the given basis, then times it."""
    unimodular, q, r = _cvp_frame(lat.basis.tobytes(), lat.n)
    out = np.empty_like(points)
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        out[start : start + chunk] = (_closest_coords(r, block @ q) @ unimodular) @ lat.basis
    return out


_ENUMERATED_BASES = [
    D4_UNIMODULAR @ d4().basis,
    np.random.default_rng(16).normal(size=(5, 5)),
    np.array([[1.7]]),
]


@pytest.mark.parametrize("basis", _ENUMERATED_BASES, ids=["d4-file", "random-5d", "1d"])
@pytest.mark.parametrize("chunk", [CVP_ROWS, 7])
def test_enumeration_bit_identical_to_row_major_oracle(monkeypatch, basis, chunk):
    # Bases without a fast rule: every bit of `nearest`, `reduce`,
    # `residual_norms2`, `sample_voronoi` and `voronoi_norms2` is that of
    # enumeration's row-major answers, and `nearest_enumerated` is them.
    monkeypatch.setattr("expbounds.lattices.CVP_ROWS", chunk)
    lat = Lattice("enumerated", basis)
    rng = np.random.default_rng(17)
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        for pts in (
            rng.uniform(-3.0, 3.0, size=(count, lat.n)),
            0.5 * rng.integers(-8, 9, size=(count, lat.n)),
            -0.5 * rng.integers(-8, 9, size=(count, lat.n)),
        ):
            want = _row_major_enumerated(lat, pts, chunk)
            _assert_same_bits(lat.nearest_enumerated(pts), want)
            _assert_same_bits(lat.nearest(pts), want)
            _assert_same_bits(lat.reduce(pts), pts - want)
            norms2, outside = lat.residual_norms2(pts)
            _assert_same_bits(norms2, ((pts - want) ** 2).sum(axis=1))
            _assert_same_bits(outside, (want != 0.0).any(axis=1))
        u = np.random.default_rng(count).random((count, lat.n)) @ lat.basis
        got = lat.sample_voronoi(count, np.random.default_rng(count))
        _assert_same_bits(got, u - _row_major_enumerated(lat, u, chunk))
        norms2 = lat.voronoi_norms2(count, np.random.default_rng(count))
        _assert_same_bits(norms2, (got ** 2).sum(axis=1))


def _whole_lattice_figures(lat, samples, seed):
    """Oracle: `lattice_figures` on whole arrays, as it was before streaming,
    with the row-major decoders (or enumeration for a basis file)."""
    near = lat.nearest_enumerated if lat.decoder == "" else lambda u: _row_major_nearest(lat, u)
    rng = np.random.default_rng(seed)
    n, v = lat.n, lat.volume
    u = rng.random((samples, n)) @ lat.basis
    x = u - near(u)
    norms2 = (x ** 2).sum(axis=1)
    sigma2 = norms2.mean() / n
    stderr = norms2.std(ddof=1) / math.sqrt(samples) / n
    u = rng.random((_DEEP_HOLE_PROBES, n)) @ lat.basis
    probe_pts = u - near(u)
    return LatticeFigures(
        n=n, volume=v, second_moment=float(sigma2), second_moment_stderr=float(stderr),
        nsm=float(sigma2 / v ** (2.0 / n)), r_eff=(v / unit_ball_volume(n)) ** (1.0 / n),
        r_cov=lat.covering_radius_bound(),
        deep_hole_probe=float(np.sqrt((probe_pts ** 2).sum(axis=1)).max()),
    )


_FIGURES_LATTICES = [
    lambda: integer_lattice(8), d4, e8, lambda: e8().rescaled(1.0 / 3.0),
    lambda: Lattice("d4-file", D4_UNIMODULAR @ d4().basis),
]
_FIGURES_IDS = ["Z8", "D4", "E8", "E8-rescaled", "d4-file"]


@pytest.mark.parametrize("make", _FIGURES_LATTICES, ids=_FIGURES_IDS)
@pytest.mark.parametrize("samples", [2, CVP_ROWS - 1, CVP_ROWS, CVP_ROWS + 1, 3 * CVP_ROWS + 7])
def test_streamed_figures_match_whole_array_oracle(make, samples):
    # Drawn, reduced and squared a block at a time, every field keeps its bits.
    lat = make()
    got = lattice_figures(lat, samples=samples, seed=samples)
    want = _whole_lattice_figures(lat, samples, samples)
    for field in dataclasses.fields(LatticeFigures):
        assert np.float64(getattr(got, field.name)).tobytes() == np.float64(
            getattr(want, field.name)).tobytes(), field.name


def test_voronoi_norms2_are_the_samples_norms():
    file_d4 = Lattice("d4-file", D4_UNIMODULAR @ d4().basis)
    for lat in (e8().rescaled(2.5), d4(), integer_lattice(3), file_d4):
        for count in (0, 1, CVP_ROWS + 5):
            want = (lat.sample_voronoi(count, np.random.default_rng(count)) ** 2).sum(axis=1)
            _assert_same_bits(lat.voronoi_norms2(count, np.random.default_rng(count)), want)


@pytest.mark.parametrize(
    "make",
    _FIGURES_LATTICES + [lambda: Lattice("line", np.array([[1.7]]))],
    ids=_FIGURES_IDS + ["1d-file"],
)
@pytest.mark.parametrize("samples", [2, CVP_ROWS - 1, CVP_ROWS + 1, 200_000])
def test_figures_peak_within_budget_estimate(make, samples):
    # `lattice_figures` refuses a sample count whose estimate, 8 bytes a
    # sample and _FIGURES_BLOCKS (CVP_ROWS, n) blocks, is over the budget;
    # the traced peak must stay below it for every decoder.  Enumeration at
    # n = 1, whose (rows,) bookkeeping is as large as its blocks, is the most.
    lat = make()
    lattice_figures(lat, samples=2)  # the cached CVP frame is built outside the count
    tracemalloc.start()
    try:
        lattice_figures(lat, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = 8 * samples + _FIGURES_BLOCKS * CVP_ROWS * lat.n * 8
    assert peak <= estimate, (peak, estimate)


@pytest.mark.parametrize(
    "make, method",
    [(e8, "nearest"), (d4, "reduce"), (e8, "residual_norms2")],
    ids=["E8-nearest", "D4-reduce", "E8-residual_norms2"],
)
@pytest.mark.parametrize("count", [CVP_ROWS + 1, 16 * CVP_ROWS])
def test_fast_path_memory_is_bounded(make, method, count):
    # Each block's temporaries are a few (CVP_ROWS, n) arrays, so beyond the
    # output, (N, n) or two (N,) arrays, the peak does not grow with the batch.
    lat = make()
    pts = np.random.default_rng(15).normal(size=(count, lat.n))
    tracemalloc.start()
    try:
        getattr(lat, method)(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pts.nbytes + 10 * CVP_ROWS * lat.n * 8, peak


def test_enumeration_chunks_do_not_change_answers(monkeypatch):
    lat = Lattice("d4-file", D4_UNIMODULAR @ d4().basis)
    pts = np.random.default_rng(10).uniform(-3.0, 3.0, size=(100, 4))
    whole = lat.nearest_enumerated(pts)
    monkeypatch.setattr("expbounds.lattices.CVP_ROWS", 7)
    _assert_same_distances(pts, lat.nearest_enumerated(pts), whole)


@pytest.mark.parametrize("chunk", [CVP_ROWS, CVP_ROWS // 4])
def test_enumeration_memory_is_bounded(monkeypatch, chunk):
    # The search state is a few (CVP_ROWS, n) arrays, whatever the basis and
    # the batch; with the smaller chunk BLOCK queries take several.
    monkeypatch.setattr("expbounds.lattices.CVP_ROWS", chunk)
    rng = np.random.default_rng(11)
    lat = Lattice("random-16d", rng.normal(size=(16, 16)))
    pts = rng.normal(size=(BLOCK, 16))
    lat.nearest_enumerated(pts[:1])  # the cached frame is built outside the count
    tracemalloc.start()
    try:
        lat.nearest_enumerated(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pts.nbytes + 16 * chunk * MAX_DIMENSION * 8, peak


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_enumeration_rejects_non_finite_queries(bad):
    # Every decoder, fast rule or enumeration, rejects such a query the same
    # way, in the first block or a later one.
    for lat in (Lattice("d4-file", D4_UNIMODULAR @ d4().basis), integer_lattice(4), d4(), e8(),
                e8().rescaled(2.5)):
        for row in (1, CVP_ROWS + 1):
            pts = np.zeros((CVP_ROWS + 3, lat.n))
            pts[row, 2] = bad
            for decode in (lat.nearest, lat.reduce, lat.nearest_enumerated):
                with pytest.raises(ValueError, match="finite"):
                    decode(pts)


def test_queries_must_have_the_lattice_dimension():
    for lat in (d4(), e8(), Lattice("d4-file", D4_UNIMODULAR @ d4().basis)):
        with pytest.raises(ValueError, match="coordinates"):
            lat.nearest(np.zeros((2, lat.n + 1)))


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
    for lat in (
        e8(),
        integer_lattice(4),
        d4(),
        Lattice("d4-file", D4_UNIMODULAR @ d4().basis),
        Lattice("random-6d", np.random.default_rng(12).normal(size=(6, 6))),
    ):
        figs = lattice_figures(lat, samples=1_000, seed=0)
        assert figs.deep_hole_probe <= figs.r_cov + 1e-9, lat.name
        assert figs.r_cov >= figs.r_eff  # covering radius cannot beat equal volume


def test_covering_radius_bound_is_basis_independent():
    # Taken on the reduced frame, the bound is the lattice's, not the file's.
    file_d4 = load_basis(DATA + "/d4.lat")
    want = d4().covering_radius_bound()
    rng = np.random.default_rng(13)
    copies = [D4_UNIMODULAR] + [_unimodular(4, rng) for _ in range(20)]
    for u in copies:
        got = Lattice("d4-copy", u @ file_d4.basis).covering_radius_bound()
        assert abs(got - want) <= 1e-12 * want
    for lat in (e8(), integer_lattice(16)):
        want = lat.covering_radius_bound()
        for _ in range(10):
            got = Lattice("copy", _unimodular(lat.n, rng) @ lat.basis).covering_radius_bound()
            assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "lat, r_cov",
    [(integer_lattice(1), 0.5), (integer_lattice(4), 1.0), (integer_lattice(16), 2.0),
     (d4(), 1.0), (e8(), 1.0)],
    ids=["Z1", "Z4", "Z16", "D4", "E8"],
)
def test_covering_radius_bound_covers_true_radius(lat, r_cov):
    # True covering radii: sqrt(n)/2 for Z^n, 1 for D4 and E8 at min norm 2.
    bound = lat.covering_radius_bound()
    assert bound >= r_cov
    copy = Lattice("copy", _unimodular(lat.n, np.random.default_rng(1)) @ lat.basis)
    assert copy.covering_radius_bound() >= r_cov


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


def _write_basis(path, basis):
    """A basis file holding `basis` bit for bit (repr round-trips a float)."""
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in basis)
    path.write_text("%d\n%s\n" % (len(basis), rows))
    return str(path)


def _content_name(basis):
    return "basis:" + hashlib.sha256(basis.astype("<f8").tobytes()).hexdigest()[:12]


def _signed_copy(lat, seed):
    """lat's basis times a random unimodular matrix with its first row negated,
    so that it never equals the built-in basis, not even at n = 1."""
    u = _unimodular(lat.n, np.random.default_rng(seed))
    u[0] *= -1.0
    return u @ lat.basis


_RECOGNISED = [
    *[("Z%d-copy" % n, _signed_copy(integer_lattice(n), n), "Zn") for n in (1, 2, 3, 8, 16)],
    ("D4-copy", _signed_copy(d4(), 4), "D4"),
    ("E8-copy", _signed_copy(e8(), 8), "E8"),
    ("benchmark-D4", D4_UNIMODULAR @ d4().basis, "D4"),
    *[("%s-rows-reversed" % name[:-4], lat.basis[::-1], lat.decoder)
      for name, lat in ((name, load_basis(os.path.join(DATA, name))) for name in sorted(os.listdir(DATA)))],
]


@pytest.mark.parametrize("basis, decoder", [c[1:] for c in _RECOGNISED],
                         ids=[c[0] for c in _RECOGNISED])
def test_load_basis_recognises_bases_of_builtin_point_sets(tmp_path, basis, decoder):
    # The file keeps its own rows and content name, and takes the fast rule.
    lat = load_basis(_write_basis(tmp_path / "copy.lat", basis))
    assert lat.decoder == decoder
    assert lat.scale == 1.0
    assert lat.basis.tobytes() == basis.astype(float).tobytes()
    assert lat.name == _content_name(lat.basis)
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(200, lat.n))
    _assert_same_distances(pts, lat.nearest(pts), Lattice("oracle", basis).nearest_enumerated(pts))


def _givens(n, angle):
    g = np.eye(n)
    g[0, 0] = g[1, 1] = math.cos(angle)
    g[0, 1], g[1, 0] = -math.sin(angle), math.sin(angle)
    return g


_NOT_RECOGNISED = {
    "index-2-sublattice": np.diag([2.0, 1.0, 1.0, 1.0]) @ D4_UNIMODULAR @ d4().basis,
    "1.5-D4": 1.5 * d4().basis,
    "rotated-D4": d4().basis @ _givens(4, 0.3),
    "D4-one-ulp-off": d4().basis + np.diag([np.spacing(1.0), 0.0, 0.0, 0.0]),
    "random": np.random.default_rng(21).normal(size=(4, 4)),
}


@pytest.mark.parametrize("basis", list(_NOT_RECOGNISED.values()), ids=list(_NOT_RECOGNISED))
def test_load_basis_keeps_other_bases_on_enumeration(tmp_path, basis):
    lat = load_basis(_write_basis(tmp_path / "other.lat", basis))
    assert lat.decoder == ""
    assert lat.name == _content_name(basis)
    assert lat.basis.tobytes() == basis.tobytes()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("basis", [D4_UNIMODULAR @ d4().basis, _signed_copy(e8(), 8)],
                         ids=["benchmark-D4", "E8-copy"])
def test_recognised_file_figures_match_enumeration(tmp_path, basis, seed):
    # Two full blocks and a partial one; every field keeps its bits.
    lat = load_basis(_write_basis(tmp_path / "copy.lat", basis))
    assert lat.decoder
    samples = 2 * CVP_ROWS + 123
    got = lattice_figures(lat, samples=samples, seed=seed)
    want = lattice_figures(Lattice(lat.name, lat.basis), samples=samples, seed=seed)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)


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
    with pytest.raises(ValueError):
        Lattice("empty", np.eye(0))


def test_singularity_check_is_scale_free():
    tiny = d4().rescaled(1e-4)
    assert tiny.volume == pytest.approx(2e-16, rel=1e-12)
    lat = Lattice("tiny-z4", 1e-4 * np.eye(4))
    pts = np.random.default_rng(12).uniform(-3e-4, 3e-4, size=(50, 4))
    assert np.allclose(lat.nearest_enumerated(pts), 1e-4 * np.round(pts / 1e-4), rtol=0.0, atol=1e-18)
    with pytest.raises(ValueError, match="singular"):
        Lattice("equal-rows", np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
