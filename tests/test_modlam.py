"""Mod-lattice exponent machinery: closed-form identities and branch logic."""

import math

import numpy as np
import pytest
import union_bound_oracles as ub

from expbounds.channel import ChannelSpec, EXPURGATED, RANDOM_CODING, SPHERE_PACKING
from expbounds import awgn, modlam, regions
from expbounds.numerics import bisect_root

SNR10 = ChannelSpec(10.0)

# 40-digit reference values at snr = 10.
KA_RCRIT = 0.10990195135927848  # both branches of K_alpha* at the critical rate
KA_02 = 0.12013166596499905
R_II = 0.51028120559406462
EII_03 = 0.75980241315801483


def test_scaling_spec():
    sc = modlam.ScalingSpec(0.8)
    assert abs(sc.k_alpha - 0.25) < 1e-15
    with pytest.raises(ValueError):
        modlam.ScalingSpec(1.5)


def test_mmse_alpha():
    assert abs(modlam.mmse_alpha(SNR10).alpha - 10.0 / 11.0) < 1e-15


def _event_scaling(d_omega, r, spec):
    """Tangent-sphere scaling of the typical event with chord floor d_omega."""
    return modlam.ScalingSpec(regions.event_alpha(awgn.typical_chord(r, d_omega, spec), r, spec))


def _matched_geometry(r_rate):
    """Scaled-lattice parameters that mirror the cone geometry at rate r_rate."""
    theta = awgn.theta_of_rate(r_rate)
    alpha = regions.tangent_sphere_scaling(theta, SNR10)
    scaling = modlam.ScalingSpec(alpha)
    return (
        theta,
        scaling,
        1.0 / alpha,
        math.sqrt(2.0) * math.sin(theta) / alpha,
        math.sin(theta) / alpha,
    )


def test_offset_identity_with_cone():
    # l - K_alpha - beta_circ* = 1 + beta*(theta) under the matched scaling.
    for r in (0.95, 1.1):
        theta, scaling, l, d, radius = _matched_geometry(r)
        beta_c = ub.beta_circ_star(radius, d, l, scaling, SNR10)
        beta_s = awgn.beta_star(theta, SNR10)
        assert abs((l - scaling.k_alpha - beta_c) - (1.0 + beta_s)) < 1e-12


def test_cross_sections_match_cone():
    for r in (0.95, 1.1):
        theta, scaling, l, d, radius = _matched_geometry(r)
        beta_c = ub.beta_circ_star(radius, d, l, scaling, SNR10)
        x_l, y_l = ub.lattice_cross_section(beta_c, l, d, radius, scaling)
        beta_s = awgn.beta_star(theta, SNR10)
        theta_d = regions.theta_d_of_chord(math.sqrt(2.0) * math.sin(theta))
        x_c, y_c = ub.cone_cross_section(beta_s, theta_d, theta)
        assert abs(x_l - x_c) < 1e-12
        assert abs(y_l - y_c) < 1e-12


def test_l_star_is_inverse_alpha():
    for r in (0.95, 1.1):
        _, scaling, l, _, radius = _matched_geometry(r)
        assert abs(modlam.l_circ_star(radius, scaling.k_alpha, SNR10) - l) < 1e-12


def test_maximizers_unconstrained():
    _, scaling, l, _, radius = _matched_geometry(1.0)
    l_star, d_star, regime = modlam.maximizers_lattice(radius, scaling, SNR10)
    assert regime == modlam.UNCONSTRAINED
    assert abs(l_star - l) < 1e-12
    assert abs(d_star - math.sqrt(2.0) * radius) < 1e-14


def test_triple_min_equals_sphere_packing():
    for r in (0.95, 1.1):
        scaling = _event_scaling(math.exp(-r), r, SNR10)
        radius = math.sin(awgn.theta_of_rate(r)) / scaling.alpha
        _, _, _, val = ub.lattice_union_min(radius, scaling, SNR10, r)
        assert abs(val - awgn.sphere_packing_exponent(r, SNR10)) < 1e-8


def test_expurgated_l_star_solves_constraint():
    # With a binding distance floor the stationary l is 1 + K_alpha when
    # K_alpha = 4 / ((4 - d^2) SNR); the floor distance then dominates.
    for r in (0.2, 0.4):
        d_omega = math.exp(-r)
        scaling = _event_scaling(d_omega, r, SNR10)
        k_a = scaling.k_alpha
        # Radius small enough that the distance floor binds.
        radius = 0.9 * d_omega * (1.0 + k_a) / math.sqrt(2.0)
        l_star, d_star, regime = modlam.maximizers_lattice(
            radius, scaling, SNR10, min_distance=d_omega
        )
        assert regime == EXPURGATED
        assert abs(d_star - d_omega * (1.0 + k_a)) < 1e-12
        assert abs(l_star - (1.0 + k_a)) < 1e-6


def _grid_scan_l_star(d_omega, scaling, spec, r):
    """Oracle: sign-change roots of the stationarity residual on a 400-cell
    grid over (K_alpha, l_hi), each refined by bisection; among them the one
    minimizing the bound exponent."""
    k_a = scaling.k_alpha
    snr = spec.snr

    def residual(l):
        num = l * l + (k_a * k_a * l * l - k_a * l ** 3) * snr
        den = k_a * (1.0 + k_a) ** 2 * (k_a - l) * snr
        return d_omega * d_omega / 4.0 - num / den

    l_hi = max(4.0, 8.0 / (k_a * snr))
    grid = [k_a + 1e-12 + (l_hi - k_a) * i / 400.0 for i in range(401)]
    roots = []
    for a, b in zip(grid[:-1], grid[1:]):
        try:
            if residual(a) * residual(b) <= 0.0:
                roots.append(bisect_root(residual, a, b, tol=1e-12))
        except (ValueError, ZeroDivisionError):
            continue
    d_lat = d_omega * (1.0 + k_a)

    def value(l):
        beta = ub.beta_star_lattice(r, d_lat, l, scaling, spec)
        return ub.union_bound_exponent_lattice(r, k_a, l, d_lat, beta, 0.0, spec)

    return min(roots, key=value)


def _floor_binding_points(geometry_radius):
    """(spec, scaling, radius, d_omega) with a binding distance floor, -40..50 dB.

    With geometry_radius the radius is r_lambda_alpha(R), as in the geometry
    report, where the floor binds from 10 dB up; otherwise it is 0.9 times
    the floor radius, which binds at every SNR."""
    for snr_db in range(-40, 51, 5):
        spec = ChannelSpec(10.0 ** (snr_db / 10.0))
        for frac in np.linspace(0.02, 1.0, 50):
            r = float(frac) * spec.capacity_nats
            d_omega = math.exp(-r)
            scaling = _event_scaling(d_omega, r, spec)
            floor_radius = d_omega * (1.0 + scaling.k_alpha) / math.sqrt(2.0)
            if geometry_radius:
                radius = regions.typical_event(r, math.exp(-r), spec).radius
            else:
                radius = 0.9 * floor_radius
            if radius < floor_radius:
                yield spec, scaling, radius, d_omega


def test_expurgated_l_star_matches_grid_scan():
    points = list(_floor_binding_points(geometry_radius=True))
    assert len(points) > 200
    for spec, scaling, radius, d_omega in points:
        l_star, _, regime = modlam.maximizers_lattice(
            radius, scaling, spec, min_distance=d_omega
        )
        assert regime == EXPURGATED
        want = _grid_scan_l_star(d_omega, scaling, spec, radius)
        assert abs(l_star - want) <= 1e-10 * want


def test_expurgated_l_star_is_the_admissible_cubic_root():
    for spec, scaling, radius, d_omega in _floor_binding_points(geometry_radius=False):
        l_star, _, regime = modlam.maximizers_lattice(
            radius, scaling, spec, min_distance=d_omega
        )
        assert regime == EXPURGATED
        # The unique root of K SNR (l-K)(l^2 - a^2) = l^2 above max(K, a).
        k_a = scaling.k_alpha
        a = d_omega * (1.0 + k_a) / 2.0
        assert l_star > max(k_a, a)
        lhs = k_a * spec.snr * (l_star - k_a) * (l_star ** 2 - a * a)
        assert abs(lhs - l_star ** 2) <= 1e-9 * l_star ** 2


def test_k_alpha_star_branches():
    r_c = awgn.critical_rate(SNR10)
    above = _event_scaling(math.exp(-(r_c + 1e-9)), r_c + 1e-9, SNR10)
    below = _event_scaling(math.exp(-(r_c - 1e-9)), r_c - 1e-9, SNR10)
    assert abs(above.k_alpha - KA_RCRIT) < 1e-7
    assert abs(below.k_alpha - KA_RCRIT) < 1e-7
    low = _event_scaling(math.exp(-0.2), 0.2, SNR10)
    assert abs(low.k_alpha - KA_02) < 1e-12


def test_rate_ii():
    assert abs(modlam.rate_ii(SNR10) - R_II) < 1e-12
    assert abs(modlam.rate_ii(SNR10) + math.log(awgn.critical_distance(SNR10))) < 1e-15


def _coset_chord(r):
    return awgn.typical_chord(r, math.exp(-r), SNR10)


def test_typical_distance_ii_branches():
    d_c = awgn.critical_distance(SNR10)
    assert abs(_coset_chord(0.3) - math.exp(-0.3)) < 1e-15
    assert abs(_coset_chord(0.7) - d_c) < 1e-15
    assert abs(_coset_chord(1.0) - math.sqrt(2.0) * math.exp(-1.0)) < 1e-15


def test_modlambda_exponent_value_and_regimes():
    low = modlam.modlambda_exponent(0.3, SNR10)
    assert low.regime == EXPURGATED
    assert abs(low.value - EII_03) < 1e-10
    assert abs(_coset_chord(0.3) - math.exp(-0.3)) < 1e-15
    mid = modlam.modlambda_exponent(0.7, SNR10)
    assert mid.regime == RANDOM_CODING
    assert abs(mid.value - awgn.random_coding_exponent(0.7, SNR10)) < 1e-8
    high = modlam.modlambda_exponent(1.0, SNR10)
    assert high.regime == SPHERE_PACKING
    assert abs(high.value - awgn.sphere_packing_exponent(1.0, SNR10)) < 1e-10


@pytest.mark.parametrize("snr", [1.0, 2.6, 2.7, 10.0])
def test_modlambda_regime_at_zero_rate(snr):
    # rate_ii is 0 up to SNR 8/3 (d_crit >= 1): the interval [0, rate_ii) is
    # empty there, and E_II(0) is E_r(0).  Above it R = 0 is expurgated.
    spec = ChannelSpec(snr)
    at_zero = modlam.modlambda_exponent(0.0, spec)
    e_r = awgn.random_coding_exponent(0.0, spec)
    if snr < 8.0 / 3.0:
        assert modlam.rate_ii(spec) == 0.0
        assert at_zero.regime == RANDOM_CODING
        assert abs(at_zero.value - e_r) < 1e-12
    else:
        assert modlam.rate_ii(spec) > 0.0
        assert at_zero.regime == EXPURGATED
        assert at_zero.value > e_r


# The north star's SNR range on a half-dB grid, -40 to 50 dB.
HALF_DB_SNRS = [10.0 ** (k / 20.0) for k in range(-80, 101)]


def _rates_to_c(spec):
    """A 50-step grid from 0 to C, with r_x, R_crit, rate_ii and C and their
    neighbouring floats."""
    c = spec.capacity_nats
    rates = [c * k / 50 for k in range(51)]
    for at in (spec.r_x, spec.r_crit, modlam.rate_ii(spec), c):
        rates += [math.nextafter(at, 0.0), at, math.nextafter(at, math.inf)]
    return sorted(rates)


def test_exponent_ordering_chain():
    # From rate_ii up E_II is E_r's float, so E_II <= E_awgn holds there with
    # no tolerance above r_x; up to r_x E_awgn is E_x, which can sit an ulp
    # under E_r near their tangent point.  The coset ensemble's typical event
    # reproduces E_II on every row.
    for snr in HALF_DB_SNRS:
        spec = ChannelSpec(snr)
        r_ii = modlam.rate_ii(spec)
        for r in _rates_to_c(spec):
            e_r = awgn.random_coding_exponent(r, spec)
            e_ii = modlam.modlambda_exponent(r, spec).value
            e_a = awgn.awgn_exponent(r, spec).value
            if r >= r_ii:
                assert e_ii == e_r, (snr, r)
            else:
                assert e_r <= e_ii + 1e-9, (snr, r)
            assert e_ii <= e_a + (0.0 if r >= r_ii and r > spec.r_x else 1e-9), (snr, r)
            d = awgn.typical_chord(r, math.exp(-r), spec)
            geometry = regions.f_bnd(d, awgn.theta_of_rate(r), r, spec)
            assert abs(geometry - e_ii) <= 1e-14 * max(1.0, e_ii), (snr, r)
        assert modlam.modlambda_exponent(spec.capacity_nats, spec).value == 0.0, snr


def test_strict_improvement_below_rate_x():
    r = 0.3  # below the expurgated junction
    e_r = awgn.random_coding_exponent(r, SNR10)
    e_ii = modlam.modlambda_exponent(r, SNR10).value
    e_a = awgn.awgn_exponent(r, SNR10).value
    assert e_ii > e_r + 1e-3
    assert e_ii < e_a - 1e-3


def test_alpha_lambda_continuous_at_critical_rate():
    r_c = awgn.critical_rate(SNR10)
    below, above = (regions.typical_event(r, math.exp(-r), SNR10) for r in (r_c - 1e-9, r_c + 1e-9))
    gap = abs(below.alpha - above.alpha)
    assert gap < 1e-7


def test_r_lambda_alpha_positive_and_finite():
    for r in (0.3, 0.7, 1.0):
        val = regions.typical_event(r, math.exp(-r), SNR10).radius
        assert 0.0 < val < 2.0


_PER_POINT = (
    awgn.sphere_packing_exponent,
    awgn.random_coding_exponent,
    awgn.expurgated_exponent,
    lambda r, spec: awgn.awgn_exponent(r, spec).value,
    lambda r, spec: modlam.modlambda_exponent(r, spec).value,
)


@pytest.mark.parametrize("snr", [1e-4, 0.01, 1.0, 8.0 / 3.0, 10.0, 1e3, 1e5])
def test_exponent_table_is_bit_equal_to_the_per_point_functions(snr):
    # Every table value is its function's, bit for bit, and E_II is E_r's
    # float from rate_ii up.
    spec = ChannelSpec(snr)
    rates = _rates_to_c(spec)
    table = modlam.exponent_table(rates, spec)
    assert len(table) == len(rates)
    for r, row in zip(rates, table):
        want = [f(r, spec).hex() for f in _PER_POINT]
        assert [v.hex() for v in row] == want, r
        if r >= modlam.rate_ii(spec):
            assert row[4].hex() == row[1].hex(), r
