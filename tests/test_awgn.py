"""Core exponent curves against frozen high-precision reference values.

Reference numbers were computed independently at 40-digit precision from the
closed forms and are asserted here at float64-appropriate tolerances.
"""

import math

import pytest
from union_bound_oracles import golden_min

from expbounds.channel import (
    ChannelSpec,
    EXPURGATED,
    RANDOM_CODING,
    SPHERE_PACKING,
)
from expbounds import awgn
from expbounds.numerics import bisect_root

SNR10 = ChannelSpec(10.0)
SNR1 = ChannelSpec(1.0)

# 40-digit reference values, snr = 10 unless suffixed.
C10 = 1.1989476363991853
RCRIT10 = 0.8568547958740373
BETA_GP10 = 5.549509756796392
DCRIT10 = 0.6003267398366377
RX10 = 0.5574904211116982
ER0 = 1.0079806643153058
ER03 = 0.7079806643153058
EX03 = 0.8207360914935572
ESP10_1 = 0.045909455604278849
ESP10_07 = 0.36417852006956919
ESP_RCRIT = 0.15112586844126855
RHO_G_1 = 0.49503731905470243
DMIN03 = 0.81030171738362108
EX_RX = 0.45049024320360758
C1 = 0.34657359027997265
RCRIT1 = 0.13463823477963079
ESP1_03 = 0.0030750989537927033


def test_capacity():
    assert abs(awgn.capacity(SNR10) - C10) < 1e-12
    assert abs(awgn.capacity(SNR1) - C1) < 1e-12


def test_critical_rate():
    assert abs(awgn.critical_rate(SNR10) - RCRIT10) < 1e-12
    assert abs(awgn.critical_rate(SNR1) - RCRIT1) < 1e-12


def test_beta_g_prime():
    assert abs(awgn.beta_g_prime(SNR10) - BETA_GP10) < 1e-11


def test_critical_distance():
    assert abs(awgn.critical_distance(SNR10) - DCRIT10) < 1e-12


def test_critical_distance_identities():
    d = awgn.critical_distance(SNR10)
    assert abs(d - math.sqrt(2.0 / awgn.beta_g_prime(SNR10))) < 1e-15
    assert abs(d - math.sqrt(2.0) * math.exp(-awgn.critical_rate(SNR10))) < 1e-15


def test_rate_x():
    assert abs(awgn.rate_x(SNR10) - RX10) < 1e-9


def test_rate_x_is_branch_junction():
    r_x = awgn.rate_x(SNR10)
    e_x = awgn.expurgated_exponent(r_x, SNR10)
    e_r = awgn.random_coding_exponent(r_x, SNR10)
    assert abs(e_x - EX_RX) < 1e-9
    assert abs(e_x - e_r) < 1e-9
    assert abs(awgn.min_distance(r_x) - awgn.critical_distance(SNR10)) < 1e-9


# R_x = 1/2 ln(1/2 (1 + sqrt(1 + SNR^2/4))) at 50 digits (mpmath, 60-digit work
# precision), over the whole supported SNR range.
RX_MPMATH = {
    1e-4: 3.1249999970703125040690104099909464638392130304376e-10,
    1e-2: 3.1249707035318943660666124920506907931040880035041e-06,
    10.0: 0.55749042111169823582908206385910901983570500706636,
    1e5: 5.0633255519251682339610799685860672556891583568942,
}


@pytest.mark.parametrize("snr", sorted(RX_MPMATH))
def test_rate_x_matches_mpmath(snr):
    want = RX_MPMATH[snr]
    assert abs(awgn.rate_x(ChannelSpec(snr)) - want) <= 1e-14 * want


# At SNR 10 and small R, 20 digits of 60-digit mpmath values: rho_G, which
# holds beta_G - 1 = e^(2R) - 1, and E_x = (SNR/4)(1 - sqrt(1 - e^(-2R))).
SMALL_RATE_MPMATH = {
    1e-17: (707106785.18654753147, 2.4999999888196601125),
    1e-12: (2236071.9775020257544, 2.499996464466094069),
    1e-6: (2240.0702035491433553, 2.4964644678618334788),
    0.01: (26.467216262740778679, 2.1482070327127340638),
}


@pytest.mark.parametrize("rate", sorted(SMALL_RATE_MPMATH))
def test_small_rate_cancellations_match_mpmath(rate):
    rho, e_x = SMALL_RATE_MPMATH[rate]
    assert abs(awgn.rho_g(rate, SNR10) - rho) <= 1e-14 * rho
    assert abs(awgn.expurgated_exponent(rate, SNR10) - e_x) <= 1e-15 * e_x
    assert abs(awgn.min_distance(rate) ** 2 - 8.0 * e_x / 10.0) <= 1e-15


@pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 1e3, 1e5])
def test_rate_x_is_min_distance_crossing(snr):
    # The closed form is the root of the monotone crossing d_min(R) = d_crit.
    spec = ChannelSpec(snr)
    d_c = awgn.critical_distance(spec)
    root = bisect_root(
        lambda R: awgn.min_distance(R) - d_c, 1e-12, awgn.critical_rate(spec), tol=1e-12
    )
    assert abs(root - awgn.rate_x(spec)) < 1e-9


def test_sphere_packing_values():
    assert abs(awgn.sphere_packing_exponent(1.0, SNR10) - ESP10_1) < 1e-10
    assert abs(awgn.sphere_packing_exponent(0.7, SNR10) - ESP10_07) < 1e-10
    assert abs(awgn.sphere_packing_exponent(0.3, SNR1) - ESP1_03) < 1e-10
    assert (
        abs(awgn.sphere_packing_exponent(RCRIT10, SNR10) - ESP_RCRIT) < 1e-10
    )


def test_sphere_packing_zero_at_capacity():
    assert awgn.sphere_packing_exponent(awgn.capacity(SNR10), SNR10) == 0.0
    assert awgn.sphere_packing_exponent(2.0, SNR10) == 0.0


def test_random_coding_values():
    assert abs(awgn.random_coding_exponent(0.0, SNR10) - ER0) < 1e-10
    assert abs(awgn.random_coding_exponent(0.3, SNR10) - ER03) < 1e-10


def test_random_coding_affine_below_critical():
    # Slope is exactly -1 below the critical rate.
    e_a = awgn.random_coding_exponent(0.2, SNR10)
    e_b = awgn.random_coding_exponent(0.5, SNR10)
    assert abs((e_a - e_b) - 0.3) < 1e-10


def test_random_coding_merges_with_sphere_packing():
    for r in (0.86, 1.0, 1.1):
        assert (
            abs(
                awgn.random_coding_exponent(r, SNR10)
                - awgn.sphere_packing_exponent(r, SNR10)
            )
            < 1e-12
        )


def test_expurgated_value():
    assert abs(awgn.expurgated_exponent(0.3, SNR10) - EX03) < 1e-10


def test_min_distance():
    assert abs(awgn.min_distance(0.3) - DMIN03) < 1e-12


def test_rho_g_value_and_endpoints():
    assert abs(awgn.rho_g(1.0, SNR10) - RHO_G_1) < 1e-10
    assert abs(awgn.rho_g(awgn.capacity(SNR10), SNR10)) < 1e-12
    assert abs(awgn.rho_g(awgn.critical_rate(SNR10), SNR10) - 1.0) < 1e-12


def test_rho_g_clamped_at_capacity_only():
    for snr_db in (-20.0, -5.0):
        spec = ChannelSpec(10.0 ** (snr_db / 10.0))
        c = spec.capacity_nats
        for r in (c * (1.0 - 1e-15), c, c * (1.0 + 1e-13)):
            assert awgn.rho_g(r, spec) >= 0.0
        with pytest.raises(ValueError):
            awgn.rho_g(c * 1.001, spec)


@pytest.mark.parametrize("snr", [1e-4, 10.0, 1e5])
@pytest.mark.parametrize("rate", [5e-324, 1e-310, 1e-300, 1e-290])
def test_rho_g_finite_at_subnormal_rates(snr, rate):
    # As R -> 0, rho_G -> sqrt(SNR / (2R)) and E_sp -> SNR/2.  Where
    # 4 beta_G / (SNR (beta_G - 1)) overflows, the root is taken in factors.
    spec = ChannelSpec(snr)
    rho = awgn.rho_g(rate, spec)
    want = math.sqrt(snr / 2.0) / math.sqrt(rate)
    assert abs(rho - want) <= 1e-12 * want
    assert awgn.sphere_packing_exponent(rate, spec) == 0.5 * snr


def test_awgn_exponent_dispatch():
    below = awgn.awgn_exponent(0.3, SNR10)
    assert below.regime == EXPURGATED
    assert abs(below.value - EX03) < 1e-10
    mid = awgn.awgn_exponent(0.7, SNR10)
    assert mid.regime == RANDOM_CODING
    above = awgn.awgn_exponent(1.0, SNR10)
    assert above.regime == SPHERE_PACKING
    assert abs(above.value - ESP10_1) < 1e-10


def test_awgn_exponent_piecewise_dispatch():
    # The expurgated closed form is only a valid exponent at low rates; the
    # best-known curve switches to random coding at the junction rate even
    # though the raw formula stays above it there.
    r_x = awgn.rate_x(SNR10)
    for r in (0.1, 0.4, 0.6, 0.9, 1.1):
        if r <= r_x:
            expected = awgn.expurgated_exponent(r, SNR10)
        else:
            expected = awgn.random_coding_exponent(r, SNR10)
        assert abs(awgn.awgn_exponent(r, SNR10).value - expected) < 1e-12


def test_theta_of_rate_roundtrip():
    for r in (0.2, 0.7, 1.1):
        theta = awgn.theta_of_rate(r)
        assert abs(awgn.rate_of_theta(theta) - r) < 1e-12
        assert abs(math.sin(theta) - math.exp(-r)) < 1e-15


def test_tail_exponents_closed_form():
    for mu in (1.5, 2.0, 4.0):
        e_h, e_v = awgn.tail_exponents(mu)
        assert abs(e_h - 0.5 * (mu - 1.0 - math.log(mu))) < 1e-15
        assert abs(e_v - mu / 2.0) < 1e-15
    e_h, _ = awgn.tail_exponents(0.7)
    assert e_h == 0.0  # no radial tail inside the typical shell


def test_typical_distance_branches():
    r_x = awgn.rate_x(SNR10)
    r_c = awgn.critical_rate(SNR10)
    d_c = awgn.critical_distance(SNR10)

    def chord(r):
        return awgn.typical_chord(r, awgn.min_distance(r), SNR10)

    assert abs(chord(0.3) - awgn.min_distance(0.3)) < 1e-12
    assert abs(chord(0.5 * (r_x + r_c)) - d_c) < 1e-12
    assert abs(chord(1.0) - math.sqrt(2.0) * math.exp(-1.0)) < 1e-12


def test_leave_cone_matches_sphere_packing():
    for r in (0.9, 1.0, 1.15):
        got = awgn.leave_cone_exponent(awgn.theta_of_rate(r), SNR10)
        want = awgn.sphere_packing_exponent(r, SNR10)
        assert abs(got - want) < 1e-9


@pytest.mark.parametrize("snr", [1e-4, 1e-2, 0.5, 2.0, 10.0, 1e3, 1e5])
def test_leave_cone_closed_form_matches_golden_search(snr):
    # Oracle: golden-section search of the objective over beta in (-1, 1],
    # for rates up to 1.2 C (above C the minimum is 0 at beta = 0).
    spec = ChannelSpec(snr)
    for k in range(1, 61):
        theta = awgn.theta_of_rate(k / 50.0 * spec.capacity_nats)
        tan_t = math.tan(theta)

        def objective(b):
            e_h, _ = awgn.tail_exponents(((1.0 + b) * tan_t) ** 2 * snr)
            return b * b * snr / 2.0 + e_h

        _, want = golden_min(objective, -1.0 + 1e-12, 1.0, tol=1e-10)
        got = awgn.leave_cone_exponent(theta, spec)
        assert abs(got - max(want, 0.0)) <= 1e-14 * want + 1e-16, (k, got, want)


def test_beta_star_is_leave_cone_minimizer():
    theta = awgn.theta_of_rate(1.0)
    beta = awgn.beta_star(theta, SNR10)
    snr = SNR10.snr

    def objective(b):
        e_h, _ = awgn.tail_exponents(((1.0 + b) * math.tan(theta)) ** 2 * snr)
        return b * b * snr / 2.0 + e_h

    base = objective(beta)
    for eps in (-1e-5, 1e-5):
        assert objective(beta + eps) >= base - 1e-12


def test_critical_rates_ordering():
    spec = ChannelSpec(10.0)
    assert 0.0 < spec.r_x < spec.r_crit < spec.capacity_nats
    assert spec.r_x == awgn.rate_x(spec)
    assert spec.r_crit == awgn.critical_rate(spec)
    assert spec.d_crit == awgn.critical_distance(spec)


def test_channel_constants_are_kept_and_ignored_by_equality():
    spec, fresh = ChannelSpec(10.0), ChannelSpec(10.0)
    for name in ("capacity_nats", "r_crit", "r_x", "d_crit", "e_r_offset"):
        assert getattr(spec, name) is getattr(spec, name)  # computed once, then kept
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh) == "ChannelSpec(snr=10.0)"


def test_a_channel_constant_that_raises_is_not_kept():
    # At SNR 1e-18 the argument of d_crit's outer root cancels to below 0.
    spec = ChannelSpec(1e-18)
    for _ in range(2):
        with pytest.raises(ValueError, match="math domain error"):
            spec.d_crit
    assert "d_crit" not in vars(spec)


def test_rejects_negative_rate():
    with pytest.raises(ValueError):
        awgn.sphere_packing_exponent(-0.1, SNR10)
