"""Cone/sphere region geometry and its union-bound identities."""

import math

import pytest
import union_bound_oracles as ub
from scipy import special

from expbounds.channel import ChannelSpec
from expbounds import awgn, regions

SNR10 = ChannelSpec(10.0)

# 40-digit reference values (independent closed-form evaluation).
KZETA_045_04 = 0.13143835621036281  # root of z(K; d=0.45, R=0.4) at snr=10
FBND_05_06_045 = 0.58791644112873090  # f_bnd(d=0.5, theta=0.6, R=0.45) at snr=10


def test_theta_d_of_chord():
    for d in (0.3, 1.0, 1.7):
        theta_d = regions.theta_d_of_chord(d)
        assert abs(2.0 * math.sin(theta_d / 2.0) - d) < 1e-14


def test_joint_tail_exponent_branches():
    snr = 10.0
    # Wide slice: only the half-space matters.
    x, y = 0.2, 1.0
    assert y * y - x * x >= 1.0 / snr
    assert abs(regions.joint_tail_exponent(x, y, snr) - snr * x * x / 2.0) < 1e-14
    # Narrow slice: the chi-square term activates.
    x, y = 0.2, 0.25
    want = 0.5 * (
        snr * y * y - math.log(math.e * snr * (y * y - x * x))
    )
    assert abs(regions.joint_tail_exponent(x, y, snr) - want) < 1e-14


def test_joint_tail_x_zero_trivial():
    # At x=0 the half-space event is sure; the exponent cannot exceed the
    # radial-only branch and the wide-slice branch is 0.
    assert regions.joint_tail_exponent(0.0, 1.0, 10.0) == 0.0


@pytest.mark.parametrize("n", [1, 2, 16, 64, 1024])
@pytest.mark.parametrize("snr", [1e-4, 1.0, 10.0, 1e5])
def test_exact_tails_within_chernoff_bounds(n, snr):
    # `validate full`'s exact laws never exceed exp(-n E); the joint one only
    # where y^2 - x^2 >= 1/SNR (`regions.joint_tail_exponent`).
    sd, half = 1.0 / math.sqrt(snr), n * snr / 2
    for r in (1.001 * sd, 1.5 * sd, 3.0 * sd, 10.0 * sd):
        e_h, _ = awgn.tail_exponents(r * r * snr)
        assert special.gammaincc(n / 2, r * r * half) <= math.exp(-n * e_h), (r, n)
    for x, y in ((0.0, sd), (0.5 * sd, 2.0 * sd), (2.0 * sd, 3.0 * sd), (sd, 10.0 * sd)):
        exact = special.erfc(x * math.sqrt(half)) * special.gammainc((n - 1) / 2, y * y * half)
        assert exact <= math.exp(-n * regions.joint_tail_exponent(x, y, snr)), (x, y, n)


def test_cone_cross_section_apex():
    assert ub.cone_cross_section(-1.0, 0.3, 0.5) == (0.0, 0.0)
    with pytest.raises(ValueError):
        ub.cone_cross_section(-1.5, 0.3, 0.5)


def test_cone_union_saturates_at_degenerate_chords():
    theta = awgn.theta_of_rate(1.0)
    assert ub.union_bound_exponent_cone(theta, 0.0, 0.1, 1.0, SNR10) == math.inf
    assert ub.union_bound_exponent_cone(theta, 2.0, 0.1, 1.0, SNR10) == math.inf


def test_cone_union_min_equals_sphere_packing():
    for r in (0.9, 1.0, 1.1):
        theta = awgn.theta_of_rate(r)
        d, beta, val = ub.cone_union_min(theta, r, SNR10)
        assert abs(val - awgn.sphere_packing_exponent(r, SNR10)) < 1e-8
        # Minimizers match their closed forms.
        assert abs(d - math.sqrt(2.0) * math.sin(theta)) < 1e-5
        assert abs(beta - awgn.beta_star(theta, SNR10)) < 1e-5


def test_f_bnd_value():
    assert abs(regions.f_bnd(0.5, 0.6, 0.45, SNR10) - FBND_05_06_045) < 1e-12


def test_f_bnd_at_critical_chord_gives_random_coding():
    d_c = awgn.critical_distance(SNR10)
    for r in (0.55, 0.7, 0.85):
        theta = regions.typical_event(r, awgn.min_distance(r), SNR10).theta
        got = regions.f_bnd(d_c, theta, r, SNR10)
        want = awgn.random_coding_exponent(r, SNR10)
        assert abs(got - want) < 1e-8


def test_f_bnd_at_min_distance_gives_expurgated():
    for r in (0.1, 0.3, 0.5):
        d = awgn.min_distance(r)
        theta = regions.typical_event(r, awgn.min_distance(r), SNR10).theta
        got = regions.f_bnd(d, theta, r, SNR10)
        want = awgn.expurgated_exponent(r, SNR10)
        assert abs(got - want) < 1e-8


def test_typical_geometry_reproduces_best_curve():
    for r in (0.1, 0.3, 0.5574, 0.7, 0.857, 1.0, 1.15):
        d = awgn.typical_chord(r, awgn.min_distance(r), SNR10)
        theta = regions.typical_event(r, awgn.min_distance(r), SNR10).theta
        got = regions.f_bnd(d, theta, r, SNR10)
        want = awgn.awgn_exponent(r, SNR10).value
        assert abs(got - want) < 1e-7


def test_sphere_param_equals_sphere_packing():
    snr = SNR10.snr
    for r in (0.9, 1.0, 1.1):
        theta = awgn.theta_of_rate(r)
        # Invert theta_zeta: K(1+K) = 1/(snr cos^2 theta).
        k = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 / (snr * math.cos(theta) ** 2)))
        assert abs(regions.theta_zeta(k, SNR10) - theta) < 1e-12
        got = (-1.0 + k * snr - k * math.log(1.0 + 1.0 / k - 1.0 / (k * k * snr))) / (2.0 * k)
        want = awgn.sphere_packing_exponent(r, SNR10)
        assert abs(got - want) < 1e-10


def test_k_zeta_value():
    assert abs(regions.k_zeta(0.45, 0.4, SNR10) - KZETA_045_04) < 1e-9


def test_z_of_k_root_residual():
    k = regions.k_zeta(0.45, 0.4, SNR10)
    assert abs(regions.z_of_k(k, 0.45, 0.4, SNR10)) < 1e-10


def test_k_zeta_at_low_snr():
    # At SNR 1e-4 the root sits near 1e4, where the float spacing exceeds
    # the bisection tolerance.
    spec = ChannelSpec(1e-4)
    r = 0.25 * spec.capacity_nats
    d = awgn.typical_chord(r, awgn.min_distance(r), spec)
    k = regions.k_zeta(d, r, spec)
    assert 1.0 / spec.snr < k < math.inf
    assert abs(regions.z_of_k(k, d, r, spec)) < 1e-9


def test_tangent_sphere_scaling_identities():
    theta_c = awgn.theta_of_rate(awgn.capacity(SNR10))
    alpha = regions.tangent_sphere_scaling(theta_c, SNR10)
    assert abs(alpha - SNR10.snr / (1.0 + SNR10.snr)) < 1e-12
    # Generic angle: closed form 1/alpha = (1 + sqrt(1 + 4/(snr cos^2)))/2.
    theta = 0.5
    alpha = regions.tangent_sphere_scaling(theta, SNR10)
    want = 1.0 / (0.5 * (1.0 + math.sqrt(1.0 + 4.0 / (SNR10.snr * math.cos(theta) ** 2))))
    assert abs(alpha - want) < 1e-14


def test_alpha_awgn_branches_and_continuity():
    r_c = awgn.critical_rate(SNR10)
    above = regions.typical_event(r_c + 1e-9, awgn.min_distance(r_c + 1e-9), SNR10).alpha
    below = regions.typical_event(r_c - 1e-9, awgn.min_distance(r_c - 1e-9), SNR10).alpha
    assert abs(above - below) < 1e-6
    assert abs(above - 0.9009804864072152) < 1e-7
    # Above the critical rate both scalings agree.
    for r in (0.9, 1.1):
        alpha = regions.typical_event(r, awgn.min_distance(r), SNR10).alpha
        assert abs(alpha - regions.alpha_awgn_r(r, SNR10)) < 1e-12


def test_theta_awgn_continuous_at_critical_rate():
    r_c = awgn.critical_rate(SNR10)
    below, above = (regions.typical_event(r, awgn.min_distance(r), SNR10) for r in (r_c - 1e-9, r_c + 1e-9))
    assert abs(below.theta - above.theta) < 1e-6


def test_both_floors_give_one_event_where_their_chords_agree():
    # The coset ensemble's event is the spherical code's at floor e^{-R}:
    # wherever the two chords coincide, so does every other field.
    agreed = 0
    for snr_db in range(-40, 55, 5):
        spec = ChannelSpec(10.0 ** (snr_db / 10.0))
        c = spec.capacity_nats
        for k in range(1, 41):
            r = c * (k / 40.0)
            sp = regions.typical_event(r, awgn.min_distance(r), spec)
            lam = regions.typical_event(r, math.exp(-r), spec)
            if sp.d == lam.d:
                agreed += 1
                assert sp == lam, (snr_db, r)
    assert agreed > 19 * 10
