"""Closed-form AWGN error exponents, critical rates, and cone geometry.

Conventions: rates in nats, distances normalized by sqrt(n*P).  The cone
half-angle associated with a rate is theta(R) = arcsin(e^{-R}).

Each closed form is one function of (R, spec).  The SNR-only constants it
reads (C, R_crit, r_x, d_crit and E_r's offset) are `ChannelSpec` attributes,
computed once per channel by the functions here, so one rate and a whole
`modlam.exponent_table` run the same code.  E_sp and rho_G come from one
kernel, the exponent of leaving Shannon's cone of half-angle theta(R), and
the constants from one root of SNR/2; none of them cancels or overflows.
"""

import math

from .channel import (
    CAPACITY_SLACK,
    ChannelSpec,
    ExponentValue,
    EXPURGATED,
    RANDOM_CODING,
    SPHERE_PACKING,
    ZERO,
)


def capacity(spec: ChannelSpec) -> float:
    """Channel capacity in nats per channel use."""
    return spec.capacity_nats


def theta_of_rate(R: float) -> float:
    """Cone half-angle theta(R) = arcsin(e^{-R})."""
    if R < 0.0:
        raise ValueError("rate must be non-negative")
    return math.asin(math.exp(-R))


def rate_of_theta(theta: float) -> float:
    """Inverse of theta_of_rate: R(theta) = -ln(sin theta)."""
    return -math.log(math.sin(theta))


def _radial_offset(R: float, spec: ChannelSpec) -> float:
    """beta* of the cone exit at rate R in [0, C], from R itself, in terms
    that do not cancel: beta* = -2k/(2 - c^2 + c sqrt(c^2 + 4/s)) with
    c^2 = -expm1(-2R), s = SNR and k = expm1(2(C - R))/s, which is 0 at C.
    Up to R_crit k is taken as e^{-2R} - c^2/s, which loses at most a bit
    there and is exact as R -> 0, where expm1(2C) != SNR in floats.  Near C
    it is limited by C's own rounding: about 2 ulp(C)/(C - R) relative.
    """
    s = spec.snr
    c2 = -math.expm1(-2.0 * R)
    c = math.sqrt(c2)
    if R <= spec.r_crit:
        k = math.exp(-2.0 * R) - c2 / s
    else:
        k = math.expm1(2.0 * (spec.capacity_nats - R)) / s
    # hypot(c, 2/sqrt(s)) is sqrt(c^2 + 4/s), whose 4/s overflows at tiny SNR.
    return -2.0 * k / (2.0 - c2 + c * math.hypot(c, 2.0 / math.sqrt(s)))


def _cone_exit(R: float, spec: ChannelSpec):
    """(E_sp, rho_G) at 0 < R < C: the received vector leaving the cone of
    half-angle theta(R), as `leave_cone_exponent` has it, in terms that do
    not cancel.  With beta* from `_radial_offset`, c^2 = -expm1(-2R) and
    mu* = e^z, z = 2(asinh(c sqrt(SNR)/2) - R): E_sp = beta*^2 SNR/2 +
    (expm1(z) - z)/2, two terms >= 0, and rho_G = -dE_sp/dR = expm1(z)/c^2.
    Near C both are limited by C's own rounding, as beta* is.
    """
    s = spec.snr
    c2 = -math.expm1(-2.0 * R)
    c = math.sqrt(c2)
    rs = math.sqrt(s)
    beta = _radial_offset(R, spec)
    z = 2.0 * (math.asinh(0.5 * c * rs) - R)
    t = math.expm1(z)
    if -0.125 < z < 0.125:  # expm1(z) - z cancels: its series to z^11/11! (< 4e-18 left out)
        h = z * z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720 + z * (
            1 / 5040 + z * (1 / 40320 + z * (1 / 362880 + z * (1 / 3628800 + z / 39916800)))))))))
    else:
        h = t - z
    return 0.5 * (beta * beta * s + h), t / c2


def rho_g(R: float, spec: ChannelSpec) -> float:
    """Optimal rho of the sphere-packing exponent at rate R: -dE_sp/dR.

    From E_sp's kernel: sqrt(SNR/(2R)) down to the smallest positive R, 1 at
    R_crit, 0 from C on, and within C's rounding a few ulps either side of 0
    just below it.  Rates R <= 0 and rates clearly above C raise.
    """
    if R <= 0.0:
        raise ValueError("rho_g diverges as R -> 0; require R > 0")
    if R > spec.capacity_nats * CAPACITY_SLACK:
        raise ValueError("rho_g is defined up to capacity; R > C")
    return 0.0 if R >= spec.capacity_nats else _cone_exit(R, spec)[1]


def sphere_packing_exponent(R: float, spec: ChannelSpec) -> float:
    """Sphere-packing exponent E_sp(R); tight upper bound above the critical rate.

    The exponent of leaving the cone of half-angle theta(R) (`_cone_exit`).
    At R = 0, where rho_G diverges, it is its limit SNR/2; 0 from C on.
    """
    if R < 0.0:
        raise ValueError("rate must be non-negative")
    if R >= spec.capacity_nats:
        return 0.0
    return spec.snr / 2.0 if R == 0.0 else _cone_exit(R, spec)[0]


def _root_excess(spec: ChannelSpec):
    """(b, m) with b = SNR/2 and m = sqrt(1 + b^2) - 1 taken as
    b (b / (1 + hypot(1, b))): no cancellation at low SNR, and no b^2, which
    overflows from SNR ~ 1.3e154.  R_crit, r_x and beta'_G each read it once."""
    b = 0.5 * spec.snr
    return b, b * (b / (1.0 + math.hypot(1.0, b)))


def beta_g_prime(spec: ChannelSpec) -> float:
    """The beta value pinning the critical rate: e^{2 R_crit} = 1 + (b + m)/2."""
    b, m = _root_excess(spec)
    return 1.0 + 0.5 * (b + m)


def critical_rate(spec: ChannelSpec) -> float:
    """R_crit = 1/2 ln(1/2 + SNR/4 + 1/2 sqrt(1 + SNR^2/4)) = 1/2 log1p((b + m)/2)."""
    b, m = _root_excess(spec)
    return 0.5 * math.log1p(0.5 * (b + m))


def critical_distance(spec: ChannelSpec) -> float:
    """Normalized chord of the dominating error event at and below R_crit:
    sqrt(2 + 4/SNR - 2 sqrt(1 + 4/SNR^2)) as sqrt(2/beta'_G), which cancels at no SNR."""
    return math.sqrt(2.0 / beta_g_prime(spec))


def _chord_gap(R: float) -> float:
    """1 - sqrt(1 - e^{-2R}) as e^{-2R} / (1 + sqrt(-expm1(-2R))), which does
    not cancel at high rate; 1 for R <= 0."""
    R = max(R, 0.0)
    return math.exp(-2.0 * R) / (1.0 + math.sqrt(-math.expm1(-2.0 * R)))


def min_distance(R: float) -> float:
    """Largest normalized minimum distance of a rate-R spherical ensemble.

    d_min(R) = sqrt(2 - 2 sqrt(1 - e^{-2R})); equals sqrt(2) at R=0.
    """
    return math.sqrt(2.0 * _chord_gap(R))


def rate_x(spec: ChannelSpec) -> float:
    """Rate where the expurgated and random-coding exponents meet.

    E^x - E_r is tangent to zero there, at the crossing d_min(R) = d_crit:
    R_x = 1/2 ln(1/2 (1 + sqrt(1 + b^2))) = 1/2 log1p(m/2), with b and m
    from `_root_excess`.  About SNR^2/32 at low SNR, it underflows to 0
    below SNR ~ 1e-161.
    """
    return 0.5 * math.log1p(0.5 * _root_excess(spec)[1])


def random_coding_exponent(R: float, spec: ChannelSpec, e_sp=None) -> float:
    """Random-coding exponent: affine with slope -1 below R_crit, E_sp above.

    `e_sp`, E_sp at R if the caller has it, is taken above R_crit.
    """
    if R < 0.0 or R > spec.capacity_nats * CAPACITY_SLACK:
        raise ValueError("rate must be in [0, C]")
    if R > spec.r_crit:
        val = sphere_packing_exponent(R, spec) if e_sp is None else e_sp
    else:
        val = 0.5 * (spec.e_r_offset - 2.0 * R)  # E_sp's tangent at R_crit
    return max(val, 0.0)


def expurgated_exponent(R: float, spec: ChannelSpec) -> float:
    """Expurgated (minimum-distance) exponent (SNR/4)(1 - sqrt(1 - e^{-2R}))."""
    if R < 0.0:
        raise ValueError("rate must be non-negative")
    return spec.snr / 4.0 * _chord_gap(R)


def awgn_exponent(R: float, spec: ChannelSpec) -> ExponentValue:
    """Best lower bound on the AWGN exponent: expurgated below r_x, else random coding."""
    curve = _awgn_curve(R, spec)
    if curve == EXPURGATED:
        return ExponentValue(expurgated_exponent(R, spec), EXPURGATED)
    if curve == SPHERE_PACKING:
        return ExponentValue(sphere_packing_exponent(R, spec), SPHERE_PACKING)
    if curve == RANDOM_CODING:
        return ExponentValue(random_coding_exponent(R, spec), RANDOM_CODING)
    # E_r meets 0 at C.
    return ExponentValue(0.0, ZERO if R > spec.capacity_nats else RANDOM_CODING)


def _awgn_curve(R, spec):
    """The curve `awgn_exponent` takes at R: ZERO at and above C, E_x up to
    r_x, E_sp above R_crit and E_r between."""
    if R >= spec.capacity_nats:
        return ZERO
    if R <= spec.r_x:
        return EXPURGATED
    if R > spec.r_crit:
        return SPHERE_PACKING
    return RANDOM_CODING


def tail_exponents(mu: float):
    """Chernoff exponents of chi-square and Gaussian tails at threshold mu.

    E_h(mu) = 1/2 (mu - 1 - ln mu) for mu >= 1 else 0 governs
    P(||z||^2 >= mu n sigma^2);  E_v(mu) = mu/2 governs the radial component.
    Returns (E_h, E_v).
    """
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    e_h = 0.5 * (mu - 1.0 - math.log(mu)) if mu >= 1.0 else 0.0
    return e_h, mu / 2.0


def beta_star(theta: float, spec: ChannelSpec) -> float:
    """Radial offset of the dominating cone-exit event.

    beta*(theta) = cos^2(theta)/2 + (cos(theta)/2) sqrt(cos^2(theta) + 4/SNR) - 1.
    At theta = pi/2 the cone degenerates to a half-space; return the limit -1.
    """
    if not 0.0 < theta <= math.pi / 2.0:
        raise ValueError("theta must be in (0, pi/2]")
    if theta == math.pi / 2.0:
        return -1.0
    c = math.cos(theta)
    return c * c / 2.0 + (c / 2.0) * math.sqrt(c * c + 4.0 / spec.snr) - 1.0


def leave_cone_exponent(theta: float, spec: ChannelSpec) -> float:
    """Exponent of the event that the received vector leaves the cone.

    The minimum of E_v(beta^2 SNR) + E_h(r(beta)^2 SNR) over beta > -1 with
    r(beta) = (1+beta) tan(theta).  Where tan^2(theta) SNR > 1 it is reached
    at `beta_star`, the root of the smooth branch's derivative, and there
    r(beta)^2 SNR > 1; otherwise (R(theta) >= C) it is 0 at beta = 0.  For
    R(theta) between the critical rate and capacity this equals the
    sphere-packing exponent at R(theta).
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must be in (0, pi/2)")
    snr = spec.snr
    tan_t = math.tan(theta)
    if tan_t * tan_t * snr <= 1.0:
        return 0.0
    beta = beta_star(theta, spec)
    e_h, _ = tail_exponents(((1.0 + beta) * tan_t) ** 2 * snr)
    return max(beta * beta * snr / 2.0 + e_h, 0.0)


def typical_chord(R: float, floor: float, spec: ChannelSpec) -> float:
    """Normalized chord of the typical error event of an ensemble at rate R.

    `floor` is the ensemble's distance floor: d_min(R) for the spherical code,
    e^{-R} for the mod-lattice coset ensemble.  Above R_crit the chord is
    sqrt(2) e^{-R}; at and below it, max(floor, d_crit).
    """
    if R < 0.0 or R > spec.capacity_nats * CAPACITY_SLACK:
        raise ValueError("rate must be in [0, C]")
    if R > spec.r_crit:
        return math.sqrt(2.0) * math.exp(-R)
    return max(floor, spec.d_crit)
