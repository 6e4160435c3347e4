"""Closed-form AWGN error exponents, critical rates, and cone geometry.

Conventions: rates in nats, distances normalized by sqrt(n*P).  The cone
half-angle associated with a rate is theta(R) = arcsin(e^{-R}).

Each closed form is one function of (R, spec).  The SNR-only constants it
reads (C, R_crit, r_x, d_crit and E_r's offset) are `ChannelSpec` attributes,
computed once per channel by the functions here, so one rate and a whole
`modlam.exponent_table` run the same code.
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


def gallager_eg(beta: float, rho: float, R: float, spec: ChannelSpec) -> float:
    """Two-parameter exponent function underlying the sphere-packing bound.

    E(beta, rho) = 1/2 [ (1-beta)(1+rho) + SNR + rho ln(beta)
                         + ln(beta - SNR/(1+rho)) - 2 rho R ].
    """
    if beta <= 0.0 or rho < 0.0:
        raise ValueError("require beta > 0 and rho >= 0")
    snr = spec.snr
    inner = beta - snr / (1.0 + rho)
    if inner <= 0.0:
        raise ValueError("log argument beta - SNR/(1+rho) must be positive")
    offset = (1.0 - beta) * (1.0 + rho) + snr + rho * math.log(beta) + math.log(inner)
    return 0.5 * (offset - 2.0 * rho * R)


def rho_g(R: float, spec: ChannelSpec) -> float:
    """Optimal rho for the sphere-packing exponent at rate R.

    rho_G = SNR/(2 beta_G) (1 + sqrt(1 + 4 beta_G / (SNR (beta_G - 1)))) - 1
    with beta_G = e^{2R}; beta_G - 1 is taken as expm1(2R), which stays
    exact as R -> 0; below R ~ 1e-300, where 4 beta_G / (SNR (beta_G - 1))
    would overflow, the root is taken in factors, so rho_G stays finite down
    to the smallest positive R.  Equals 0 at capacity and 1 at the critical
    rate.  Near capacity the formula cancels to a tiny negative value, which is
    clamped to 0 up to C * CAPACITY_SLACK; rates clearly above C raise.
    """
    snr = spec.snr
    if R <= 0.0:
        raise ValueError("rho_g diverges as R -> 0; require R > 0")
    if R > spec.capacity_nats * CAPACITY_SLACK:
        raise ValueError("rho_g is defined up to capacity; R > C")
    beta_g = math.exp(2.0 * R)
    em1 = math.expm1(2.0 * R)
    if snr * em1 > 1e-300:
        root = math.sqrt(1.0 + 4.0 * beta_g / (snr * em1))
    else:
        # The 1 under the root is far below the ratio's last bit here.
        root = 2.0 * math.sqrt(beta_g / snr) / math.sqrt(em1)
    rho = snr / (2.0 * beta_g) * (1.0 + root) - 1.0
    return max(rho, 0.0)


def sphere_packing_exponent(R: float, spec: ChannelSpec) -> float:
    """Sphere-packing exponent E_sp(R); tight upper bound above the critical rate.

    At R = 0, where rho_G diverges, it is its limit SNR/2; 0 from C on.
    """
    if R >= spec.capacity_nats:
        return 0.0
    if R == 0.0:
        return spec.snr / 2.0
    return max(gallager_eg(math.exp(2.0 * R), rho_g(R, spec), R, spec), 0.0)


def beta_g_prime(spec: ChannelSpec) -> float:
    """The beta value pinning the critical rate: e^{2 R_crit}."""
    snr = spec.snr
    return 0.5 * (1.0 + snr / 2.0 + math.sqrt(1.0 + snr * snr / 4.0))


def critical_rate(spec: ChannelSpec) -> float:
    """R_crit = 1/2 ln(1/2 + SNR/4 + 1/2 sqrt(1 + SNR^2/4))."""
    return 0.5 * math.log(beta_g_prime(spec))


def critical_distance(spec: ChannelSpec) -> float:
    """Normalized chord of the dominating error event at and below R_crit."""
    snr = spec.snr
    return math.sqrt(2.0 + 4.0 / snr - 2.0 * math.sqrt(1.0 + 4.0 / (snr * snr)))


def min_distance(R: float) -> float:
    """Largest normalized minimum distance of a rate-R spherical ensemble.

    d_min(R) = sqrt(2 - 2 sqrt(1 - e^{-2R})); equals sqrt(2) at R=0.
    """
    return math.sqrt(2.0 - 2.0 * math.sqrt(max(0.0, -math.expm1(-2.0 * R))))


def rate_x(spec: ChannelSpec) -> float:
    """Rate where the expurgated and random-coding exponents meet.

    E^x - E_r is tangent to zero there, at the crossing d_min(R) = d_crit:
    R_x = 1/2 ln(1/2 (1 + sqrt(1 + a))) with a = SNR^2/4.  Since
    1/2 (1 + sqrt(1 + a)) - 1 = a / (2 (1 + sqrt(1 + a))), it is evaluated
    as 1/2 log1p of that, which does not cancel at low SNR.
    """
    a = spec.snr * spec.snr / 4.0
    return 0.5 * math.log1p(a / (2.0 * (1.0 + math.sqrt(1.0 + a))))


def random_coding_exponent(R: float, spec: ChannelSpec, e_sp=None) -> float:
    """Random-coding exponent: affine with slope -1 below R_crit, E_sp above.

    `e_sp`, E_sp at R if the caller has it, is taken above R_crit.
    """
    if R < 0.0 or R > spec.capacity_nats * CAPACITY_SLACK:
        raise ValueError("rate must be in [0, C]")
    if R > spec.r_crit:
        val = sphere_packing_exponent(R, spec) if e_sp is None else e_sp
    else:
        val = 0.5 * (spec.e_r_offset - 2.0 * R)  # gallager_eg(beta'_G, 1, R)
    return max(val, 0.0)


def expurgated_exponent(R: float, spec: ChannelSpec) -> float:
    """Expurgated (minimum-distance) exponent (SNR/4)(1 - sqrt(1 - e^{-2R}))."""
    if R < 0.0:
        raise ValueError("rate must be non-negative")
    return spec.snr / 4.0 * (1.0 - math.sqrt(max(0.0, -math.expm1(-2.0 * R))))


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
