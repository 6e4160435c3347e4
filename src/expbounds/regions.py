"""Bounding-region geometry for the AWGN union bound.

Covers the joint tail exponents, the cone union-bound exponent and its
optimal (beta, d), the valid-region envelope, tangent-sphere scalings, the
theta_zeta / K_zeta parametrization of the sphere-packing curve, and the
typical error event that the spherical and coset ensembles share.

Angles are radians; theta_D(d) = 2 arcsin(d/2) is the angle subtended at the
origin by a chord of normalized length d.
"""

import math
from dataclasses import dataclass

from .awgn import (
    beta_star,
    critical_rate,
    critical_distance,
    rate_of_theta,
    sphere_packing_exponent,
    theta_of_rate,
    typical_chord,
)
from .channel import ChannelSpec
from .numerics import _EPS, bisect_root, golden_min

ABOVE_CRITICAL = "above-critical"
BELOW_CRITICAL = "below-critical"


def theta_d_of_chord(d: float) -> float:
    """Angle subtended by a chord of normalized length d: 2 arcsin(d/2)."""
    if not 0.0 <= d <= 2.0:
        raise ValueError("chord must be in [0, 2]")
    return 2.0 * math.asin(d / 2.0)


def joint_tail_exponent(x: float, y: float, tau: float) -> float:
    """Exponent of P(|z_1| >= sqrt(n) x, ||z_rest|| <= sqrt(n) y), noise var 1/tau.

    Equals tau x^2/2 when y^2 - x^2 >= 1/tau, else
    1/2 [tau y^2 - ln(e tau (y^2 - x^2))].
    """
    if not (y > x >= 0.0):
        raise ValueError("require y > x >= 0")
    gap = y * y - x * x
    if gap >= 1.0 / tau:
        return tau * x * x / 2.0
    return 0.5 * (tau * y * y - math.log(math.e * tau * gap))


def ebd(beta: float, x: float, y: float, tau: float) -> float:
    """Radial-plus-cross-section tail exponent tau beta^2/2 + joint tail."""
    return tau * beta * beta / 2.0 + joint_tail_exponent(x, y, tau)


def cone_cross_section(beta: float, theta_d: float, theta: float):
    """Half-space offset and cone radius at radial height (1+beta).

    x_c = (1+beta) tan(theta_d / 2), y_c = (1+beta) tan(theta).
    """
    if beta == -1.0:
        return 0.0, 0.0  # cone apex
    if beta < -1.0:
        raise ValueError("beta must be >= -1")
    if not 0.0 < theta_d / 2.0 <= theta < math.pi / 2.0:
        raise ValueError("require 0 < theta_d/2 <= theta < pi/2")
    return (1.0 + beta) * math.tan(theta_d / 2.0), (1.0 + beta) * math.tan(theta)


def union_bound_exponent_cone(theta, d, beta, R, spec: ChannelSpec) -> float:
    """Union-bound exponent for a cone region, one (beta, d) error event.

    Ebd(beta, x_c, y_c; SNR) - 1/2 ln[d^2 (1 - d^2/4)] - R.  The dominating
    event minimizes this over (beta, d).  Saturated (inf) at d in {0, 2}.
    """
    if not 0.0 <= d <= 2.0:
        raise ValueError("chord must be in [0, 2]")
    if d <= _EPS or d >= 2.0 - _EPS:
        return math.inf
    theta_d = theta_d_of_chord(d)
    if theta_d / 2.0 > theta:
        return math.inf  # chord wider than the cone cross-section: empty event
    x_c, y_c = cone_cross_section(beta, theta_d, theta)
    if y_c <= x_c:
        return math.inf
    return (
        ebd(beta, x_c, y_c, spec.snr)
        - 0.5 * math.log(d * d * (1.0 - d * d / 4.0))
        - R
    )


def critical_rate_of_theta_d(theta_d: float, spec: ChannelSpec) -> float:
    """Rate threshold separating the two branches of the optimal cone beta."""
    snr = spec.snr
    c_half = math.cos(theta_d / 2.0)
    arg = 1.0 - 2.0 * snr * c_half ** 4 / (2.0 + snr * (1.0 + math.cos(theta_d)))
    if arg <= 0.0:
        raise ValueError("threshold undefined for this chord angle/SNR")
    return -math.log(math.sqrt(arg))


def beta_star_cone(theta: float, theta_d: float, spec: ChannelSpec):
    """Optimal radial offset of the cone union bound; returns (beta, regime)."""
    r_theta = rate_of_theta(theta)
    if r_theta > critical_rate_of_theta_d(theta_d, spec):
        return beta_star(theta, spec), ABOVE_CRITICAL
    return math.cos(theta_d / 2.0) ** 2, BELOW_CRITICAL


def d_star_cone(theta: float, spec: ChannelSpec) -> float:
    """Chord of the dominating error event for a cone at angle theta."""
    if rate_of_theta(theta) > critical_rate(spec):
        return math.sqrt(2.0) * math.sin(theta)
    return critical_distance(spec)


def f_bnd(d: float, theta: float, R: float, spec: ChannelSpec) -> float:
    """Union-bound exponent with the optimal beta substituted.

    Case 1 (R(theta) above the chord's critical threshold):
        E_sp(R(theta)) - ln(sin theta) - R.
    Case 2: SNR d^2/8 - ln(d sqrt(1 - d^2/4)) - R.
    """
    if d <= _EPS or d >= 2.0 - _EPS:
        return math.inf
    r_theta = rate_of_theta(theta)
    if r_theta > critical_rate_of_theta_d(theta_d_of_chord(d), spec):
        return sphere_packing_exponent(r_theta, spec).value - math.log(math.sin(theta)) - R
    return (
        spec.snr * d * d / 8.0
        - math.log(d * math.sqrt(1.0 - d * d / 4.0))
        - R
    )


def cone_union_min(theta, R, spec: ChannelSpec, d_floor: float = 0.0):
    """Minimize the cone union exponent over (beta, d >= d_floor).

    Nested golden-section warm-checked against the closed forms; returns
    (d, beta, value).
    """

    def at_d(d):
        b, _ = beta_star_cone(theta, theta_d_of_chord(d), spec)
        return union_bound_exponent_cone(theta, d, b, R, spec)

    lo = max(d_floor, 1e-9)
    hi = min(2.0, 2.0 * math.sin(theta)) - 1e-9  # widest chord inside the cone
    d_opt, _ = golden_min(at_d, lo, hi, tol=1e-11)
    if d_floor > 0.0 and at_d(d_floor) < at_d(d_opt):
        d_opt = d_floor
    b_opt, val = golden_min(
        lambda b: union_bound_exponent_cone(theta, d_opt, b, R, spec),
        -1.0 + _EPS,
        1.0,
        tol=1e-11,
    )
    return d_opt, b_opt, val


def smallest_valid_region(R, spec: ChannelSpec, beta_grid):
    """Envelope r(beta) of the smallest region matching the cone-exit exponent.

    For each beta, solves E_v(beta^2 SNR) + E_h(r^2 SNR) = E_sp(R) for r.
    Returns a list aligned with beta_grid; None marks a pinched-off slice
    (radial exponent alone already exceeds E_sp).
    """
    if not critical_rate(spec) < R < spec.capacity_nats:
        raise ValueError("rate must be between the critical rate and capacity")
    snr = spec.snr
    e_sp = sphere_packing_exponent(R, spec).value
    profile = []
    for beta in beta_grid:
        target = e_sp - beta * beta * snr / 2.0
        if target < 0.0:
            profile.append(None)
            continue
        # E_h(mu) = (mu - 1 - ln mu)/2 is increasing for mu >= 1.
        mu = bisect_root(
            lambda m: 0.5 * (m - 1.0 - math.log(m)) - target, 1.0, tol=1e-12
        )
        profile.append(math.sqrt(mu / snr))
    return profile


def tangent_sphere_scaling(theta: float, spec: ChannelSpec):
    """Scaling that turns the cone into a tangent sphere.

    Returns (alpha_of_beta, alpha_star, radius): alpha_s(beta) =
    cos^2(theta)/(1+beta); alpha* evaluates it at beta*(theta), with
    1/alpha* = (1 + sqrt(1 + 4/(SNR cos^2 theta)))/2; radius = sin(theta)/alpha*.
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must be in (0, pi/2)")
    c2 = math.cos(theta) ** 2

    def alpha_of_beta(beta):
        return c2 / (1.0 + beta)

    alpha_star = 1.0 / (0.5 * (1.0 + math.sqrt(1.0 + 4.0 / (spec.snr * c2))))
    return alpha_of_beta, alpha_star, math.sin(theta) / alpha_star


def theta_zeta(K: float, spec: ChannelSpec) -> float:
    """Cone angle of the sphere-packing curve point parametrized by K >= 1/SNR."""
    snr = spec.snr
    if K < 1.0 / snr:
        raise ValueError("require K >= 1/SNR")
    return math.asin(math.sqrt(1.0 - 1.0 / (K * (1.0 + K) * snr)))


def sphere_param(K: float, spec: ChannelSpec) -> float:
    """Sphere-packing exponent along the K-parametrization.

    Equals E_sp(R(theta_zeta(K))); vanishes at K = 1/SNR (capacity point).
    """
    snr = spec.snr
    if K < 1.0 / snr:
        raise ValueError("require K >= 1/SNR")
    return (-1.0 + K * snr - K * math.log(1.0 + 1.0 / K - 1.0 / (K * K * snr))) / (
        2.0 * K
    )


def z_of_k(K: float, d: float, R: float, spec: ChannelSpec) -> float:
    """Stationarity function whose root picks the bounding-sphere parameter."""
    snr = spec.snr
    denom = K * (1.0 + K) * snr - 1.0
    if denom <= 0.0:
        raise ValueError("require K (1+K) SNR > 1")
    return (
        -1.0
        + K * (2.0 * R + (1.0 - d * d / 4.0) * snr)
        + K * math.log(d * d * (1.0 - d * d / 4.0) * K * K * snr / denom)
    )


def k_zeta(d: float, R: float, spec: ChannelSpec) -> float:
    """Unique root of z_of_k on (1/SNR, inf), by bisection with bracket growth."""
    lo = 1.0 / spec.snr + 1e-12
    return bisect_root(lambda K: z_of_k(K, d, R, spec), lo, tol=1e-12)


def event_alpha(d: float, R: float, spec: ChannelSpec) -> float:
    """Exponent-optimal tangent-sphere scaling of the typical event with chord d.

    alpha*_s(theta(R)) at and above R_crit; below it 1/(1 + K) with
    K = 1/((1 - d^2/4) SNR).  Continuous at R_crit, where d = d_crit.
    """
    if R >= critical_rate(spec):
        return tangent_sphere_scaling(theta_of_rate(R), spec)[1]
    k_alpha = 1.0 / ((1.0 - d * d / 4.0) * spec.snr)
    return 1.0 / (1.0 + k_alpha)


@dataclass(frozen=True)
class TypicalEvent:
    """Typical error event of an ensemble at one rate.

    d is its chord, theta the smallest cone angle whose union bound matches
    the ensemble's exponent, alpha its tangent-sphere scaling, and k_zeta the
    bounding-sphere root below R_crit (None at and above it).
    """

    d: float
    theta: float
    alpha: float
    k_zeta: float | None

    @property
    def radius(self) -> float:
        """Smallest scaled-sphere radius reproducing the exponent: sin(theta)/alpha."""
        return math.sin(self.theta) / self.alpha


def typical_event(R: float, floor: float, spec: ChannelSpec) -> TypicalEvent:
    """Typical error event at rate R of the ensemble with distance floor `floor`.

    The spherical code's floor is d_min(R), the mod-lattice coset ensemble's
    is e^{-R}; nothing else tells the two apart.  Below R_crit theta is
    theta_zeta of the k_zeta root (one bisection), else theta(R).
    """
    if not 0.0 < R <= spec.capacity_nats:
        raise ValueError("rate must be in (0, C]")
    d = typical_chord(R, floor, spec)
    k = k_zeta(d, R, spec) if R < critical_rate(spec) else None
    theta = theta_of_rate(R) if k is None else theta_zeta(k, spec)
    return TypicalEvent(d, theta, event_alpha(d, R, spec), k)


def alpha_awgn_r(R: float, spec: ChannelSpec) -> float:
    """Scaling achieving the random-coding exponent: alpha*_s at max(R, R_crit)."""
    return tangent_sphere_scaling(theta_of_rate(max(R, critical_rate(spec))), spec)[1]

