"""Bounding-region geometry for the AWGN union bound.

Covers the joint tail exponents, the cone union bound with its optimal
(beta, d) substituted in closed form (`f_bnd`), tangent-sphere scalings, the
theta_zeta / K_zeta parametrization of the sphere-packing curve, and the
typical error event that the spherical and coset ensembles share.

Angles are radians; theta_D(d) = 2 arcsin(d/2) is the angle subtended at the
origin by a chord of normalized length d.
"""

import math
from dataclasses import dataclass

from .awgn import (
    rate_of_theta,
    sphere_packing_exponent,
    theta_of_rate,
    typical_chord,
)
from .channel import ChannelSpec
from .numerics import bisect_root


def theta_d_of_chord(d: float) -> float:
    """Angle subtended by a chord of normalized length d: 2 arcsin(d/2)."""
    if not 0.0 <= d <= 2.0:
        raise ValueError("chord must be in [0, 2]")
    return 2.0 * math.asin(d / 2.0)


def joint_tail_exponent(x: float, y: float, tau: float) -> float:
    """Exponent of P(|z_1| >= sqrt(n) x, ||z|| <= sqrt(n) y), noise var 1/tau.

    Equals tau x^2/2 when y^2 - x^2 >= 1/tau (and bounds ||z_2..n|| <= sqrt(n) y
    there too), else 1/2 [tau y^2 - ln(e tau (y^2 - x^2))].
    """
    if not (y > x >= 0.0):
        raise ValueError("require y > x >= 0")
    gap = y * y - x * x
    if gap >= 1.0 / tau:
        return tau * x * x / 2.0
    return 0.5 * (tau * y * y - math.log(math.e * tau * gap))


def critical_rate_of_theta_d(theta_d: float, spec: ChannelSpec) -> float:
    """Rate threshold separating the two branches of the optimal cone beta:
    -1/2 ln((1 + SNR c^2 s^2)/(1 + SNR c^2)), c and s the cosine and sine of
    theta_d/2, as two log1p's, which cancel to no error at any chord or SNR."""
    snr_c2 = spec.snr * math.cos(theta_d / 2.0) ** 2
    return 0.5 * (math.log1p(snr_c2) - math.log1p(snr_c2 * math.sin(theta_d / 2.0) ** 2))


def f_bnd(d: float, theta: float, R: float, spec: ChannelSpec) -> float:
    """Union-bound exponent with the optimal beta substituted.

    Case 1 (R(theta) above the chord's critical threshold):
        E_sp(R(theta)) - ln(sin theta) - R.
    Case 2: SNR d^2/8 - ln(d sqrt(1 - d^2/4)) - R.
    Below rate_ii, E_II is this bound at the coset ensemble's typical event;
    from rate_ii up E_II is E_r, and the tests check it against this bound.
    """
    if d <= 0.0 or d >= 2.0:
        return math.inf
    r_theta = rate_of_theta(theta)
    if r_theta > critical_rate_of_theta_d(theta_d_of_chord(d), spec):
        # -ln(sin theta) is r_theta, and x - y is x + (-y)
        return sphere_packing_exponent(r_theta, spec) + r_theta - R
    return (
        spec.snr * d * d / 8.0
        - math.log(d * math.sqrt(1.0 - d * d / 4.0))
        - R
    )


def tangent_sphere_scaling(theta: float, spec: ChannelSpec) -> float:
    """Scaling alpha* that turns the cone into a tangent sphere.

    alpha* = alpha_s(beta*(theta)) with alpha_s(beta) = cos^2(theta)/(1+beta),
    so 1/alpha* = (1 + sqrt(1 + 4/(SNR cos^2 theta)))/2.  The tangent sphere
    has radius sin(theta)/alpha*.
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must be in (0, pi/2)")
    c2 = math.cos(theta) ** 2
    return 1.0 / (0.5 * (1.0 + math.sqrt(1.0 + 4.0 / (spec.snr * c2))))


def theta_zeta(K: float, spec: ChannelSpec) -> float:
    """Cone angle of the sphere-packing curve point parametrized by K >= 1/SNR."""
    snr = spec.snr
    if K < 1.0 / snr:
        raise ValueError("require K >= 1/SNR")
    return math.asin(math.sqrt(1.0 - 1.0 / (K * (1.0 + K) * snr)))


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
    return bisect_root(lambda K: z_of_k(K, d, R, spec), lo)


def event_alpha(d: float, R: float, spec: ChannelSpec) -> float:
    """Exponent-optimal tangent-sphere scaling of the typical event with chord d.

    alpha*_s(theta(R)) at and above R_crit; below it 1/(1 + K) with
    K = 1/((1 - d^2/4) SNR).  Continuous at R_crit, where d = d_crit.
    """
    if R >= spec.r_crit:
        return tangent_sphere_scaling(theta_of_rate(R), spec)
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
    k = k_zeta(d, R, spec) if R < spec.r_crit else None
    theta = theta_of_rate(R) if k is None else theta_zeta(k, spec)
    return TypicalEvent(d, theta, event_alpha(d, R, spec), k)


def alpha_awgn_r(R: float, spec: ChannelSpec) -> float:
    """Scaling achieving the random-coding exponent: alpha*_s at max(R, R_crit)."""
    return tangent_sphere_scaling(theta_of_rate(max(R, spec.r_crit)), spec)
