"""Bounding-region geometry for the AWGN union bound.

Covers the joint tail exponents, the cone union bound with its optimal
(beta, d) substituted in closed form (`f_bnd`), tangent-sphere scalings and
their self-noise ratio K_alpha, the theta_zeta / K_zeta parametrization of
the sphere-packing curve, solved in u = K_zeta SNR - 1, and the typical error
event that the spherical and coset ensembles share.  The geometry's roots (u
here, the lattice l* in `modlam`) come from one sign-only bisection over the
fixed bracket of `exp`'s range, `_root_of_exp`.

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


def _root_of_exp(f):
    """e^x at the sign change of f(e^x), x bisected over [-745, 709].

    f must rise through 0 as x does.  The bracket is the range of `exp`: it
    never grows, and the bisection stops when its ends are adjacent floats,
    after 53 to 117 halvings on the tests' references.  Only the sign of f
    is read, so nothing is raised here; a root outside the bracket returns
    its nearer end.
    """
    lo, hi = -745.0, 709.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return math.exp(hi)
        if f(math.exp(mid)) < 0.0:
            lo = mid
        else:
            hi = mid


def _self_noise(c2: float, spec: ChannelSpec) -> float:
    """K_alpha = 1/alpha* - 1 of the tangent sphere of a cone with cos^2 = c2:
    (sqrt(1 + x) - 1)/2 with x = 4/(SNR c2), as x/(2(1 + sqrt(1 + x))), which
    does not cancel."""
    x = 4.0 / (spec.snr * c2)
    return x / (2.0 * (1.0 + math.sqrt(1.0 + x)))


def tangent_sphere_scaling(theta: float, spec: ChannelSpec) -> float:
    """Scaling alpha* that turns the cone into a tangent sphere.

    alpha* = alpha_s(beta*(theta)) with alpha_s(beta) = cos^2(theta)/(1+beta),
    so 1/alpha* = (1 + sqrt(1 + 4/(SNR cos^2 theta)))/2 = 1 + K_alpha.  The
    tangent sphere has radius sin(theta)/alpha*.
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must be in (0, pi/2)")
    return 1.0 / (1.0 + _self_noise(math.cos(theta) ** 2, spec))


def _zeta_u(d: float, R: float, spec: ChannelSpec) -> float:
    """u = K_zeta SNR - 1 of the sphere-packing curve point below R_crit.

    K_zeta is the root of the stationarity function
    z(K) = -1 + K (2R + (1 - d^2/4) SNR) + K ln(d^2 (1 - d^2/4) K^2 SNR / (K (1+K) SNR - 1))
    on K > 1/SNR.  With K = (1+u)/SNR and w = SNR u/(1+u), z/K is
    g(u) = A + w - log1p(w/(1+u)), A = 2R + ln(d^2 (1 - d^2/4)) - SNR d^2/4,
    whose order-SNR terms cancel by hand.  g rises strictly from A at u = 0
    to A + SNR, so u is its one root, which sits near 0 at high SNR, where
    K SNR - 1 would lose it.
    """
    snr, d2 = spec.snr, d * d
    if d2 < 1.0:
        log_area = 2.0 * math.log(d) + math.log1p(-0.25 * d2)
    else:  # d^2 (1 - d^2/4) = 1 - (1 - d^2/2)^2 nears 1
        log_area = math.log1p(-(1.0 - 0.5 * d2) ** 2)
    a = 2.0 * R + log_area - 0.25 * snr * d * d

    def g(u):
        w = snr * (u / (1.0 + u))
        return a + w - math.log1p(w / (1.0 + u))

    return _root_of_exp(g)


def k_zeta(d: float, R: float, spec: ChannelSpec) -> float:
    """Bounding-sphere parameter K_zeta = (1 + u)/SNR below R_crit (`_zeta_u`)."""
    return (1.0 + _zeta_u(d, R, spec)) / spec.snr


@dataclass(frozen=True)
class TypicalEvent:
    """Typical error event of an ensemble at one rate.

    d is its chord, theta the smallest cone angle whose union bound matches
    the ensemble's exponent, k_alpha the self-noise ratio (1 - alpha)/alpha
    of its tangent-sphere scaling alpha, and k_zeta the bounding-sphere
    parameter below R_crit (None at and above it).
    """

    d: float
    theta: float
    k_alpha: float
    k_zeta: float | None

    @property
    def alpha(self) -> float:
        """Tangent-sphere scaling 1/(1 + K_alpha)."""
        return 1.0 / (1.0 + self.k_alpha)

    @property
    def radius(self) -> float:
        """Smallest scaled-sphere radius reproducing the exponent: sin(theta)/alpha."""
        return math.sin(self.theta) * (1.0 + self.k_alpha)


def typical_event(R: float, floor: float, spec: ChannelSpec) -> TypicalEvent:
    """Typical error event at rate R of the ensemble with distance floor `floor`.

    The spherical code's floor is d_min(R), the mod-lattice coset ensemble's
    is e^{-R}; nothing else tells the two apart.  At and above R_crit theta
    is theta(R) and K_alpha the tangent sphere's there (cos^2 theta(R) is
    1 - e^{-2R}).  Below it theta is the sphere-packing curve's angle
    atan(sqrt(K_zeta (1 + K_zeta) SNR - 1)), taken from u = K_zeta SNR - 1 as
    atan(sqrt(u + (1 + u) K_zeta)), and K_alpha = 1/((1 - d^2/4) SNR).
    K_alpha is continuous at R_crit, where d = d_crit.
    """
    if not 0.0 < R <= spec.capacity_nats:
        raise ValueError("rate must be in (0, C]")
    d = typical_chord(R, floor, spec)
    if R >= spec.r_crit:
        return TypicalEvent(d, theta_of_rate(R), _self_noise(-math.expm1(-2.0 * R), spec), None)
    u = _zeta_u(d, R, spec)
    k = (1.0 + u) / spec.snr
    theta = math.atan(math.sqrt(u + (1.0 + u) * k))
    return TypicalEvent(d, theta, 1.0 / ((1.0 - d * d / 4.0) * spec.snr), k)


def alpha_awgn_r(R: float, spec: ChannelSpec) -> float:
    """Scaling achieving the random-coding exponent: alpha*_s at max(R, R_crit)."""
    return 1.0 / (1.0 + _self_noise(-math.expm1(-2.0 * max(R, spec.r_crit)), spec))
