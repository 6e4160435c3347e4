"""Exponent machinery for the mod-lattice channel.

The channel scales the received signal by alpha and reduces modulo a lattice;
K_alpha = (1-alpha)/alpha measures the self-noise this injects.  All closed
forms here model the ideal (large-n) lattice limit and never consume a
concrete lattice; concrete lattices feed the simulator only.

Distances on the lattice side are pre-scaling: alpha * d corresponds to a
normalized AWGN chord.
"""

import math
from dataclasses import dataclass

from .awgn import critical_distance, critical_rate, theta_of_rate, typical_chord
from .channel import (
    CAPACITY_SLACK,
    ChannelSpec,
    ExponentValue,
    EXPURGATED,
    RANDOM_CODING,
    SPHERE_PACKING,
)
from .numerics import _EPS, bisect_root
from .regions import ebd, event_alpha, f_bnd


@dataclass(frozen=True)
class ScalingSpec:
    """Receiver scaling alpha in (0, 1] and its self-noise ratio K_alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    @property
    def k_alpha(self):
        return (1.0 - self.alpha) / self.alpha


def mmse_alpha(spec: ChannelSpec) -> ScalingSpec:
    """Capacity-optimal scaling SNR/(1+SNR) (not exponent-optimal below C)."""
    return ScalingSpec(spec.snr / (1.0 + spec.snr))


def lattice_cross_section(beta_l, l, d, r, scaling: ScalingSpec):
    """Half-space offset and sphere-slice radius in the scaled-lattice geometry.

    x = (l - (beta_l + K_alpha)) / sqrt(4 l^2 / d^2 - 1);
    y^2 = r^2 - (beta_l + K_alpha)^2.  Returns None outside the region.
    """
    k_a = scaling.k_alpha
    if not 0.0 < d < 2.0 * l:
        raise ValueError("require 0 < d < 2l")
    y2 = r * r - (beta_l + k_a) ** 2
    if y2 < 0.0:
        return None
    x = (l - (beta_l + k_a)) / math.sqrt(4.0 * l * l / (d * d) - 1.0)
    return x, math.sqrt(y2)


def union_bound_exponent_lattice(r, k_alpha, l, d, beta, R, spec: ChannelSpec):
    """Union-bound exponent of one (l, d, beta) error event, scaled-lattice region.

    Ebd(beta, x, y; SNR) - 1/2 ln[(d^2/l^2)(1 - d^2/(4 l^2))]
    - 1/2 ln[l^2/(1+K_alpha)^2] - R; saturated (inf) at the log singularities
    and outside the region.
    """
    if d <= _EPS or d >= 2.0 * l - _EPS:
        return math.inf
    cross = lattice_cross_section(beta, l, d, r, ScalingSpec(1.0 / (1.0 + k_alpha)))
    if cross is None:
        return math.inf
    x, y = cross
    if y <= x:
        return math.inf
    return (
        ebd(beta, x, y, spec.snr)
        - 0.5 * math.log((d * d / (l * l)) * (1.0 - d * d / (4.0 * l * l)))
        - 0.5 * math.log(l * l / (1.0 + k_alpha) ** 2)
        - R
    )


def rate_of_scaled_radius(r, alpha):
    """Rate carried by a scaled sphere of radius r: -ln(alpha r)."""
    return -math.log(alpha * r)


def critical_rate_lattice(d, l, scaling: ScalingSpec, spec: ChannelSpec):
    """Threshold rate separating the two branches of the optimal lattice beta."""
    k_a = scaling.k_alpha
    arg = (
        d * d / 4.0 + k_a * k_a * (1.0 - d * d / (4.0 * l * l)) + 1.0 / spec.snr
    ) / (1.0 + k_a)
    return -0.5 * math.log(arg)


def beta_circ_star(r, d, l, scaling: ScalingSpec, spec: ChannelSpec):
    """Optimal radial offset when the slice gap clears the noise variance."""
    k_a = scaling.k_alpha
    one = 1.0 - d * d / (4.0 * l * l)
    root_arg = 1.0 / (4.0 * k_a * k_a * spec.snr ** 2) + (r * r - d * d / 4.0) * one
    if root_arg < 0.0:
        raise ValueError("infeasible parameters for the offset equation")
    return l - k_a - (
        l * one + 1.0 / (2.0 * k_a * spec.snr) - math.sqrt(root_arg)
    )


ABOVE_THRESHOLD = "above-threshold"
BELOW_THRESHOLD = "below-threshold"


def beta_star_lattice(r, d, l, scaling: ScalingSpec, spec: ChannelSpec):
    """Optimal radial offset of the lattice union bound; returns (beta, regime)."""
    if rate_of_scaled_radius(r, scaling.alpha) > critical_rate_lattice(
        d, l, scaling, spec
    ):
        return beta_circ_star(r, d, l, scaling, spec), ABOVE_THRESHOLD
    return d * d / (4.0 * l * l) * (l - scaling.k_alpha), BELOW_THRESHOLD


def l_circ_star(r, k_alpha, spec: ChannelSpec):
    """Stationary l of the union bound, independent of d."""
    snr = spec.snr
    return (1.0 + math.sqrt(1.0 + 4.0 * k_alpha ** 2 * r * r * snr * snr)) / (
        2.0 * k_alpha * snr
    )


UNCONSTRAINED = "unconstrained"


def _expurgated_l_star(d_omega, scaling: ScalingSpec, spec: ChannelSpec):
    """Stationary l of the lattice union bound under a binding distance floor.

    With K = K_alpha and a = d_omega (1+K)/2 the stationarity relation is the
    cubic K SNR (l-K)(l^2 - a^2) = l^2.  On (K, a] its left side is <= 0, so
    no root lies there.  On (max(K, a), inf) the function
    g(l) = K SNR (l-K)(1 - a^2/l^2) is a product of two non-negative
    increasing factors, rising strictly from 0 to inf, so g(l) = 1 has
    exactly one root there.
    """
    k_a = scaling.k_alpha
    a = d_omega * (1.0 + k_a) / 2.0
    scale = k_a * spec.snr
    return bisect_root(
        lambda l: scale * (l - k_a) * (1.0 - (a / l) ** 2) - 1.0, max(k_a, a)
    )


def maximizers_lattice(r, scaling: ScalingSpec, spec: ChannelSpec, min_distance=0.0):
    """Dominating (l, d) of the lattice union bound; returns (l*, d*, regime).

    Unconstrained: l* = l_circ_star (independent of d), d* = sqrt(2) r.  When
    the minimum-distance floor binds (sqrt(2) r < min_distance (1+K_alpha)),
    d* sits on the floor and l* solves the constrained stationarity relation.
    """
    if r <= 0.0:
        raise ValueError("require r > 0")
    k_a = scaling.k_alpha
    if k_a <= 0.0:
        raise ValueError("l* diverges as alpha -> 1 (no self-noise)")
    d_floor = min_distance * (1.0 + k_a)
    d_free = math.sqrt(2.0) * r
    if d_free >= d_floor:
        return l_circ_star(r, k_a, spec), d_free, UNCONSTRAINED
    return _expurgated_l_star(min_distance, scaling, spec), d_floor, EXPURGATED


def k_alpha_star(d_omega, R, spec: ChannelSpec) -> ScalingSpec:
    """Exponent-optimal scaling for a distance-d_omega ensemble at R."""
    if not 0.0 < d_omega <= math.exp(-R) + 1e-9:
        raise ValueError("require 0 < d_omega <= e^{-R}")
    return ScalingSpec(event_alpha(typical_chord(R, d_omega, spec), R, spec))


def rate_ii(spec: ChannelSpec) -> float:
    """Largest rate where the distance-e^{-R} ensemble beats random coding."""
    return max(0.0, -math.log(critical_distance(spec)))


def typical_distance_ii(R, spec: ChannelSpec) -> float:
    """Typical error-event chord of the coset ensemble (floor e^{-R})."""
    return typical_chord(R, math.exp(-R), spec)


def modlambda_exponent(R, spec: ChannelSpec) -> ExponentValue:
    """Exponent of the distance-e^{-R} coset ensemble.

    Equals the sphere-packing exponent at and above the critical rate;
    improves on random coding below rate_ii.
    """
    if not 0.0 <= R <= spec.capacity_nats * CAPACITY_SLACK:
        raise ValueError("rate must be in [0, C]")
    val = f_bnd(typical_distance_ii(R, spec), theta_of_rate(R), R, spec)
    if R <= rate_ii(spec):
        regime = EXPURGATED
    elif R <= critical_rate(spec):
        regime = RANDOM_CODING
    else:
        regime = SPHERE_PACKING
    return ExponentValue(max(val, 0.0), regime)


def lattice_union_min(r, scaling: ScalingSpec, spec: ChannelSpec, R, d_floor=0.0):
    """Minimize the lattice union exponent over (l, d >= d_floor, beta).

    Uses the closed-form beta and the analytic warm starts, then refines with
    golden-section sweeps; returns (l, d, beta, value).
    """
    k_a = scaling.k_alpha

    def at_ld(l, d):
        try:
            beta, _ = beta_star_lattice(r, d, l, scaling, spec)
        except ValueError:
            return math.inf
        return union_bound_exponent_lattice(r, k_a, l, d, beta, R, spec)

    from scipy import optimize

    l0 = l_circ_star(r, k_a, spec)
    d0 = max(math.sqrt(2.0) * r, d_floor)

    def objective(v):
        l, d = v
        if l <= k_a or not d_floor <= d < 2.0 * l:
            return math.inf
        return at_ld(l, d)

    best = optimize.minimize(
        objective,
        [l0, d0],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    l_opt, d_opt = best.x
    beta_opt, _ = beta_star_lattice(r, d_opt, l_opt, scaling, spec)
    val = union_bound_exponent_lattice(r, k_a, l_opt, d_opt, beta_opt, R, spec)
    return l_opt, d_opt, beta_opt, val
