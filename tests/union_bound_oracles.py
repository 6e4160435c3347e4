"""Brute-force union-bound minimizers: the tests' oracles for the closed forms.

The library takes each union-bound minimum in closed form: `regions.f_bnd`
and `awgn.sphere_packing_exponent` for the AWGN cone's (beta, d) error event,
`modlam.maximizers_lattice` for the scaled lattice's (l, d, beta).  Here the
same minima are searched numerically: golden-section search over the cone
event, Nelder-Mead over the lattice event, each from the per-event union-bound
exponent.  The tests check the closed forms against these searches.
"""

import math

from expbounds.awgn import beta_star, rate_of_theta
from expbounds.channel import ChannelSpec
from expbounds.modlam import ScalingSpec, l_circ_star
from expbounds.numerics import _EPS
from expbounds.regions import (
    critical_rate_of_theta_d,
    joint_tail_exponent,
    theta_d_of_chord,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_min(f, lo, hi, tol=1e-10):
    """Minimize a unimodal scalar function on [lo, hi] by golden-section search.

    Returns (x, f(x)).
    """
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


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


def beta_star_cone(theta: float, theta_d: float, spec: ChannelSpec) -> float:
    """Optimal radial offset of the cone union bound."""
    r_theta = rate_of_theta(theta)
    if r_theta > critical_rate_of_theta_d(theta_d, spec):
        return beta_star(theta, spec)
    return math.cos(theta_d / 2.0) ** 2


def cone_union_min(theta, R, spec: ChannelSpec):
    """Minimize the cone union exponent over (beta, d).

    Golden-section search over d with the closed-form beta, then over beta
    at that d; returns (d, beta, value).
    """

    def at_d(d):
        b = beta_star_cone(theta, theta_d_of_chord(d), spec)
        return union_bound_exponent_cone(theta, d, b, R, spec)

    hi = min(2.0, 2.0 * math.sin(theta)) - 1e-9  # widest chord inside the cone
    d_opt, _ = golden_min(at_d, 1e-9, hi, tol=1e-11)
    b_opt, val = golden_min(
        lambda b: union_bound_exponent_cone(theta, d_opt, b, R, spec),
        -1.0 + _EPS,
        1.0,
        tol=1e-11,
    )
    return d_opt, b_opt, val


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


def beta_star_lattice(r, d, l, scaling: ScalingSpec, spec: ChannelSpec):
    """Optimal radial offset of the lattice union bound."""
    if rate_of_scaled_radius(r, scaling.alpha) > critical_rate_lattice(
        d, l, scaling, spec
    ):
        return beta_circ_star(r, d, l, scaling, spec)
    return d * d / (4.0 * l * l) * (l - scaling.k_alpha)


def lattice_union_min(r, scaling: ScalingSpec, spec: ChannelSpec, R):
    """Minimize the lattice union exponent over (l, d, beta).

    Uses the closed-form beta and the analytic warm starts, then refines
    (l, d) by Nelder-Mead; returns (l, d, beta, value).
    """
    k_a = scaling.k_alpha

    def at_ld(l, d):
        try:
            beta = beta_star_lattice(r, d, l, scaling, spec)
        except ValueError:
            return math.inf
        return union_bound_exponent_lattice(r, k_a, l, d, beta, R, spec)

    from scipy import optimize

    l0 = l_circ_star(r, k_a, spec)
    d0 = math.sqrt(2.0) * r

    def objective(v):
        l, d = v
        if l <= k_a or not 0.0 <= d < 2.0 * l:
            return math.inf
        return at_ld(l, d)

    best = optimize.minimize(
        objective,
        [l0, d0],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    l_opt, d_opt = best.x
    beta_opt = beta_star_lattice(r, d_opt, l_opt, scaling, spec)
    val = union_bound_exponent_lattice(r, k_a, l_opt, d_opt, beta_opt, R, spec)
    return l_opt, d_opt, beta_opt, val
