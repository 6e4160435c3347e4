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

from .awgn import (
    _awgn_curve,
    expurgated_exponent,
    random_coding_exponent,
    sphere_packing_exponent,
    theta_of_rate,
    typical_chord,
)
from .channel import (
    CAPACITY_SLACK,
    ChannelSpec,
    ExponentValue,
    EXPURGATED,
    RANDOM_CODING,
    SPHERE_PACKING,
    ZERO,
)
from .numerics import bisect_root
from .regions import f_bnd


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


def rate_ii(spec: ChannelSpec) -> float:
    """Largest rate where the distance-e^{-R} ensemble beats random coding."""
    return max(0.0, -math.log(spec.d_crit))


def modlambda_exponent(R, spec: ChannelSpec) -> ExponentValue:
    """Exponent E_II of the distance-e^{-R} coset ensemble.

    Below rate_ii it improves on random coding: the union bound `f_bnd` of
    the typical event at the chord e^{-R}.  From rate_ii up it is the
    random-coding exponent, which is E_sp above R_crit.
    """
    return ExponentValue(*_modlambda(R, spec))


def _modlambda(R, spec, e_r=None):
    """E_II at R and its regime; the regime picks the value.  `e_r`, E_r at
    R if the caller has it, is taken from rate_ii up."""
    if not 0.0 <= R <= spec.capacity_nats * CAPACITY_SLACK:
        raise ValueError("rate must be in [0, C]")
    if R < rate_ii(spec):  # empty below SNR 8/3, where rate_ii = 0
        d = typical_chord(R, math.exp(-R), spec)
        return max(f_bnd(d, theta_of_rate(R), R, spec), 0.0), EXPURGATED
    if e_r is None:
        e_r = random_coding_exponent(R, spec)
    return e_r, RANDOM_CODING if R <= spec.r_crit else SPHERE_PACKING


def exponent_table(rates, spec: ChannelSpec):
    """(E_sp, E_r, E_x, E_awgn, E_II) at each rate, one tuple a rate.

    Each value is bit-equal to its per-point function's (`.value` for E_awgn
    and E_II).  The table computes E_sp once a rate, takes E_r from it, and
    E_awgn and E_II from those.
    """
    return [_table_row(R, spec) for R in rates]


def _table_row(R, spec):
    e_sp = sphere_packing_exponent(R, spec)
    e_r = random_coding_exponent(R, spec, e_sp)
    e_x = expurgated_exponent(R, spec)
    e_awgn = {ZERO: 0.0, EXPURGATED: e_x, SPHERE_PACKING: e_sp, RANDOM_CODING: e_r}[
        _awgn_curve(R, spec)
    ]
    return e_sp, e_r, e_x, e_awgn, _modlambda(R, spec, e_r)[0]
