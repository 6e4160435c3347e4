"""Error-exponent bounds and typical-error geometry for the power-constrained
Gaussian channel and its mod-lattice variant, with Monte Carlo validation."""

from .channel import (
    ChannelSpec,
    CriticalRates,
    ExponentValue,
    bits_to_nats,
    db_to_linear,
    linear_to_db,
    nats_to_bits,
)
from .awgn import (
    awgn_exponent,
    capacity,
    critical_distance,
    critical_rate,
    critical_rates,
    expurgated_exponent,
    min_distance,
    random_coding_exponent,
    rate_x,
    rho_g,
    sphere_packing_exponent,
    theta_of_rate,
    typical_chord,
    typical_distance,
)
from .regions import (
    TypicalEvent,
    alpha_awgn_r,
    cone_union_min,
    f_bnd,
    k_zeta,
    tangent_sphere_scaling,
    typical_event,
)
from .modlam import (
    ScalingSpec,
    k_alpha_star,
    lattice_union_min,
    modlambda_exponent,
    rate_ii,
    typical_distance_ii,
)
from .lattices import Lattice, d4, e8, integer_lattice, lattice_figures, load_basis
from .simulator import SimConfig, SimResult, simulate

__version__ = "0.1.0"
