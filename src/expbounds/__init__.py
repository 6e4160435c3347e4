"""Error-exponent bounds and typical-error geometry for the power-constrained
Gaussian channel and its mod-lattice variant, with Monte Carlo validation.

The closed forms need only `math`.  The lattice and simulator names, which
need numpy and scipy, are imported on first use (PEP 562).
"""

import importlib

from .channel import (
    ChannelSpec,
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
    expurgated_exponent,
    min_distance,
    random_coding_exponent,
    rate_x,
    rho_g,
    sphere_packing_exponent,
    theta_of_rate,
    typical_chord,
)
from .regions import (
    TypicalEvent,
    alpha_awgn_r,
    f_bnd,
    k_zeta,
    tangent_sphere_scaling,
    typical_event,
)
from .modlam import (
    ScalingSpec,
    modlambda_exponent,
    rate_ii,
)

__version__ = "0.1.0"

# Name -> the submodule that defines it, imported on first access.
_LAZY = {
    "Lattice": "lattices",
    "d4": "lattices",
    "e8": "lattices",
    "integer_lattice": "lattices",
    "lattice_figures": "lattices",
    "load_basis": "lattices",
    "SimConfig": "simulator",
    "SimResult": "simulator",
    "simulate": "simulator",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)
