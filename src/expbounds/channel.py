"""Channel description and shared value types.

All rates and exponents are in nats (natural log) internally; the CLI layer
converts bits and dB.  Distances are chord lengths normalized by sqrt(n*P),
so they live in [0, 2] and the data model never carries n or P.
"""

import functools
import math
from dataclasses import dataclass

LN2 = math.log(2.0)

# Rates up to C * CAPACITY_SLACK count as "at most C": a rate converted from
# bits, or one on a grid ending at C, can land a few ulps above it.
CAPACITY_SLACK = 1.0 + 1e-12


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


def linear_to_db(snr):
    return 10.0 * math.log10(snr)


def bits_to_nats(rate_bits):
    return rate_bits * LN2


def nats_to_bits(rate_nats):
    return rate_nats / LN2


@dataclass(frozen=True)
class ChannelSpec:
    """An AWGN channel at a given SNR (linear power ratio P/sigma^2).

    Its SNR-only constants (C, R_crit, r_x, d_crit and E_r's offset below
    R_crit) are computed on first read and kept; each closed form reads them
    here, so each is computed once per channel.  Their formulas are the
    `awgn` functions (which import this module, hence the local imports);
    none raises at a positive finite SNR, and a value is kept only once its
    formula returns.  Equality, hash and repr see `snr` alone.
    """

    snr: float

    def __post_init__(self):
        if not 0.0 < self.snr < math.inf:
            raise ValueError("snr must be positive and finite, got %r" % (self.snr,))

    @functools.cached_property
    def capacity_nats(self):
        return 0.5 * math.log1p(self.snr)

    @functools.cached_property
    def r_crit(self):
        from .awgn import critical_rate

        return critical_rate(self)

    @functools.cached_property
    def r_x(self):
        from .awgn import rate_x

        return rate_x(self)

    @functools.cached_property
    def d_crit(self):
        from .awgn import critical_distance

        return critical_distance(self)

    @functools.cached_property
    def e_r_offset(self):
        """2 (E_sp(R_crit) + R_crit): E_r is (e_r_offset - 2R)/2 at and below
        R_crit, E_sp's tangent there (E_sp has slope -rho_G = -1 at R_crit)."""
        from .awgn import sphere_packing_exponent

        return 2.0 * (sphere_packing_exponent(self.r_crit, self) + self.r_crit)


# Exponent regime tags.
SPHERE_PACKING = "sphere-packing"
RANDOM_CODING = "random-coding"
EXPURGATED = "expurgated"
ZERO = "zero"


@dataclass(frozen=True)
class ExponentValue:
    """An error exponent in nats per dimension with its regime tag."""

    value: float
    regime: str

    def __post_init__(self):
        # Tiny negatives from float cancellation at R=C are not tolerated;
        # producers must clamp explicitly at the capacity branch.
        if self.value < 0.0:
            raise ValueError("exponent must be non-negative, got %r" % (self.value,))

