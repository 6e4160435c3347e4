"""Channel description and shared value types.

All rates and exponents are in nats (natural log) internally; the CLI layer
converts bits and dB.  Distances are chord lengths normalized by sqrt(n*P),
so they live in [0, 2] and the data model never carries n or P.
"""

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
    """An AWGN channel at a given SNR (linear power ratio P/sigma^2)."""

    snr: float

    def __post_init__(self):
        if not 0.0 < self.snr < math.inf:
            raise ValueError("snr must be positive and finite, got %r" % (self.snr,))

    @property
    def capacity_nats(self):
        return 0.5 * math.log1p(self.snr)


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


@dataclass(frozen=True)
class CriticalRates:
    """Capacity, critical/crossing rates, critical distance for one channel."""

    c: float
    r_crit: float
    r_x: float
    d_crit: float

    def __post_init__(self):
        if not (0.0 < self.r_x < self.r_crit < self.c):
            raise ValueError("expected 0 < r_x < r_crit < c")
        if not (0.0 < self.d_crit < math.sqrt(2.0)):
            raise ValueError("d_crit out of range (0, sqrt(2))")
