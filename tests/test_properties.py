"""Property tests of the closed forms over SNR in [1e-4, 1e5] and R in [0, C].

Checked: E_r <= E_II <= E_awgn <= E_sp (also at R = 0 exactly), each
exponent non-increasing in R,
no jump at R_x, R_crit and rate_ii, and a `geometry` report with finite
fields.  Examples are derandomized, so every run draws the same ones.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from expbounds import awgn, cli, modlam
from expbounds.channel import ChannelSpec

ORDER_TOL = 1e-9
JUMP_REL_TOL = 1e-6
EDGE_REL_STEP = 1e-9

# Log-uniform SNR over the north-star range.
snrs = st.floats(-4.0, 5.0).map(lambda e: 10.0 ** e)
# A fraction of capacity in (0, 1]; 1 is drawn on its own so R = C is tried.
fractions = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
# The smallest positive rate, where 4 beta_G / (SNR (beta_G - 1)) in rho_G
# overflows, and a tiny fraction of the smallest capacity.
TINY = 5e-324


def _exponents(r, spec):
    """(E_r, E_II, E_awgn, E_sp) at rate r."""
    return (
        awgn.random_coding_exponent(r, spec),
        modlam.modlambda_exponent(r, spec).value,
        awgn.awgn_exponent(r, spec).value,
        awgn.sphere_packing_exponent(r, spec),
    )


def _rate(spec, frac):
    c = spec.capacity_nats
    rate = c if frac == 1.0 else c * frac
    assume(rate > 0.0)  # a tiny fraction of a small C underflows to R = 0
    return rate


def _assert_ordered(r, spec):
    e_r, e_ii, e_awgn, e_sp = _exponents(r, spec)
    assert e_r <= e_ii + ORDER_TOL, (spec.snr, r)
    assert e_ii <= e_awgn + ORDER_TOL, (spec.snr, r)
    assert e_awgn <= e_sp + ORDER_TOL, (spec.snr, r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(snrs, fractions)
@example(10.0, TINY)
@example(1e-4, 1e-300)
def test_exponents_are_ordered(snr, frac):
    spec = ChannelSpec(snr)
    _assert_ordered(_rate(spec, frac), spec)


def test_exponents_are_ordered_at_zero_rate():
    # R = 0 exactly, where E_sp is its limit SNR/2, on the half-dB grid.
    for k in range(-80, 101):
        _assert_ordered(0.0, ChannelSpec(10.0 ** (k / 20.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(snrs, fractions, fractions)
@example(10.0, 1.0, TINY)
def test_exponents_do_not_increase_in_rate(snr, a, b):
    spec = ChannelSpec(snr)
    lo, hi = sorted((_rate(spec, a), _rate(spec, b)))
    for e_lo, e_hi in zip(_exponents(lo, spec), _exponents(hi, spec)):
        assert e_hi <= e_lo + ORDER_TOL


@settings(max_examples=200, deadline=None, derandomize=True)
@given(snrs)
def test_exponents_are_continuous_at_their_junctions(snr):
    spec = ChannelSpec(snr)
    edges = {
        "R_x": awgn.rate_x(spec),
        "R_crit": awgn.critical_rate(spec),
        "rate_ii": modlam.rate_ii(spec),
    }
    for name, edge in edges.items():
        if edge <= 0.0:
            continue  # rate_ii is 0 when d_crit >= 1: no junction inside (0, C]
        below = _exponents(edge * (1.0 - EDGE_REL_STEP), spec)
        above = _exponents(edge * (1.0 + EDGE_REL_STEP), spec)
        for e_below, e_above in zip(below, above):
            jump = abs(e_below - e_above) / max(e_below, e_above)
            assert jump <= JUMP_REL_TOL, (name, edge, e_below, e_above)


def _numbers(doc):
    """Every number in a JSON document, nested fields included."""
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _numbers(value)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(snrs, fractions)
@example(10.0, TINY)
@example(1e-4, 1e-300)
def test_geometry_report_is_finite(snr, frac):
    rate = _rate(ChannelSpec(snr), frac)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["geometry", "--snr", repr(snr), "--rate-nats", repr(rate)])
    assert code == 0, (snr, rate)
    values = list(_numbers(json.loads(out.getvalue())))
    assert values and all(math.isfinite(v) for v in values), (snr, rate)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 60.0), st.floats(0.0, 60.0), st.integers(2, 2000))
@example(0.0, 5e-324, 4)  # a span of one subnormal: numpy's zero-step branch
@example(0.1, 1.7, 200)
def test_cli_grid_is_numpy_linspace(a, b, num):
    # `exponents` and `validate` build their rate grids without numpy.
    assume(a != b)
    lo, hi = min(a, b), max(a, b)
    assert cli._linspace(lo, hi, num) == np.linspace(lo, hi, num).tolist()
