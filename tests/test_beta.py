"""The incomplete beta laws of `expbounds._beta` against frozen mpmath values."""

import math

import numpy as np
import pytest
from scipy import stats

from beta_mpmath import BETA_HALF, LOG_CAP, NORM_CDF
from expbounds import _beta
from expbounds.lattices import d4, e8, integer_lattice, voronoi_shell


@pytest.mark.parametrize("n", sorted({row[0] for row in LOG_CAP}))
def test_log_cap_matches_mpmath(n):
    # Within 1e-13 max(1, |ln I|) up to n = 64 and 1e-12 beyond, down to
    # s = 1e-300, where I_s underflows long before ln I_s does.
    rows = [row for row in LOG_CAP if row[0] == n]
    s = np.array([row[1] for row in rows])
    want = np.array([float(row[2]) for row in rows])
    got = _beta.log_cap(n, s)
    tol = 1e-13 if n <= 64 else 1e-12
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= tol, (s[err.argmax()], err.max())


def test_log_cap_of_a_point_does_not_depend_on_the_others():
    # Every s takes the same terms, so the unsure trials of a block get the
    # bits the all-trials oracle gets.
    s = np.random.default_rng(3).uniform(0.0, 0.5, 1000)
    for n in (2, 8, 12, 200):
        batch = _beta.log_cap(n, s)
        alone = np.array([_beta.log_cap(n, s[i : i + 1])[0] for i in range(0, 1000, 97)])
        assert np.array_equal(batch[::97], alone)
    assert _beta.log_cap(8, np.array([0.0]))[0] == -math.inf
    assert abs(_beta.log_cap(8, 0.5) - math.log(0.5)) <= 1e-15


@pytest.mark.parametrize("n", range(1, 17))
def test_beta_half_matches_mpmath(n):
    rows = [row for row in BETA_HALF if row[0] == n]
    x = np.array([row[1] for row in rows])
    want = np.array([float(row[2]) for row in rows])
    got = _beta.beta_half(n, x)
    # Relative to rounding, except where the value is below the normal range.
    assert (np.abs(got - want) <= 1e-14 * want + 1e-300).all(), (x, got, want)


def test_beta_half_refuses_x_above_one_half():
    with pytest.raises(ValueError, match="x <= 1/2"):
        _beta.beta_half(8, np.array([0.1, 0.6]))
    assert _beta.beta_half(1, 1.0) == 1.0  # n = 1 is closed form on [0, 1]


_SHELLS = {"Z": integer_lattice, "D4": lambda n: d4(), "E8": lambda n: e8()}


@pytest.mark.parametrize("name, n", sorted({row[:2] for row in NORM_CDF}))
def test_norm_cdf_matches_mpmath(name, n):
    # Below the cap-overlap radius, within 1e-15 of the exact law.
    shell = voronoi_shell(_SHELLS[name](n))
    rows = [row for row in NORM_CDF if row[:2] == (name, n)]
    t = np.array([row[2] for row in rows])
    want = np.array([float(row[3]) for row in rows])
    assert t.max() <= shell.overlap2
    assert np.abs(shell.norm_cdf(t) - want).max() <= 1e-15


def test_binomial_root_solves_the_tail_equation():
    # Every k of every n up to 60: scipy's binomial tail at the root is
    # 0.025, and p + q = 1.
    for n in range(1, 61):
        for k in range(1, n + 1):
            p, q = _beta.binomial_root(k, n)
            assert 0.0 < p < 1.0 and abs(p + q - 1.0) <= 2.3e-16, (k, n)
            tail = stats.binom.sf(k - 1, n, p)
            assert abs(tail / _beta.ALPHA - 1.0) <= 1e-12, (k, n, tail)
