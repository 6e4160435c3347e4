"""The incomplete beta laws of the simulator, from numpy and `math` alone.

Three laws, each at the parameters its caller needs:

* `log_cap`: ln I_s(a, a), a = (n-1)/2, the fraction of the unit sphere in
  R^n within a cap of sin^2(half angle) s <= 1/2 (`simulator`'s cap table
  and its unsure trials).
* `beta_half`: I_x((n+1)/2, 1/2), a facet cap's share of the ball
  (`lattices.VoronoiShell.norm_cdf`).
* `binomial_root`: the p at which a binomial upper tail is 0.025
  (`simulator.clopper_pearson`).

The first two sum the hypergeometric series of the incomplete beta function
(Abramowitz & Stegun 26.5.4 with 15.1.1),

    I_x(p, q) = x^p (1-x)^q / (p B(p, q)) sum_j prod_(i<j) (p+q+i)/(p+1+i) x,

whose terms, all positive, shrink at least as fast as x^j.  The third takes
the binomial pmf in Loader's saddle-point form ("Fast and accurate
computation of binomial probabilities", 2000) and sums the tail as one
cumulative product of pmf ratios.
"""

import functools
import math

import numpy as np

# Relative size of the first series term left out.
_EPS = 2.0 ** -54
# Terms `log_cap` holds at once (512 KB): its rows take 12 sqrt(a) terms
# each at large a, so a 1025-knot table at n = 10^8 would hold 700 MB.
_SERIES_FLOATS = 1 << 16

# The Stirling series of ln Gamma(z) - ((z-1/2) ln z - z + ln sqrt(2 pi)),
# in powers 1/z, 1/z^3, ...: at z >= 16 the first term left out is below 1e-16.
_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188)


def _stirling_tail(z):
    w = 1.0 / (z * z)
    c0, c1, c2, c3, c4 = _STIRLING
    return (c0 + w * (c1 + w * (c2 + w * (c3 + w * c4)))) / z


def _log_beta_half(a):
    """ln B(a, 1/2).

    Below a = 16 from lgamma; above, ln Gamma(a+1/2) - ln Gamma(a) as the
    difference of Stirling's series, a ln(1 + 1/(2a)) + 1/2 ln a - 1/2 + ...,
    which keeps its absolute error near 1e-16 where lgamma's two values of
    a few thousand would lose 1e-12.
    """
    if a < 16.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    gap = a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
    return math.lgamma(0.5) - gap - (_stirling_tail(a + 0.5) - _stirling_tail(a))


def _ratios(p, q, x):
    """The term ratios (p+q+i)/(p+1+i), i = 0, 1, ..., of the series of
    I_x(p, q), as many as its sum at x needs.

    The ratios tend to 1 and move monotonically, so once a term times the
    larger of its next ratio and 1 is r < 1, the rest is at most r/(1-r) of it.
    """
    out = []
    term = total = 1.0
    while True:
        ratio = (p + q + len(out)) / (p + 1.0 + len(out))
        r = max(ratio, 1.0) * x
        if r < 1.0 and term * r <= _EPS * (1.0 - r) * total:
            return np.array(out)
        out.append(ratio)
        term *= ratio * x
        total += term


@functools.lru_cache(maxsize=64)
def _cap_series(n):
    """a, the term ratios of I_s(a, a) enough for every s <= 1/2, and
    -ln(2a B(a, 1/2))."""
    a = 0.5 * (n - 1)
    return a, _ratios(a, a, 0.5), -math.log(2.0 * a) - _log_beta_half(a)


def log_cap(n, s):
    """ln I_s(a, a), a = (n-1)/2, for n >= 2 and each s in [0, 1/2].

    By the duplication formula B(a, a) = B(a, 1/2) / 2^(2a-1), so

        I_s(a, a) = (4 s (1-s))^a / (2a B(a, 1/2)) sum_j prod_(i<j) (2a+i)/(a+1+i) s,

    where ln B(a, 1/2) is of order ln a (`_log_beta_half`), so no term is
    of the order of a ln 4 as in ln B(a, a).  The product 4 s (1-s) is
    within 2 ulps, so its log is within about 2e-16 absolute, a times that
    in the result: 4e-13 at n = 4096, where |ln I_s| is below 1 near s = 1/2.
    The value is finite wherever s > 0, far below where I_s underflows.
    Every s takes the same number of terms, those s = 1/2 needs (about 60
    at n = 8 and 12 sqrt(a) at large a), so a value does not depend on the
    other entries of `s`, nor on which rows are summed together.  The
    ratios tend to s < 1, so an s a few ulps past 1/2 is still summed to
    rounding.
    """
    a, ratios, offset = _cap_series(n)
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1)
    series = np.empty_like(flat)
    rows = max(1, _SERIES_FLOATS // max(1, ratios.size))
    for i in range(0, flat.size, rows):
        terms = flat[i : i + rows, None] * ratios
        np.multiply.accumulate(terms, axis=1, out=terms)
        np.add.reduce(terms, axis=1, out=series[i : i + rows])
    with np.errstate(divide="ignore"):
        log4pq = np.log(4.0 * s * (1.0 - s))
    return a * log4pq + np.log1p(series.reshape(s.shape)) + offset


def beta_half(n, x):
    """I_x((n+1)/2, 1/2) for n >= 1 and each x in [0, 1/2] (any x in [0, 1]
    at n = 1).

    At n = 1 it is 1 - sqrt(1-x) = x / (1 + sqrt(1-x)).  Above, the series,
    each x to relative rounding: its terms shrink at least as fast as x^j,
    so x <= 1/2 takes at most about 55 terms and x <= 1/4 (D4 and E8 below
    their cap-overlap radius) about 27, summed by Horner's rule with the
    number of terms the largest x needs.
    """
    x = np.asarray(x, dtype=float)
    if n == 1:
        return x / (1.0 + np.sqrt(1.0 - x))
    top = float(x.max(initial=0.0))
    if top > 0.5:
        raise ValueError("beta_half takes x <= 1/2 at n >= 2, not %r" % top)
    a = 0.5 * (n + 1)
    coef = np.cumprod(_ratios(a, 0.5, top))
    series = np.zeros_like(x)
    for c in coef[::-1]:
        series += c
        series *= x
    series += 1.0
    scale = math.exp(-math.log(a) - _log_beta_half(a))
    return scale * x ** a * np.sqrt(1.0 - x) * series


# -- Clopper-Pearson ---------------------------------------------------------

ALPHA = 0.025  # each tail of a 95% interval
# Phi^-1(1 - ALPHA), for the starting point of `binomial_root`.
_Z = 1.9599639845400543
_LOG_ALPHA = math.log(ALPHA)

# stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi), k = 0..15 (0 at k = 0),
# from 40-digit mpmath.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(k):
    """ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi), for integer k >= 0."""
    if k < len(_STIRLERR):
        return _STIRLERR[k]
    return _stirling_tail(float(k))


def _bd0(x, m):
    """x ln(x/m) + m - x, by its series in v = (x-m)/(x+m) when |v| < 1/2.

    Loader sums the series only at |v| < 0.1, but just past that the closed
    form loses a factor of 10 to cancellation; at |v| >= 1/2 it loses at
    most 2.5, and the series needs at most about 28 terms below it.
    """
    if abs(x - m) >= 0.5 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2.0 * x * v
    j = 1
    while True:
        term *= v * v
        j += 2
        nxt = s + term / j
        if nxt == s:
            return s
        s = nxt


def binomial_root(k, n):
    """(p, 1 - p) at which P(X >= k) = ALPHA for X ~ Bin(n, p), 1 <= k <= n.

    The root of g(u) = ln P(X >= k) - ln ALPHA in u = ln p.  With
    S = P(X >= k) / P(X = k) and c = (k - n p)/q, its derivatives are
    g1 = k/S, g2 = -g1 (g1 - c) and g3 = -g2 (2 g1 - c) + g1 p (k-n)/q^2.
    ln P(X >= k) is concave in u, so Newton's steps stay in (0, 1).  Within
    |g| <= 1e-2 a step is the root of g's cubic Taylor polynomial, to third
    order in g/g1, so it leaves an error of order g^4, and the step taken at
    |g| <= 1e-4 is the last.  The start, the normal approximation of
    Abramowitz & Stegun 26.5.22, has |g| of about 0.1/min(k, n-k+1): one
    evaluation of g for most counts above a thousand, two or three below.

    k = 1 and k = n are closed forms.  Between them, ln P(X = k) is
    Loader's: stirlerr(n) - stirlerr(k) - stirlerr(n-k)
    - 1/2 ln(2 pi k (n-k)/n), once, and -bd0(k, n p) - bd0(n-k, n q) at
    each step.  S is 1 plus the cumulative product of the pmf ratios
    (n-j)/(j+1) p/q, j = k, k+1, ..., whose first factors are made once, in
    chunks of about 8 standard deviations, and summed until the rest is
    below rounding.  p and q are carried apart, each to its own relative
    precision, so that 1 - p is accurate where p is near 1.  g is rounded
    to about an ulp of |ln ALPHA|, which moves p by S/k times as much
    relative to p: on `tests/beta_mpmath.py`'s grid (trials 1 ... 1e7) p and
    q lie within 3 ulps of the 50-digit roots, and at small k off that grid
    up to about 4.3 ulps (k = 2, n = 512).
    """
    if k == 1:  # P(X >= 1) = 1 - q^n
        u = math.log1p(-ALPHA) / n
        return -math.expm1(u), math.exp(u)
    if k == n:  # P(X >= n) = p^n
        u = _LOG_ALPHA / n
        return math.exp(u), -math.expm1(u)
    a, b = float(k), float(n - k + 1)
    lam = (_Z * _Z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = _Z * math.sqrt(h + lam) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    e = b * math.exp(2.0 * w)
    p, q = a / (a + e), e / (a + e)
    fixed = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
    fixed -= 0.5 * math.log(2.0 * math.pi * k * ((n - k) / n))
    chunk = 32 + int(8.0 * math.sqrt(n * p * q))
    ratios = np.empty(0)
    for _ in range(64):
        rho = p / q
        total = last = 1.0
        done = 0
        while done < n - k:
            if done == ratios.size:
                j = np.arange(k + done, min(k + done + chunk, n))
                ratios = np.concatenate([ratios, (n - j) / (j + 1.0)])
            terms = ratios[done : done + chunk] * rho
            np.multiply.accumulate(terms, out=terms)
            total += last * float(np.add.reduce(terms))
            last *= float(terms[-1])
            done += terms.size
            r = (n - k - done) / (k + 1.0 + done) * rho
            if r < 1.0 and last * r <= _EPS * (1.0 - r) * total:
                break
        g = fixed - _bd0(k, n * p) - _bd0(n - k, n * q) + math.log(total) - _LOG_ALPHA
        g1 = k / total
        step = -g / g1
        if abs(g) <= 1e-2:
            c = (k - n * p) / q
            f2 = -(g1 - c)  # g2 / g1
            f3 = -f2 * (2.0 * g1 - c) + p * (k - n) / (q * q)  # g3 / g1
            step *= 1.0 - 0.5 * f2 * step + (0.5 * f2 * f2 - f3 / 6.0) * step * step
        dp = p * math.expm1(step)
        p, q = p + dp, q - dp
        if abs(g) <= 1e-4:
            return p, q
    raise RuntimeError("binomial_root(%d, %d) did not converge" % (k, n))
