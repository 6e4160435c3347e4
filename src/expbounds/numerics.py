"""Small numerical toolkit: golden-section minimization and bracketed bisection.

Bisection supports automatic bracket growth so callers can pass a lower bound
only.  Failures raise instead of silently clamping.
"""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

_MAX_GROW = 2 ** 60

# Offset keeping arguments off open-interval edges and log/chord singularities.
_EPS = 1e-12


class BracketError(RuntimeError):
    """Raised when a root bracket cannot be established."""


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


def bisect_root(f, lo, hi=None, tol=1e-12):
    """Find a root of f by bisection on [lo, hi] (tolerance in x).

    If `hi` is None, the upper edge grows by doubling the span from `lo`
    until the sign changes (capped; raises BracketError on failure).
    Requires a sign change over the final bracket.  Stops early once the
    bracket is two adjacent floats, so a `tol` below the float spacing at a
    large root cannot loop forever.
    """
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if hi is None:
        span = 1.0
        while True:
            hi = lo + span
            f_hi = f(hi)
            if f_lo * f_hi <= 0.0:
                break
            span *= 2.0
            if span > _MAX_GROW:
                raise BracketError("root bracket expansion failed")
    else:
        f_hi = f(hi)
    if f_lo * f_hi > 0.0:
        raise BracketError("no sign change over [%g, %g]" % (lo, hi))
    a, b = lo, hi
    fa = f_lo
    while b - a > tol:
        m = 0.5 * (a + b)
        if m == a or m == b:  # adjacent floats: `tol` is below the spacing here
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
