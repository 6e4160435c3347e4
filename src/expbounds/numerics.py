"""Small numerical toolkit: bracketed bisection.

Bisection supports automatic bracket growth so callers can pass a lower bound
only.  Failures raise instead of silently clamping.
"""

_MAX_GROW = 2 ** 60


class BracketError(RuntimeError):
    """Raised when a root bracket cannot be established."""


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
