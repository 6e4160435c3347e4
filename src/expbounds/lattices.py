"""Small lattices: exact nearest-point decoding, Voronoi sampling, figures of merit.

Fast exact decoders are provided for Z^n, D4, and E8 (the classic rounding
rules); any other basis falls back to exact sphere enumeration, which is also
used as an independent cross-check of the fast rules.  Basis files are plain
text: the dimension n followed by n*n whitespace-separated entries, row-major
(rows generate the lattice).
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

MAX_DIMENSION = 16  # exact enumeration stays cheap up to here


def _round_half_away(x):
    # Ties broken away from zero; any consistent tie-break is a valid CVP answer.
    return np.floor(x + 0.5)


def _decode_zn(points):
    return _round_half_away(points)


def _decode_dn(points):
    """Nearest point of D_n = {k in Z^n : sum(k) even} for each row."""
    f = _round_half_away(points)
    odd = (f.sum(axis=1) % 2).astype(bool)
    if np.any(odd):
        err = points[odd] - f[odd]
        idx = np.argmax(np.abs(err), axis=1)
        rows = np.arange(err.shape[0])
        step = np.where(err[rows, idx] >= 0.0, 1.0, -1.0)
        f2 = f[odd]
        f2[rows, idx] += step
        f[odd] = f2
    return f


def _decode_e8(points):
    """Nearest point of E8 = D8 union (D8 + 1/2), via the two-coset rule."""
    y0 = _decode_dn(points)
    y1 = _decode_dn(points - 0.5) + 0.5
    d0 = ((points - y0) ** 2).sum(axis=1)
    d1 = ((points - y1) ** 2).sum(axis=1)
    return np.where((d0 <= d1)[:, None], y0, y1)


_FAST_DECODERS = {"Zn": _decode_zn, "D4": _decode_dn, "E8": _decode_e8}


def _enumerate_cvp(R, t, seed_u, seed_d2):
    """Exact CVP in the QR frame: minimize ||R u - t||^2 over integer u.

    R is upper triangular; depth-first search from the last coordinate with
    zig-zag candidate order, pruned by the best distance found so far.
    """
    n = R.shape[0]
    best = {"d2": seed_d2 + 1e-12, "u": seed_u.copy()}
    u = seed_u.copy()

    def descend(level, partial):
        r = t[level] - R[level, level + 1 :] @ u[level + 1 :]
        c = r / R[level, level]
        k0 = math.floor(c + 0.5)
        for delta in range(0, 10_000):
            advanced = False
            ks = (k0,) if delta == 0 else (k0 + delta, k0 - delta)
            for k in ks:
                resid = partial + (r - R[level, level] * k) ** 2
                if resid < best["d2"]:
                    advanced = True
                    u[level] = k
                    if level == 0:
                        best["d2"] = resid
                        best["u"] = u.copy()
                    else:
                        descend(level - 1, resid)
            if delta > 0 and not advanced:
                break

    descend(n - 1, 0.0)
    return best["u"]


@dataclass(frozen=True)
class Lattice:
    """A full-rank lattice given by generator rows, with exact nearest-point.

    `decoder` names the fast decoding rule, if any ("Zn", "D4", "E8"); an
    optional `scale` lets the fast rule serve scaled copies c * Lambda.
    """

    name: str
    basis: np.ndarray
    decoder: str = ""
    scale: float = 1.0

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("basis must be square")
        if b.shape[0] > MAX_DIMENSION:
            raise ValueError("dimension above %d not supported" % MAX_DIMENSION)
        if abs(np.linalg.det(b)) < 1e-12:
            raise ValueError("basis is singular")
        object.__setattr__(self, "basis", b)

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def volume(self):
        return abs(np.linalg.det(self.basis))

    def rescaled(self, c):
        """The lattice c * Lambda, keeping any fast decoder."""
        return Lattice(self.name, self.basis * c, self.decoder, self.scale * c)

    def nearest(self, points):
        """Exact closest lattice points; `points` is (N, n), returns (N, n)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        fast = _FAST_DECODERS.get(self.decoder)
        if fast is not None:
            return fast(pts / self.scale) * self.scale
        return self.nearest_enumerated(pts)

    def nearest_enumerated(self, points):
        """Enumeration-based exact CVP (slow path; also a cross-check oracle)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        A = self.basis.T  # columns generate the lattice
        Q, R = np.linalg.qr(A)
        sign = np.sign(np.diag(R))
        sign[sign == 0] = 1.0
        Q = Q * sign
        R = (R.T * sign).T
        inv = np.linalg.inv(self.basis)
        out = np.empty_like(pts)
        for i, p in enumerate(pts):
            seed_u = np.rint(p @ inv)
            seed_d2 = float(((seed_u @ self.basis) - p) @ ((seed_u @ self.basis) - p))
            u = _enumerate_cvp(R, Q.T @ p, seed_u, seed_d2)
            out[i] = u @ self.basis
        return out

    def reduce(self, points):
        """Reduce points modulo the lattice into the Voronoi region."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts - self.nearest(pts)

    def sample_voronoi(self, count, rng):
        """Exact uniform samples over the Voronoi region of the origin.

        Uniform over a fundamental parallelepiped, reduced modulo the lattice;
        the reduction is measure-preserving, so the result is exactly uniform
        over the Voronoi region.
        """
        u = rng.random((count, self.n)) @ self.basis
        return self.reduce(u)

    def covering_radius_bound(self):
        """Guaranteed upper bound on the covering radius (nearest-plane bound)."""
        _, R = np.linalg.qr(self.basis.T)
        return 0.5 * float(np.sqrt((np.diag(R) ** 2).sum()))


def integer_lattice(n):
    return Lattice("Zn", np.eye(n), decoder="Zn")


def d4():
    return Lattice(
        "D4",
        np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, 0.0, 1.0, -1.0],
            ]
        ),
        decoder="D4",
    )


def e8():
    rows = [[2.0] + [0.0] * 7]
    for i in range(6):
        row = [0.0] * 8
        row[i] = -1.0
        row[i + 1] = 1.0
        rows.append(row)
    rows.append([0.5] * 8)
    return Lattice("E8", np.array(rows), decoder="E8")


def load_basis(path):
    """Read a lattice basis file: n, then n*n reals row-major.

    Bases matching a shipped lattice exactly get its fast decoder; any other
    is named by a hash of its entries.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty basis file: %s" % path)
    n = int(tokens[0])
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != n * n:
        raise ValueError(
            "basis file %s: expected %d entries, found %d" % (path, n * n, len(vals))
        )
    basis = np.array(vals).reshape(n, n)
    for known in ([integer_lattice(n)] if n <= MAX_DIMENSION else []) + [d4(), e8()]:
        if known.n == n and np.array_equal(basis, known.basis):
            return known
    # Named by its contents, so the name does not depend on where the file is.
    digest = hashlib.sha256(basis.astype("<f8").tobytes()).hexdigest()
    return Lattice("basis:%s" % digest[:12], basis)


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class VoronoiShell:
    """Exact Voronoi-cell data of a lattice with a fast decoder, at its scale.

    Every facet of these cells belongs to a minimal vector, so the facets lie
    at distance sqrt(min_norm2)/2 and there are `kissing` of them.  Below
    `overlap2` no two facet caps of the ball of squared radius t meet, which
    makes the norm law of a uniform point of the cell exact in closed form.
    """

    n: int
    volume: float
    second_moment: float  # per-dimension sigma^2 of the Voronoi region
    min_norm2: float
    kissing: int
    overlap2: float

    def norm_cdf(self, t):
        """P(||U||^2 <= t) for U uniform over the Voronoi region, for t < overlap2.

        The ball of squared radius t minus its `kissing` caps beyond the
        facets (Conway & Sloane, SPLAG ch. 21).  A cap at distance h has
        volume 1/2 V_n t^(n/2) I_(1 - h^2/t)((n+1)/2, 1/2).
        """
        t = np.asarray(t, dtype=float)
        ball = unit_ball_volume(self.n) * t ** (0.5 * self.n)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.clip(1.0 - 0.25 * self.min_norm2 / t, 0.0, 1.0)
        caps = 0.5 * self.kissing * ball * special.betainc(0.5 * (self.n + 1), 0.5, x)
        return np.minimum((ball - caps) / self.volume, 1.0)


def voronoi_shell(lattice):
    """The lattice's `VoronoiShell`, or None when it has no fast decoder.

    Unit-scale data: Z^n has sigma^2 = 1/12, 2n facets at distance 1/2, and
    two facets meet at squared radius 1/2 (n = 1 has a single pair, which never
    meets inside the cell).  D4 (volume 2) has sigma^2 = 13/120 and E8
    (volume 1) 929/12960 (SPLAG Table 2.3); both have min norm 2, and two of
    their facets at 60 degrees meet at (v1 + v2)/3, of squared norm 2/3.
    """
    n = lattice.n
    if lattice.decoder == "Zn":
        data = (1.0, 1.0 / 12.0, 1.0, 2 * n, 0.5 if n > 1 else math.inf)
    elif lattice.decoder == "D4":
        data = (2.0, 13.0 / 120.0, 2.0, 24, 2.0 / 3.0)
    elif lattice.decoder == "E8":
        data = (1.0, 929.0 / 12960.0, 2.0, 240, 2.0 / 3.0)
    else:
        return None
    volume, sigma2, min_norm2, kissing, overlap2 = data
    c2 = lattice.scale * lattice.scale
    return VoronoiShell(
        n=n,
        volume=volume * lattice.scale ** n,
        second_moment=sigma2 * c2,
        min_norm2=min_norm2 * c2,
        kissing=kissing,
        overlap2=overlap2 * c2,
    )


@dataclass(frozen=True)
class LatticeFigures:
    """Quantization figures of merit for one lattice."""

    n: int
    volume: float
    second_moment: float  # per-dimension sigma^2 of the Voronoi region
    second_moment_stderr: float
    nsm: float  # normalized second moment G = sigma^2 / V^(2/n)
    r_eff: float  # radius of the sphere with the Voronoi volume
    r_cov: float  # upper estimate of the covering radius
    deep_hole_probe: float  # largest point-to-lattice distance found by probing


def lattice_figures(lattice, samples=200_000, seed=0, probe=2_000):
    """Monte Carlo figures of merit, with exact volume and r_eff.

    sigma^2 and G come from uniform Voronoi sampling with a reported standard
    error.  r_cov is the guaranteed nearest-plane upper bound; the probing
    value (max distance over random reduced points, a lower estimate of the
    covering radius) is reported alongside.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2 for a second moment and its stderr")
    rng = np.random.default_rng(seed)
    n = lattice.n
    v = lattice.volume
    x = lattice.sample_voronoi(samples, rng)
    norms2 = (x ** 2).sum(axis=1)
    sigma2 = norms2.mean() / n
    stderr = norms2.std(ddof=1) / math.sqrt(samples) / n
    probe_pts = lattice.sample_voronoi(probe, rng)
    probe_max = float(np.sqrt((probe_pts ** 2).sum(axis=1)).max())
    return LatticeFigures(
        n=n,
        volume=v,
        second_moment=float(sigma2),
        second_moment_stderr=float(stderr),
        nsm=float(sigma2 / v ** (2.0 / n)),
        r_eff=(v / unit_ball_volume(n)) ** (1.0 / n),
        r_cov=lattice.covering_radius_bound(),
        deep_hole_probe=probe_max,
    )
