"""Small lattices: exact nearest-point decoding, Voronoi sampling, figures of merit.

Every query runs CVP_ROWS rows at a time through one loop,
`Lattice._each_block`, and one decoder interface, `Lattice._decoder`: each
block is checked to be finite and decoded coordinate-major, and the caller
keeps what it reads of the block and its closest points (the points, the
residuals or their squared norms), so memory beyond the output is a few
(CVP_ROWS, n) arrays whatever the batch.  Fast exact decoders are provided
for Z^n, D4, and E8 (the classic rounding rules), run without masks on each
transposed block, into a few blocks allocated once per call: on a 2-vCPU
Xeon D4 costs about 0.04 us a point and E8 0.14 us on uniform queries.

E8 picks its coset from one rounding of each query (`_decode_e8`): the
squared distances to its D8 and D8 + 1/2 points have closed forms in
a = |t - round(t)|, and only the closer coset's point is built, with one
parity step.  A query within 0.49 of its D8 point is certified
(`_E8_CERTIFIED`).  The two-coset rule itself (`_two_coset_rule`) runs only
on queries within a margin of a tie or of a rounding edge, gathered, and on
blocks with |t| >= 2^49 (`_E8_EXACT`); 200 000 uniform samples and a
20 000-trial SNR-4 run hold none.  At SNR 4 (the simulator's noise) E8
costs 0.10 us a point.

Where only squared norms are read, the residuals are squared and summed
coordinate-major (`_row_sum`, numpy's order) and only the norms are kept:
`Lattice.residual_norms2` for given queries (the simulator's sent coset),
also telling whether each closest point is other than the origin, and
`Lattice.voronoi_norms2` for Voronoi samples it draws a block at a time
(`lattice_figures` and the simulator's rivals).  At SNR 4 that costs E8
0.10 us a point and D4 0.03 us.

Any other basis, and `Lattice.nearest_enumerated` on any basis, goes
through batched exact enumeration: the basis is LLL-reduced once and its QR
frame cached; every query row gets a nearest-plane start, whose distance is
the search radius, and Schnorr-Euchner enumeration then runs over all rows
of a block at once.  This costs about 1 us a point on a D4 basis in a
non-standard form and 7 us on E8 (against 70 and 180 us for one depth-first
search per point); 16-dimensional bases cost 0.1 to 0.3 ms a point (a
unimodular copy of Z^16, random Gaussian bases).

Basis files are plain text: the dimension n followed by n*n
whitespace-separated entries, row-major (rows generate the lattice).
`load_basis` gives a file whose rows span the point set of Z^n, D4 or E8 at
unit scale (B = U B0 with U an integer matrix of determinant +-1, decided
exactly) that lattice's fast rule and shell data; the file keeps its own
rows and name.  A `Lattice` built directly on such rows keeps enumeration,
the tests' oracle.
"""

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

MAX_DIMENSION = 16  # exact enumeration stays cheap up to here
# Closest-point queries decoded together: a block's state is a few
# (CVP_ROWS, n) arrays, so its memory depends on neither the batch nor the basis.
CVP_ROWS = 4096
# |det| / prod ||b_i|| is 1 for orthogonal rows and at most about 1e-16 after
# round-off for dependent ones.
SINGULAR_RTOL = 1e-15
# Working-set cap of one request (Voronoi samples here, expurgated codebooks
# in the simulator): a request whose estimate exceeds it is refused before
# anything is drawn.
MEMORY_BUDGET_BYTES = 1 << 30


def _round_half_away(t, out):
    # Ties broken away from zero; any consistent tie-break is a valid CVP answer.
    np.add(t, 0.5, out=out)
    return np.floor(out, out=out)


# The fast rules below are coordinate-major: they decode a block t of shape
# (n, rows), one coordinate a row, into blocks of that shape that the caller
# allocates once for all its blocks, and return a view of one of them.  No
# boolean-mask gather or scatter runs, and no block allocates more than a
# few (rows,) arrays.


def _row_sum(a):
    """Sum of the n coordinate rows of `a` (over its first axis), in numpy's
    pairwise order for a row of n, so the sums keep the bits of
    `x.sum(axis=-1)` for x = `a` with its first axis moved last.

    numpy adds a row of n < 8 one term at a time from +0.0, of n <= 128 in
    eight interleaved accumulators, and of more as the sum of two halves
    whose split is a multiple of 8; the total is added to +0.0.
    """
    n = len(a)
    if n < 8:
        s = a[0] + 0.0
        for k in range(1, n):
            s += a[k]
        return s
    if n > 128:
        half = n // 2 - n // 2 % 8
        s = _row_sum(a[:half])
        s += _row_sum(a[half:])
        return s
    r = a[:8]
    if n >= 16:
        r = r.copy()
        for i in range(8, n - n % 8, 8):
            r += a[i : i + 8]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for k in range(n - n % 8, n):
        s += a[k]
    s += 0.0  # an all -0.0 sum is +0.0, as in numpy
    return s


def _round_dn(t, f, err, mag):
    # Each coordinate rounded into f, its error t - f into err, |err| into mag.
    _round_half_away(t, f)
    np.subtract(t, f, out=err)
    np.abs(err, out=mag)


def _odd(sums):
    # The sums are integers, odd where half of one is not.  A sum that
    # overflows counts as even, so the point stays finite: every float that
    # large is an even integer.
    half = sums * 0.5
    return np.floor(half) < half


def _columns(blocks, k):
    # Contiguous (n, k) views of the first n * k entries of (n, cols) blocks.
    return [a.reshape(-1)[: len(a) * k].reshape(len(a), k) for a in blocks]


def _step_worst(f, at, err, mag, top, first, todo):
    """The parity fix of D_n: for each column i in todo, move the first
    coordinate of mag[:, i] at its top (the one np.argmax picks) one step
    toward t, the way err[:, i] points, in column at[i] of f.  The int8
    `first` is a scratch block of mag's shape."""
    n = len(mag)
    # The largest weight n - k among the coordinates k at the top.
    at_top = np.equal(mag, top, out=first.view(bool))
    np.multiply(at_top, np.arange(n, 0, -1, dtype=np.int8)[:, None], out=first)
    row = n - first.max(axis=0)[todo].astype(np.intp)
    step = np.where(err.reshape(-1)[row * err.shape[1] + todo] >= 0.0, 1.0, -1.0)
    f.reshape(-1)[row * f.shape[1] + at] += step


def _decode_dn(t, f, err, mag, first):
    """Nearest point of D_n = {k in Z^n : sum(k) even} for each column of t, into f.

    Round every coordinate; where the sum is odd, move the coordinate that
    rounded worst one step the other way (Conway & Sloane, SPLAG ch. 20).
    `err`, `mag` and the int8 `first` are scratch blocks of t's shape.
    """
    _round_dn(t, f, err, mag)
    todo = np.flatnonzero(_odd(_row_sum(f)))
    if todo.size:
        _step_worst(f, todo, err, mag, mag.max(axis=0), first, todo)
    return f


# E8 = D8 union (D8 + 1/2); its closest point is the closer of the two
# cosets' (Conway & Sloane, SPLAG ch. 20).  With a = |t - round(t)| a
# coordinate, both squared distances follow from the one rounding of t:
#   d0 = sum a^2 + odd0 (1 - 2 max a),
#   d1 = sum a^2 + (n/4 - sum a) + odd1 2 min a,
# where odd0 and odd1 are the parities of sum round(t) and sum floor(t),
# integer sums that are exact in any order while |t| < 2^49 (`_E8_EXACT`):
# D8 + 1/2's point is floor(t) + 1/2 with, where odd1, its coordinate
# nearest an integer moved one step.  Every point of D8 + 1/2 is at squared
# distance at least 2 from every point of D8 (SPLAG ch. 4), so where
# d0 < 1/2 no point of D8 + 1/2 is as close to t: it is at least
# (sqrt 2 - sqrt 1/2)^2 = 1/2 away.  0.49 leaves room for the rounding of
# the sums (`_E8_CERTIFIED`).
_E8_CERTIFIED = 0.49
_E8_EXACT = 2.0 ** 49


def _decode_e8(t, y, y1, t1, err, mag, first):
    """Nearest point of E8 for each column of t, into y, with every bit of
    the two-coset rule (`_two_coset_rule`), from one rounding of t.

    A column keeps its D8 point where d0 < 0.49 or where d1 exceeds d0 by
    more than a margin, and takes D8 + 1/2's where d1 is below d0 by more
    than it.  Only the columns within the margin of a tie, or with a
    coordinate within it of an integer, or all within it of a half, go
    through the rule itself, gathered; so does a block with |t| >= 2^49.
    """
    n, cols = t.shape
    big = max(t.max(), -t.min())
    if big >= _E8_EXACT:
        _decode_dn(t, y, err, mag, first)
        return _two_coset_rule(t, y, np.arange(cols), y1, t1, err, mag, first)
    ones = np.ones(n)
    _round_dn(t, y, err, mag)
    top = mag.max(axis=0)
    odd0 = _odd(ones @ y)
    lift0 = odd0 * (1.0 - 2.0 * top)  # d0 - sum a^2
    unsure = ones @ np.square(mag, out=y1) + lift0 >= _E8_CERTIFIED
    second = near = np.zeros(cols, dtype=bool)
    if unsure.any():
        bot = mag.min(axis=0)
        odd1 = _odd(ones @ np.floor(t, out=y1))
        gain = lift0 - (0.25 * n - ones @ mag) - odd1 * (2.0 * bot)  # d0 - d1
        # The closed forms and the rule's sums round by less than 2^-45.
        # The rule rounds t - 1/2 by at most (|t| + 1/2) 2^-53 a coordinate,
        # which can move its d1 by four times that through the coordinate
        # its parity step picks, and floor(t - 1/2 + 1/2) off floor(t) only
        # where a is no larger.
        margin = 2.0 ** -40 + big * 2.0 ** -50
        edge = np.abs(bot - 0.25) >= 0.25 - margin
        second = unsure & ~edge & (gain > margin)
        near = unsure & (edge | (np.abs(gain) <= margin))
    todo = np.flatnonzero(odd0 & ~second)
    if todo.size:
        _step_worst(y, todo, err, mag, top, first, todo)
    if second.any():
        fix = np.flatnonzero(second & odd1)
        if fix.size:
            # The rule's own errors t - 1/2 - floor(t) pick the coordinate
            # to move, so that its ties fall as the rule's do.
            e1, m1, f1 = _columns((err, mag, first), fix.size)
            np.subtract(np.take(t, fix, axis=1, out=e1), 0.5, out=e1)
            e1 -= np.take(y1, fix, axis=1, out=m1)
            np.abs(e1, out=m1)
        # y + 1 * (floor(t) + 1/2 - y) is floor(t) + 1/2 exactly, and
        # y + 0 * (...) is y, whose zeros are never -0.
        y1 += 0.5
        y1 -= y
        y1 *= second
        y += y1
        if fix.size:
            _step_worst(y, fix, e1, m1, m1.max(axis=0), f1, np.arange(fix.size))
    at = np.flatnonzero(near)
    if at.size:
        _two_coset_rule(t, y, at, y1, t1, err, mag, first)
    return y


def _two_coset_rule(t, y, at, *scratch):
    """The two-coset rule on columns `at` of t, whose D8 points y holds:
    decode t - 1/2 in D8 and add 1/2, and take that point where its squared
    distance, summed in numpy's order, is below the D8 point's.  This is
    the row-major rule's every bit, whatever t.  The scratch blocks are
    y1, t1, err, mag and first of `_decode_e8`."""
    y1, tc, err, mag, first = _columns(scratch, at.size)
    np.take(t, at, axis=1, out=tc)
    np.subtract(tc, np.take(y, at, axis=1, out=y1), out=err)
    d0 = _row_sum(np.square(err, out=err))
    _decode_dn(np.subtract(tc, 0.5, out=tc), y1, err, mag, first)
    y1 += 0.5
    np.take(t, at, axis=1, out=tc)
    closer = d0 > _row_sum(np.square(np.subtract(tc, y1, out=err), out=err))
    y[:, at[closer]] = y1[:, closer]
    return y


# Each fast decoder's rule, the dtypes of the scratch blocks it takes after
# t, and its unit-scale Voronoi data at dimension n (`voronoi_shell`).  Z^n
# rounds t in place.
_DN_SCRATCH = (float, float, float, np.int8)
_FAST_DECODERS = {
    "Zn": (lambda t: _round_half_away(t, t), (),
           lambda n: (1.0, 1.0 / 12.0, 1.0, 2 * n, 0.5 if n > 1 else math.inf)),
    "D4": (_decode_dn, _DN_SCRATCH, lambda n: (2.0, 13.0 / 120.0, 2.0, 24, 2.0 / 3.0)),
    "E8": (_decode_e8, (float, float) + _DN_SCRATCH,
           lambda n: (1.0, 929.0 / 12960.0, 2.0, 240, 2.0 / 3.0)),
}


def _require_finite(block):
    if not np.isfinite(block).all():
        raise ValueError("closest-point queries must be finite")


def _residual_norms2(x, f):
    """Squared norms of the columns of x - f, coordinate-major blocks, in
    numpy's order of a row-major `.sum(axis=1)` (`_row_sum`); f is overwritten."""
    return _row_sum(np.square(np.subtract(x, f, out=f), out=f))


def _lll(basis):
    """Unimodular integer U (as floats) such that the rows of U @ basis are LLL-reduced.

    Textbook LLL (Lenstra, Lenstra & Lovasz 1982) with delta = 0.99 and the
    Gram-Schmidt data read off a QR factorization: mu_kj = r_jk / r_jj and
    ||b*_j|| = |r_jj|.  Only the search cost depends on how well this reduces;
    every step is an integer row operation, so U is unimodular whatever the
    rounding.
    """
    n = basis.shape[0]
    b = basis.copy()
    unimodular = np.eye(n)
    k = 1
    while k < n:
        r = np.linalg.qr(b[: k + 1].T, mode="r")
        for j in range(k - 1, -1, -1):
            q = round(r[j, k] / r[j, j])
            if q:
                b[k] -= q * b[j]
                unimodular[k] -= q * unimodular[j]
                r[: j + 1, k] -= q * r[: j + 1, j]
        mu = r[k - 1, k] / r[k - 1, k - 1]
        if r[k, k] ** 2 >= (0.99 - mu * mu) * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            unimodular[[k - 1, k]] = unimodular[[k, k - 1]]
            k = max(k - 1, 1)
    return unimodular


@functools.lru_cache(maxsize=16)
def _cvp_frame(basis_bytes, n):
    """(U, Q, R) for a basis: U @ basis is LLL-reduced and (U @ basis).T = Q R.

    R is upper triangular with a positive diagonal.  Cached per basis; the
    arrays are read-only because every caller shares them.
    """
    basis = np.frombuffer(basis_bytes).reshape(n, n)
    unimodular = _lll(basis)
    q, r = np.linalg.qr((unimodular @ basis).T)
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    frame = (unimodular, q * sign, sign[:, None] * r)
    for a in frame:
        a.flags.writeable = False
    return frame


def _closest_coords(r, t):
    """Integer u minimizing ||R u - t_i|| for every row t_i of t, exactly.

    R is upper triangular with a positive diagonal.  A vectorized
    nearest-plane (Babai) pass sets every row's first descent; its leaf, at
    squared distance at most 1/4 sum r_ii^2, is the row's first answer and
    search radius.  Schnorr-Euchner enumeration (Agrell, Eriksson, Vardy &
    Zeger 2002) then runs in lockstep over the rows: each pass moves every
    unfinished row one node down (the next level, nearest integer first) or
    across (the next sibling one level up, in zig-zag order), and every
    better leaf shrinks the row's radius.  A row is done when its top level
    runs out of siblings inside the radius.  The state is a few (rows, n)
    arrays.
    """
    count, n = t.shape
    diag = np.diag(r)
    above = np.triu(r, 1)
    u = np.zeros((count, n))
    c = np.empty((count, n))  # center of the current node's level
    dist = np.zeros((count, n + 1))  # dist[:, k]: squared distance of levels k..n-1
    for k in range(n - 1, -1, -1):
        c[:, k] = (t[:, k] - u @ above[k]) / diag[k]
        u[:, k] = np.floor(c[:, k] + 0.5)
        dist[:, k] = dist[:, k + 1] + (diag[k] * (c[:, k] - u[:, k])) ** 2
    step = np.where(c >= u, 1.0, -1.0)  # toward the second-nearest integer
    # The first pass visits the nearest-plane leaf, which sets the radius.
    best = np.full(count, np.inf)
    best_u = u.copy()
    rows = np.arange(count)
    level = np.zeros(count, dtype=np.intp)
    while rows.size:
        lv = level[rows]
        d = dist[rows, lv + 1] + (diag[lv] * (c[rows, lv] - u[rows, lv])) ** 2
        inside = d < best[rows]
        leaf = inside & (lv == 0)
        down = inside & ~leaf
        best[rows[leaf]] = d[leaf]
        best_u[rows[leaf]] = u[rows[leaf]]
        # Down: fix this level and start the next one at its nearest integer.
        dr, dl = rows[down], lv[down] - 1
        dist[dr, dl + 1] = d[down]
        cc = (t[dr, dl] - (above[dl] * u[dr]).sum(axis=1)) / diag[dl]
        c[dr, dl] = cc
        u[dr, dl] = np.floor(cc + 0.5)
        step[dr, dl] = np.where(cc >= u[dr, dl], 1.0, -1.0)
        level[dr] = dl
        # Across: leaves and pruned nodes go up to the next sibling one level up.
        ur, ul = rows[~down], lv[~down] + 1
        more = ul < n
        ur, ul = ur[more], ul[more]
        s = step[ur, ul]
        u[ur, ul] += s
        step[ur, ul] = -s - np.sign(s)
        level[ur] = ul
        rows = np.concatenate([dr, ur])
    return best_u


@dataclass(frozen=True)
class Lattice:
    """A full-rank lattice given by generator rows, with exact nearest-point.

    `decoder` names the fast decoding rule, if any ("Zn", "D4", "E8"); an
    optional `scale`, positive and finite, lets the fast rule serve scaled
    copies c * Lambda.
    """

    name: str
    basis: np.ndarray
    decoder: str = ""
    scale: float = 1.0

    def __post_init__(self):
        # Shell data, volumes and the fast rules' t = x / scale assume c > 0.
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite, not %s" % self.scale)
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("basis must be square")
        if not 1 <= b.shape[0] <= MAX_DIMENSION:
            raise ValueError("dimension must be between 1 and %d" % MAX_DIMENSION)
        if not np.isfinite(b).all():
            raise ValueError("basis entries must be finite")
        # Scale-free: |det| against Hadamard's bound, the product of the row norms.
        if abs(np.linalg.det(b)) <= SINGULAR_RTOL * np.prod(np.linalg.norm(b, axis=1)):
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
        """Exact closest lattice points; `points` is (N, n), returns (N, n).

        A fast rule decodes each block coordinate-major, on its transpose;
        any other basis is enumerated, as in `nearest_enumerated`.
        """
        return self._closest(points, False)

    def nearest_enumerated(self, points):
        """Exact closest lattice points by enumeration, for any basis (`_decoder`)."""
        return self._closest(points, True)

    def _closest(self, points, enumerated):
        pts = self._queries(points)
        out = np.empty_like(pts)

        def take(rows, x, f):
            out[rows] = f.T

        self._each_block(len(pts), lambda start, rows: pts[start : start + rows], take, enumerated)
        return out

    def reduce(self, points):
        """Reduce points modulo the lattice into the Voronoi region."""
        pts = self._queries(points)
        return self._reduce_into(pts, np.empty_like(pts))

    def sample_voronoi(self, count, rng):
        """Exact uniform samples over the Voronoi region of the origin.

        Uniform over a fundamental parallelepiped, reduced modulo the lattice
        in place; the reduction is measure-preserving, so the result is
        exactly uniform over the Voronoi region.
        """
        u = rng.random((count, self.n)) @ self.basis
        return self._reduce_into(u, u)

    def _reduce_into(self, pts, out):
        # Each row of pts minus its closest point, into out, which may be pts.
        self._each_block(len(pts), lambda start, rows: pts[start : start + rows],
                         lambda rows, x, f: np.subtract(x, f, out=out[rows].T))
        return out

    def residual_norms2(self, points):
        """Squared norm of each query's residual modulo the lattice, and
        whether its closest point is not the origin; `points` is (N, n).

        Returns (norms2, outside), both (N,): the bits of
        `(reduce(points) ** 2).sum(axis=1)` and of
        `(nearest(points) != 0).any(axis=1)`, without building either
        (N, n) array.
        """
        pts = self._queries(points)
        norms2, outside = np.empty(len(pts)), np.empty(len(pts), dtype=bool)

        def take(rows, x, f):
            np.any(f, axis=0, out=outside[rows])
            norms2[rows] = _residual_norms2(x, f)

        self._each_block(len(pts), lambda start, rows: pts[start : start + rows], take)
        return norms2, outside

    def voronoi_norms2(self, count, rng):
        """Squared norms of `sample_voronoi(count, rng)`, bit for bit, without the samples.

        The samples are drawn from the same stream CVP_ROWS at a time, and
        each block is reduced and squared before the next is drawn.
        """
        draw, u = np.empty((2, min(count, CVP_ROWS), self.n))
        norms2 = np.empty(count)

        def block_at(start, rows):
            # A product of two rows or more rounds each row as the whole
            # batch's product in `sample_voronoi` does (BLAS gemm); a one-row
            # product (gemv) may not, so a lone last row is taken with a second.
            rng.random(out=draw[:rows])
            k = max(rows, min(2, len(draw)))
            return np.matmul(draw[:k], self.basis, out=u[:k])[:rows]

        def take(rows, x, f):
            norms2[rows] = _residual_norms2(x, f)

        self._each_block(count, block_at, take)
        return norms2

    def _each_block(self, count, block_at, take, enumerated=False):
        """Decode `count` queries CVP_ROWS at a time.

        block_at(start, rows) gives queries start .. start + rows - 1, and
        take(slice, x, f) receives them and their closest points from
        `_decoder` before the next block is asked for: beyond the caller's
        output, memory is a few (CVP_ROWS, n) blocks whatever the batch.
        """
        decode = self._decoder(min(count, CVP_ROWS), enumerated)
        # Sums overflow near 1e308 with the points still right (`_decode_dn`);
        # one errstate a call, as entering one costs about 2 us.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, count, CVP_ROWS):
                block = block_at(start, min(CVP_ROWS, count - start))
                _require_finite(block)
                take(slice(start, start + len(block)), *decode(block))

    def _decoder(self, cols, enumerated):
        """decode(block) -> (x, f) for blocks of at most `cols` query rows.

        x is the block and f its closest lattice points, both coordinate-major
        (n, rows).  The fast rule of `decoder`, if any and not `enumerated`,
        decodes into blocks allocated here, once: every call reuses them, so
        x and f hold only until the next call.  Each is a flat buffer, so that
        a short last block views it as a contiguous array too.  Otherwise each
        block goes through `_closest_coords` in the frame of the LLL-reduced
        basis; the answers map back to integer coordinates in the given basis,
        and f is those coordinates times `basis`.
        """
        if enumerated or self.decoder not in _FAST_DECODERS:
            unimodular, q, r = _cvp_frame(self.basis.tobytes(), self.n)
            return lambda block: (
                block.T, ((_closest_coords(r, block @ q) @ unimodular) @ self.basis).T)
        rule, scratch, _ = _FAST_DECODERS[self.decoder]
        n, scale = self.n, self.scale
        work = [np.empty(n * cols, dtype) for dtype in (float, float) + scratch]

        def decode(block):
            x, t, *w = (b[: block.size].reshape(n, len(block)) for b in work)
            np.copyto(x, block.T)
            f = rule(np.divide(x, scale, out=t), *w)
            f *= scale
            return x, f

        return decode

    def _queries(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError("closest-point queries must be rows of %d coordinates" % self.n)
        return pts

    def covering_radius_bound(self):
        """Guaranteed upper bound on the covering radius (nearest-plane bound).

        The nearest-plane leaf of any basis is within 1/2 sqrt(sum r_ii^2) of
        every point, so that is a bound whatever the basis; it is taken on
        the cached LLL-reduced frame, so every basis of one lattice gives the
        same bound up to rounding, and a tighter one than an unreduced basis.
        """
        r = _cvp_frame(self.basis.tobytes(), self.n)[2]
        return 0.5 * float(np.sqrt((np.diag(r) ** 2).sum()))


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


def _integers(a):
    return np.array([[int(x) for x in row] for row in a.tolist()], dtype=object)


def _spans(basis, known):
    """Whether the rows of `basis` generate the point set of `known`, exactly.

    They do when basis = U @ known.basis for an integer U of determinant
    +-1, that is, when U = basis @ known.basis^-1 and V = known.basis @
    basis^-1 are both integer matrices: then U V = I.  U and V are rounded
    in floating point, and U @ known.basis = basis and V @ basis =
    known.basis are then checked in Python integers on the doubled bases
    (every built-in entry is a multiple of 1/2).  A rounding error can only
    reject a basis, never accept one.
    """
    # Huge entries overflow when doubled or multiplied; they are then not
    # finite integers, and the basis is rejected without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        b2 = 2.0 * basis
        if not (np.isfinite(b2).all() and (np.rint(b2) == b2).all()):
            return False
        u = np.rint(basis @ np.linalg.inv(known.basis))
        v = np.rint(known.basis @ np.linalg.inv(basis))
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        return False
    b2, k2 = _integers(b2), _integers(2.0 * known.basis)
    return bool((_integers(u) @ k2 == b2).all() and (_integers(v) @ b2 == k2).all())


def load_basis(path):
    """Read a lattice basis file: n, then n*n reals row-major.

    A basis equal to a built-in's, entry for entry, returns that built-in
    lattice.  Any other is named by a hash of its entries; once validated,
    it gets the fast decoder and shell data of Z^n, D4 or E8 when its rows
    span that lattice's point set at unit scale (`_spans`, exact, no
    tolerance), and enumeration otherwise.  The benchmark's non-standard D4
    file thus takes 2.3 ms a 20 000-sample `lattice` request, with the bits
    that enumeration gives (2-vCPU Xeon).
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty basis file: %s" % path)
    n = int(tokens[0])
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(
            "basis file %s: dimension must be between 1 and %d, not %d" % (path, MAX_DIMENSION, n)
        )
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != n * n:
        raise ValueError(
            "basis file %s: expected %d entries, found %d" % (path, n * n, len(vals))
        )
    basis = np.array(vals).reshape(n, n)
    builtins = [known for known in (integer_lattice(n), d4(), e8()) if known.n == n]
    for known in builtins:
        if np.array_equal(basis, known.basis):
            return known
    # Named by its contents, so the name does not depend on where the file is.
    digest = hashlib.sha256(basis.astype("<f8").tobytes()).hexdigest()
    lattice = Lattice("basis:%s" % digest[:12], basis)
    for known in builtins:
        if _spans(lattice.basis, known):
            return Lattice(lattice.name, lattice.basis, known.decoder)
    return lattice


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
        from scipy import special  # here only, so importing `lattices` loads no scipy

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
    if lattice.decoder not in _FAST_DECODERS:
        return None
    n = lattice.n
    *_, unit_data = _FAST_DECODERS[lattice.decoder]
    volume, sigma2, min_norm2, kissing, overlap2 = unit_data(n)
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


# Reduced points probed for the deep-hole estimate of `lattice_figures`.
_DEEP_HOLE_PROBES = 2_000
# The working set of `lattice_figures` beyond its 8 bytes a sample, in
# (CVP_ROWS, n) blocks: the draw, the query and the decoder's state.  The
# traced peaks are about 4.5 blocks for Z^8, 8.2 for D4 and 10.0 for E8;
# enumeration takes 11.7 on a D4 basis in a non-standard form and 18.2 at
# n = 1, where its (rows,) bookkeeping is as large as a block
# (`tests/test_lattices.py`).
_FIGURES_BLOCKS = 20


def lattice_figures(lattice, samples=200_000, seed=0):
    """Monte Carlo figures of merit, with exact volume and r_eff.

    sigma^2 and G come from uniform Voronoi sampling with a reported standard
    error.  r_cov is the guaranteed nearest-plane upper bound; the probing
    value (max distance over random reduced points, a lower estimate of the
    covering radius) is reported alongside.  Only the samples' squared norms
    are kept (`Lattice.voronoi_norms2`).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2 for a second moment and its stderr")
    need = 8 * samples + _FIGURES_BLOCKS * CVP_ROWS * lattice.n * 8
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            "%d samples need about %.3g GiB, over the %.3g GiB budget; lower the sample count"
            % (samples, need / 2 ** 30, MEMORY_BUDGET_BYTES / 2 ** 30)
        )
    rng = np.random.default_rng(seed)
    n = lattice.n
    v = lattice.volume
    norms2 = lattice.voronoi_norms2(samples, rng)
    mean = norms2.mean()
    sigma2 = mean / n
    # norms2.std(ddof=1) in numpy's own order, but in place: the deviations
    # overwrite the norms rather than fill a second (samples,) array.
    norms2 -= mean
    np.square(norms2, out=norms2)
    stderr = math.sqrt(norms2.sum() / (samples - 1)) / math.sqrt(samples) / n
    probe_max = float(np.sqrt(lattice.voronoi_norms2(_DEEP_HOLE_PROBES, rng)).max())
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
