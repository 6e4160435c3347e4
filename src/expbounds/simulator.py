"""Seeded Monte Carlo validation of the bounds at small blocklengths.

Randomness contract, kept by `_per_block` alone: block i (BLOCK trials, the
last may be fewer) of substream s draws from a counter-based Philox stream
keyed by the seed at counter (s << 32) + i, so results do not depend on
scheduling; block results are added (counts) or concatenated, in block order.

Power convention: P = 1, codewords have norm sqrt(n), noise variance 1/SNR
per dimension.  Normalized distances divide by sqrt(n).

The module needs numpy alone: the cap law of the spherical ensemble and the
Clopper-Pearson bounds of every result come from `_beta`.

The spherical ML ensemble is simulated without drawing codebooks (Shannon
1959, "Probability of error for optimal codes in a Gaussian channel").  All
codewords have the same norm, so ML decoding picks the largest inner product
with y, and a rival wins (ties count as errors) exactly when the angle it
makes with y is at most the angle phi between y and the sent codeword.  The
M-1 rivals are independent and uniform on the sphere, so given y each wins
with the cap probability q = I_x((n-1)/2, (n-1)/2), x = sin^2(phi/2), and
P(err | y) = 1 - (1-q)^(M-1).  By rotational symmetry phi depends on the
noise only through its component g ~ N(0, sigma^2) along the sent codeword
and its squared orthogonal part sigma^2 chi^2_(n-1).  A trial draws those two
scalars and an Exp(1) variate E = -ln V, and errs iff
E < -(M-1) ln(1-q): a Bernoulli(P(err | y)) draw, which is the brute-force
ML error law at O(1) cost and memory per trial.  q rises with x, so a cached
table of q at CAP_KNOTS + 1 knots of x in [0, 1/2] (built once per n)
brackets each trial's threshold; only trials whose E falls inside their
bracket, about 0.15% at n = 8 and 12, SNR 2, evaluate ln q exactly
(`_beta.log_cap`, finite where q underflows).  Every x takes the same terms
there, so the decisions are those of one evaluation per trial, bit for bit,
at about 0.08 us a trial (n = 8, M = 9, 100 000 trials, in process on a
2-vCPU Xeon); the random draws are most of the cost.  The noise is handled
in units of a power of two at least max(1, sigma), so sigma^2 chi^2 cannot
overflow at any finite noise variance.  n = 1 is the discrete case: the
"sphere" is {-1, +1}, a rival equals the sent word with probability 1/2 and
that tie counts as an error.
The expurgated ensemble has dependent codewords, so it still builds its
codebooks (all of a block at once, slot by slot) and decodes by the largest
inner product, which does not cancel to ties at huge noise as distances do.
The same rotational symmetry builds each book in the Gram-Schmidt frame of
its own codewords (`_expurgated_codebooks`): a slot-k candidate draws its
w = min(k, n) coordinates on the earlier codewords' axes and, when w < n,
one chi^2_(n-w) energy off them, not n normals, and a trial's noise needs
only its r = min(M, n) coordinates on the books' axes.  The books are held
as (slot, coordinate, book), and one einsum screens a round of candidates
and one decodes a block, each adding its products one coordinate at a time.
At n = 8, M = 9, d_min = 0.6 a book draws 36 normals and 7 chi^2 variates,
plus its redraws, and a trial costs about 1.7 us (2-vCPU Xeon, in process),
about half of it in the draws.  `SimConfig` budgets
min(trials, BLOCK) (2 M min(M, n) + n + 16) 8 bytes for a block: its books,
as much again for expurgating and decoding, and the per-trial bookkeeping.
A block's traced peak is at most about 0.7 of that.

The lattice-coset ensemble is simulated without coset leaders (Erez & Zamir
2004, "Achieving 1/2 log(1+SNR) on the AWGN channel with lattice encoding and
decoding").  The sender transmits x = [v_sent - u] mod Lambda for a dither u
uniform over the Voronoi region, so x is uniform over that region and
independent of the message.  The receiver forms y' = [alpha y + u] mod Lambda
= [v_sent + z_eff] mod Lambda, with the effective noise
z_eff = alpha z - (1-alpha) x, so coset i lies at distance
dist(z_eff + v_sent - v_i, Lambda).  The leaders are independent and uniform
over R^n/Lambda, so for every i != sent the offset (v_sent - v_i) mod Lambda
is uniform too, independent across i and of z_eff: each rival distance is
||U_i||^2 with U_i iid uniform over the Voronoi region.  A trial draws x and
z; one call of `Lattice.residual_norms2` on z_eff gives the sent coset's
distance t = ||z_eff mod Lambda||^2 and whether z_eff left the Voronoi
region, without building the closest points.  At alpha = 1, z_eff = z and
x is never read, so its uniforms are skipped rather than drawn: the block's
Philox counter is advanced past them (`_skip_uniforms`), which leaves every
later draw as it was.  An E8 trial at SNR 4, M = 11 costs about 0.5 us,
and a D4 trial (M = 5, extended) 0.2 to 0.3 us (2-vCPU Xeon, 20 000
trials, in process).
Closest-coset decoding errs iff some rival has ||U_i||^2 <= t, which has
probability 1 - (1 - F(t))^(M-1) with F the Voronoi-norm CDF.  For Z^n, D4
and E8, F is exact below the radius where facet caps overlap
(`lattices.VoronoiShell`), and there a trial draws one Exp(1) variate, as in
the spherical case, at a cost that does not depend on M.  Above that radius,
and for every trial of a basis without shell data, rivals are drawn in rounds
of at most BLOCK until one is that close or M-1 have been drawn.  Such a
trial draws min(M-1, G) rivals, with G geometric of mean 1/F(t), so its cost
grows with M up to about 1/F(t) (F(t0) is near 1e-3 for a normalized Z^16).
Memory is O(BLOCK n) for any M.
"""

import functools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import _beta
from .channel import ChannelSpec
from .lattices import MEMORY_BUDGET_BYTES, Lattice, voronoi_shell

BLOCK = 4096
MAX_CODEBOOK = 65536

SPHERICAL = "spherical"
SPHERICAL_EXPURGATED = "spherical-expurgated"
LATTICE_COSET = "lattice-coset"

DEC_ML = "ml"
DEC_EUCLIDEAN_EXTENDED = "euclidean-extended"
DEC_CLOSEST_COSET = "closest-coset"


def block_rng(seed, index):
    """Independent substream for one block: counter-based, scheduling-proof."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _blocks(trials):
    """(index, size) of each block of `trials`, in block order, one at a time."""
    return ((i, min(BLOCK, trials - start)) for i, start in enumerate(range(0, trials, BLOCK)))


def _per_block(trials, seed, draw, stream=0):
    """draw(rng, size) for each block of `trials`, in block order, as an
    iterator: a block is drawn only when its result is asked for, so memory
    does not grow with the number of blocks.

    The one block driver: the only caller of `block_rng` (module docstring).
    """
    return (draw(block_rng(seed, (stream << 32) + i), size) for i, size in _blocks(trials))


def _most_codewords(n, d_min):
    """An upper bound on the codewords of the sphere of radius sqrt(n) in R^n
    with pairwise distances at least d_min sqrt(n), or inf where none is used.

    The sphere of R^1 has two points, so any floor above 0 allows 2.  Past
    the right angle, d_min > sqrt(2), Rankin's bound n + 1 holds, and so
    does 1 + 2/(d_min^2 - 2), from ||x_1 + ... + x_M||^2 >= 0 with every
    inner product at most n (1 - d_min^2/2): 2 at d_min = 2, n + 1 at the
    regular simplex's chord.  It is rounded down after a 1e-9 allowance, so
    a floor given as a rounded chord of a code that meets it keeps that
    code's size.  At the right angle itself at most 2n fit (Rankin).
    """
    if n == 1 and d_min > 0.0:
        return 2
    if d_min > math.sqrt(2.0):
        return min(n + 1, math.floor(1.0 + 2.0 / (d_min * d_min - 2.0) + 1e-9))
    if d_min == math.sqrt(2.0):
        return 2 * n
    return math.inf


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run description."""

    n: int
    spec: ChannelSpec
    rate: float  # nats per dimension
    ensemble: str = SPHERICAL
    decoder: str = DEC_ML
    trials: int = 10_000
    seed: int = 0
    d_min: float = 0.0  # normalized floor for the expurgated ensemble
    lattice: Lattice | None = None
    alpha: float = 1.0
    noise_var: float | None = None  # defaults to 1/SNR

    def __post_init__(self):
        if self.ensemble not in _ENSEMBLES:
            raise ValueError(
                "unknown ensemble %r; choose from %s" % (self.ensemble, ", ".join(_ENSEMBLES))
            )
        decoders, _ = _ENSEMBLES[self.ensemble]
        if self.decoder not in decoders:
            raise ValueError(
                "ensemble %r takes decoder %s, not %r"
                % (self.ensemble, " or ".join(decoders), self.decoder)
            )
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2 ** 128:
            raise ValueError("seed must be in [0, 2^128)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.noise_var is not None and not 0.0 <= self.noise_var < math.inf:
            raise ValueError("noise_var must be finite and >= 0")
        if not 0.0 <= self.d_min <= 2.0:
            raise ValueError("d_min must be in [0, 2] (a chord of the unit sphere)")
        if not 0.0 < self.rate <= math.log(2 * MAX_CODEBOOK) / self.n:
            raise ValueError(
                "rate %r puts the codebook size e^(n rate) outside (1, %d]"
                % (self.rate, 2 * MAX_CODEBOOK)
            )
        m = self.codebook_size
        if m < 2:
            raise ValueError("codebook size %d < 2; raise rate or n" % m)
        if m > MAX_CODEBOOK:
            raise ValueError("codebook size %d exceeds cap %d" % (m, MAX_CODEBOOK))
        if self.ensemble == SPHERICAL_EXPURGATED:
            most = _most_codewords(self.n, self.d_min)
            if m > most:
                raise ValueError(
                    "d_min %g admits at most %d codewords in n = %d, not %d"
                    % (self.d_min, most, self.n, m)
                )
            # A block holds its codebooks of M min(M, n) floats a trial, and
            # less than as much again while it expurgates and decodes (the
            # module docstring), plus n + 16 floats a trial of bookkeeping.
            # `tests/test_expurgation.py` traces the peak.
            need = min(self.trials, BLOCK) * (2 * m * min(m, self.n) + self.n + 16) * 8
            if need > MEMORY_BUDGET_BYTES:
                raise ValueError(
                    "expurgated codebooks need about %.3g GiB, over the %.3g GiB budget;"
                    " lower n, rate or trials"
                    % (need / 2 ** 30, MEMORY_BUDGET_BYTES / 2 ** 30)
                )
        if self.ensemble == LATTICE_COSET:
            if self.lattice is None:
                raise ValueError("lattice-coset ensemble requires a lattice")
            if self.lattice.n != self.n:
                raise ValueError(
                    "lattice %s has dimension %d, not n = %d"
                    % (self.lattice.name, self.lattice.n, self.n)
                )

    @property
    def codebook_size(self):
        return int(round(math.exp(self.n * self.rate)))

    @property
    def noise_variance(self):
        return 1.0 / self.spec.snr if self.noise_var is None else self.noise_var


@dataclass(frozen=True)
class SimResult:
    """Outcome of a Monte Carlo run."""

    trials: int
    errors: int
    pe: float
    ci95: tuple
    empirical_exponent: float | None

    def to_json(self, config_summary):
        rec = asdict(self)
        rec["ci95"] = list(self.ci95)
        rec["config"] = config_summary
        return json.dumps(rec, sort_keys=True)


def clopper_pearson(errors, trials):
    """Exact 95% binomial confidence interval (valid at zero counts).

    Clopper-Pearson: lo is the p at which P(X >= errors) = 0.025 and hi the p
    at which P(X <= errors) = 0.025, for X ~ Bin(trials, p); the second is
    the first for trials - errors failures (`_beta.binomial_root`).
    """
    lo = 0.0 if errors == 0 else _beta.binomial_root(errors, trials)[0]
    hi = 1.0 if errors == trials else _beta.binomial_root(trials - errors, trials)[1]
    return lo, hi


def _result(errors, trials, n):
    pe = errors / trials
    return SimResult(
        trials=trials,
        errors=errors,
        pe=pe,
        ci95=clopper_pearson(errors, trials),
        empirical_exponent=(-math.log(pe) / n) if errors > 0 else None,
    )


# Candidates drawn per round while expurgating: a few pending codebooks draw
# several each, so a hard floor costs few numpy calls.
_CANDIDATES = 256


def _expurgated_codebooks(rng, count, m, n, d_min):
    """`count` codebooks whose codewords keep pairwise distance >= d_min sqrt(n),
    each in the Gram-Schmidt frame of its own codewords.

    Built slot by slot across all codebooks at once.  Slot 0 is sqrt(n) e_1,
    and codewords 0..k-1 lie on the first w = min(k, n) axes, so a slot-k
    candidate is w normals there and, when w < n, a chi^2_(n-w) energy off
    them, divided by the root of their total square and multiplied by
    sqrt(n).  Only the w coordinates meet the screen; an accepted candidate
    puts its orthogonal part on +e_(w+1).  A rotation fixing the first w axes
    takes a uniform candidate of the full space there, so each book has the
    law of one-at-a-time sequential rejection up to a rotation, which neither
    the screen nor the decode can see.  Every pending book draws candidates
    until one clears its first k codewords.  A book that needs more than
    10 000 M draws in all raises RuntimeError.  The books are held as (slot,
    coordinate, book) with r = min(M, n) coordinates, and returned as a
    (count, M, r) view.
    """
    books = np.zeros((m, min(m, n), count))
    books[0, 0] = math.sqrt(n)
    # Equal norms: |a - b|^2 >= d_min^2 n  iff  <a, b> <= n (1 - d_min^2 / 2).
    ip_max = n * (1.0 - 0.5 * d_min * d_min)
    attempts = np.ones(count, dtype=np.int64)
    for k in range(1, m):
        # The candidate's w coordinates on the earlier codewords' axes and,
        # when w < n, its orthogonal part on the next axis: v rows.
        w = min(k, n)
        v = min(k + 1, n)
        todo = np.arange(count)
        while todo.size:
            per = max(1, _CANDIDATES // todo.size)
            # When every book draws one candidate, they are drawn into the
            # slot, and the books that reject theirs overwrite it later.
            whole = todo.size == count and per == 1
            cand = books[k, :v, :, None] if whole else np.empty((v, todo.size, per))
            rng.standard_normal(out=cand[:w])
            norm = np.einsum("wtp,wtp->tp", cand[:w], cand[:w])
            if w < n:
                cand[w] = rng.chisquare(n - w, (todo.size, per))
                norm += cand[w]
                np.sqrt(cand[w], out=cand[w])
            cand /= np.sqrt(norm)
            cand *= math.sqrt(n)
            earlier = books[:k, :w] if todo.size == count else books[:k, :w, todo]
            ok = np.einsum("kwt,wtp->ktp", earlier, cand[:w]).max(axis=0) <= ip_max
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)  # the first candidate in draw order that clears
            attempts[todo] += np.where(hit, first + 1, per)
            if not whole:
                books[k][:v, todo[hit]] = cand[:, hit, first[hit]]
            todo = todo[~hit]
            # Only this round's books drew, and every other book was checked
            # when it last drew.
            if attempts.max() > 10_000 * m:
                raise RuntimeError("expurgation cannot reach %d codewords" % m)
    return books.transpose(2, 0, 1)


# Knots of the cap table: s = k / (2 CAP_KNOTS), k = 0..CAP_KNOTS, cover
# [0, 1/2].  A power of two, so s * 2 CAP_KNOTS and every knot are exact.
# 1024 knots leave about 0.15% of the benchmark's trials to an exact
# evaluation, and the table costs one 1025-point `_beta.log_cap` call per n.
CAP_KNOTS = 1024
# Relative slack on the tabulated cap probabilities, added to ln I_s.
# `_beta.log_cap` is not monotone at the level of its rounding: at knots
# +-4 ulps it steps backwards by up to 3e-14 in ln I_s for n <= 200 (where
# |ln I_s| is large, near the first knots).  1e-9 covers that with room, and
# keeps the bounds on ln P(miss) many ulps away from any value the
# evaluator can return.
CAP_SLACK = 1e-9


@functools.lru_cache(maxsize=64)
def _cap_table(n):
    """Bounds on ln P(a rival misses) between the cap-table knots, for dimension n.

    Returns (least, most), each of length 2 CAP_KNOTS: entry k bounds
    ln(1 - I_s(a, a)) and entry CAP_KNOTS + k bounds ln I_s(a, a), a = (n-1)/2,
    for every s in [s_k, s_{k+1}].  I_s rises with s, so I_{s_k} and
    I_{s_{k+1}}, widened by the slack, bound it on the interval.
    """
    log_cap = _beta.log_cap(n, np.arange(CAP_KNOTS + 1) / (2.0 * CAP_KNOTS))
    lo = log_cap[:-1] + math.log1p(-CAP_SLACK)
    hi = log_cap[1:] + math.log1p(CAP_SLACK)
    least = np.concatenate([np.log1p(-np.exp(hi)), lo])
    most = np.concatenate([np.log1p(-np.exp(lo)), hi])
    least.flags.writeable = most.flags.writeable = False  # shared by every caller
    return least, most


def _log_miss_bounds(n, s, par):
    """Bounds (least, most) on each trial's ln P(a rival misses); see `_cap_table`."""
    least, most = _cap_table(n)
    k = np.minimum((s * (2 * CAP_KNOTS)).astype(np.intp), CAP_KNOTS - 1)
    k = np.where(par >= 0.0, k, k + CAP_KNOTS)
    return least[k], most[k]


def _spherical_ml_errors(config, rng, count):
    """ML errors of `count` trials, each with a fresh uniform spherical codebook.

    Draws only the noise along the sent codeword, its orthogonal energy and
    one Exp(1) variate per trial; see the module docstring.  A trial errs iff
    E < -(M-1) ln P(miss).  The cap table brackets ln P(miss), and only the
    trials whose E falls inside the bracket evaluate `_beta.log_cap`.
    """
    n, m = config.n, config.codebook_size
    # Lengths in units of a power of two at least max(1, sigma), so that
    # sigma^2 chi^2 cannot overflow.  The scaling is exact, so s keeps its
    # bits wherever it did not overflow unscaled.
    sd = math.sqrt(config.noise_variance)
    unit = 1.0 if sd <= 1.0 else math.ldexp(1.0, math.frexp(sd)[1])
    sd /= unit
    par = math.sqrt(n) / unit + rng.normal(scale=sd, size=count)
    expo = rng.standard_exponential(count)
    if n == 1:
        # A rival is the sent point (a tie, counted) or the other one,
        # which wins when y is not on the sent side.
        log_miss = np.where(par > 0.0, math.log(0.5), -np.inf)
        return int((expo < -(m - 1) * log_miss).sum())
    perp2 = (sd * sd) * rng.chisquare(n - 1, size=count)
    norm = np.sqrt(par * par + perp2)
    # sin^2 of half the angle between y and the nearer of +-sent,
    # in a form without cancellation.
    s = perp2 / (2.0 * norm * (norm + np.abs(par)))
    least, most = _log_miss_bounds(n, s, par)
    err = expo < -(m - 1) * most
    unsure = np.flatnonzero(~err & (expo < -(m - 1) * least))
    if unsure.size:
        log_cap = _beta.log_cap(n, s[unsure])
        # Past the equator I_{1-s}(a, a) = 1 - I_s(a, a), so 1 - q = I_s.
        log_miss = np.where(par[unsure] >= 0.0, np.log1p(-np.exp(log_cap)), log_cap)
        err[unsure] = expo[unsure] < -(m - 1) * log_miss
    return int(err.sum())


def _expurgated_errors(config, rng, count):
    """ML errors of `count` trials, each with a fresh expurgated codebook.

    Only the noise on the r axes of the books' frame moves an inner product
    with a codeword, so a trial draws r normals of noise, not n.
    """
    m = config.codebook_size
    books = _expurgated_codebooks(rng, count, m, config.n, config.d_min)
    sent = rng.integers(m, size=count)
    rows = np.arange(count)
    y = rng.normal(scale=math.sqrt(config.noise_variance), size=(books.shape[2], count))
    y += books[rows, sent].T
    # Equal norms: ML picks the largest inner product.  Distances would cancel
    # to ties once ||y||^2 dwarfs the codeword terms, and overflow near 1e308.
    ips = np.einsum("mrb,rb->mb", books.transpose(1, 2, 0), y)
    ip_sent = ips[sent, rows]
    ips[sent, rows] = -np.inf
    # Pessimistic tie rule: a rival at an equal inner product counts as an error.
    return int((ips.max(axis=0) >= ip_sent).sum())


def _rivals_lost(lattice, shell, rng, d2_sent, m):
    """Whether one of M-1 iid Voronoi rivals is at most d2_sent away, per trial.

    Below the cap-overlap radius of `shell` the rival norm law F is exact, so
    a trial errs with probability 1 - (1-F(t))^(M-1), decided by one Exp(1)
    draw E as E < -(M-1) ln(1 - F(t)).  The other trials, and every trial
    when `shell` is None, draw rivals in rounds of at most BLOCK in all,
    until one is at most t away or M-1 have been drawn.
    """
    lost = np.zeros(d2_sent.size, dtype=bool)
    todo = np.arange(d2_sent.size)
    if shell is not None:
        below = d2_sent < shell.overlap2
        expo = rng.standard_exponential(int(below.sum()))
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-shell.norm_cdf(d2_sent[below]))
        lost[below] = expo < -(m - 1) * log_miss
        todo = np.flatnonzero(~below)
    drawn = 0
    while todo.size and drawn < m - 1:
        per = min(m - 1 - drawn, max(1, BLOCK // todo.size))
        rivals2 = lattice.voronoi_norms2(todo.size * per, rng).reshape(todo.size, per)
        hit = (rivals2 <= d2_sent[todo, None]).any(axis=1)
        lost[todo[hit]] = True
        todo = todo[~hit]
        drawn += per
    return lost


def _simulate_lattice_block(config, rng, count, lattice):
    """Dithered coset transmission through the effective noise and iid rivals.

    See the module docstring for the reduction.  Closest-coset decoding errs
    when a rival coset is at most as far as the sent one; the extended decoder
    also errs when z_eff leaves the Voronoi region of the correct point.
    """
    n, m, alpha = config.n, config.codebook_size, config.alpha
    if alpha == 1.0:
        # z_eff is z: x is never read, so its uniforms are skipped, not drawn.
        _skip_uniforms(rng, count * n)
        z_eff = rng.normal(scale=math.sqrt(config.noise_variance), size=(count, n))
    else:
        x = lattice.sample_voronoi(count, rng)
        z = rng.normal(scale=math.sqrt(config.noise_variance), size=(count, n))
        z_eff = alpha * z - (1.0 - alpha) * x
    d2_sent, outside = lattice.residual_norms2(z_eff)
    # Pessimistic tie rule: a rival at equal distance counts as an error.
    lost = _rivals_lost(lattice, voronoi_shell(lattice), rng, d2_sent, m)
    if config.decoder == DEC_EUCLIDEAN_EXTENDED:
        # Unfolded, d2_sent is ||z_eff||^2: the extended decoder's own distance.
        lost |= outside
    return int(lost.sum())


def _skip_uniforms(rng, size):
    """Leave a fresh block generator (`block_rng`) where `rng.random(size)` would.

    Philox makes four 64-bit words a counter step and a double takes one,
    so `size` doubles from a fresh generator, whose buffer is empty, are
    size // 4 whole steps and size % 4 words of the next.  `advance` moves
    the counter and empties the buffer, so this holds only on a generator
    that has drawn nothing yet.
    """
    steps, words = divmod(size, 4)
    rng.bit_generator.advance(steps)
    rng.random(words)


@functools.lru_cache(maxsize=16)
def _mc_second_moment(basis_bytes, n):
    lattice = Lattice("", np.frombuffer(basis_bytes).reshape(n, n))
    return float(lattice.voronoi_norms2(200_000, np.random.default_rng(0)).mean() / n)


def normalized_lattice(lattice):
    """Rescale a lattice so its Voronoi second moment is the unit power.

    Lattices with a fast decoder (the built-ins, and basis files that
    `load_basis` recognises as one) use their exact second moment; any
    other basis uses a 200k-sample Monte Carlo estimate, computed once per
    basis.
    """
    shell = voronoi_shell(lattice)
    if shell is None:
        sigma2 = _mc_second_moment(lattice.basis.tobytes(), lattice.n)
    else:
        sigma2 = shell.second_moment
    return lattice.rescaled(1.0 / math.sqrt(sigma2))


# Each ensemble's decoders, and its block function: block(config, rng, count)
# returns the errors of `count` trials.  The coset block also takes the
# normalized lattice.
_ENSEMBLES = {
    SPHERICAL: ((DEC_ML,), _spherical_ml_errors),
    SPHERICAL_EXPURGATED: ((DEC_ML,), _expurgated_errors),
    LATTICE_COSET: ((DEC_EUCLIDEAN_EXTENDED, DEC_CLOSEST_COSET), _simulate_lattice_block),
}


def simulate(config: SimConfig) -> SimResult:
    """Run the configured Monte Carlo experiment; deterministic given seed."""
    _, block = _ENSEMBLES[config.ensemble]
    draw = functools.partial(block, config)
    if config.ensemble == LATTICE_COSET:
        draw = functools.partial(draw, lattice=normalized_lattice(config.lattice))
    errors = sum(_per_block(config.trials, config.seed, draw))
    return _result(errors, config.trials, config.n)
