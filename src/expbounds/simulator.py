"""Seeded Monte Carlo validation of the bounds at small blocklengths.

Randomness contract: trials are split into fixed-size blocks and every block
gets its own counter-based substream derived from (seed, block index) only,
so results are identical for any worker count or scheduling; error counts
are reduced by addition (a commutative monoid).

Power convention: P = 1, codewords have norm sqrt(n), noise variance 1/SNR
per dimension.  Normalized distances divide by sqrt(n).

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
bracket, about 0.15% at n = 8 and 12, SNR 2, evaluate betainc.  The decisions
are those of one betainc call per trial, bit for bit, at 0.13 us a trial
instead of 0.29 (n = 8, M = 9, 2-vCPU Xeon); the random draws are now most of
the cost.  The noise is handled in units of a power of two at least
max(1, sigma), so sigma^2 chi^2 cannot overflow at any finite noise
variance.  n = 1 is the discrete case: the "sphere" is {-1, +1}, a rival
equals the sent word with probability 1/2 and that tie counts as an error.
The expurgated ensemble has dependent codewords, so it still builds its
codebooks (all of a block at once) and decodes by the largest inner
product, which does not cancel to ties at huge noise as distances do.

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
z; one closest-point call on z_eff gives the sent coset's distance
t = ||z_eff mod Lambda||^2 and whether z_eff left the Voronoi region.
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
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy import special

from .awgn import sphere_packing_exponent, tail_exponents, theta_of_rate
from .channel import ChannelSpec
from .lattices import MEMORY_BUDGET_BYTES, Lattice, lattice_figures, voronoi_shell
from .regions import joint_tail_exponent, tangent_sphere_scaling

BLOCK = 4096
MAX_CODEBOOK = 65536

SPHERICAL = "spherical"
SPHERICAL_EXPURGATED = "spherical-expurgated"
LATTICE_COSET = "lattice-coset"

DEC_ML = "ml"
DEC_EUCLIDEAN_EXTENDED = "euclidean-extended"
DEC_CLOSEST_COSET = "closest-coset"

# The decoders each ensemble accepts.
_DECODERS = {
    SPHERICAL: (DEC_ML,),
    SPHERICAL_EXPURGATED: (DEC_ML,),
    LATTICE_COSET: (DEC_EUCLIDEAN_EXTENDED, DEC_CLOSEST_COSET),
}


def block_rng(seed, index):
    """Independent substream for one block: counter-based, scheduling-proof."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _blocks(trials):
    full, rem = divmod(trials, BLOCK)
    sizes = [BLOCK] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


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
        decoders = _DECODERS.get(self.ensemble)
        if decoders is None:
            raise ValueError(
                "unknown ensemble %r; choose from %s" % (self.ensemble, ", ".join(_DECODERS))
            )
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
        if (
            self.ensemble == SPHERICAL_EXPURGATED
            and self.d_min > math.sqrt(2.0)
            and m > self.n + 1
        ):
            # Rankin: beyond the right-angle chord sqrt(2) at most n+1 points fit.
            raise ValueError(
                "d_min %g > sqrt(2) admits at most n+1 = %d codewords, not %d"
                % (self.d_min, self.n + 1, m)
            )
        if self.ensemble == SPHERICAL_EXPURGATED:
            # A block holds its codebooks and about as much again while expurgating.
            need = 2 * min(self.trials, BLOCK) * m * self.n * 8
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

    def to_json(self, config_summary=None):
        rec = asdict(self)
        rec["ci95"] = list(self.ci95)
        if config_summary is not None:
            rec["config"] = config_summary
        return json.dumps(rec, sort_keys=True)


def clopper_pearson(errors, trials, level=0.95):
    """Exact binomial confidence interval (valid at zero counts).

    Clopper-Pearson: the bounds are beta quantiles, taken by inverting the
    regularized incomplete beta function with `scipy.special.betaincinv`.
    """
    a = (1.0 - level) / 2.0
    lo = 0.0 if errors == 0 else float(special.betaincinv(errors, trials - errors + 1, a))
    hi = (
        1.0
        if errors == trials
        else float(special.betaincinv(errors + 1, trials - errors, 1.0 - a))
    )
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


def _sphere_points(rng, shape, n):
    c = rng.normal(size=(*shape, n))
    c /= np.linalg.norm(c, axis=-1, keepdims=True)  # exactly +-1 when n = 1
    c *= math.sqrt(n)
    return c


# Candidates drawn per round while expurgating: a few pending codebooks draw
# several each, so a hard floor costs few numpy calls.
_CANDIDATES = 256


def _expurgated_codebooks(rng, count, m, n, d_min):
    """`count` codebooks whose codewords keep pairwise distance >= d_min sqrt(n).

    Built slot by slot across all codebooks at once.  For slot k every book
    draws uniform candidates until one clears its first k codewords, and only
    books still pending draw again; each candidate is accepted or rejected
    exactly as in one-at-a-time sequential rejection, so each codebook has that
    law.  A book that needs more than 10 000 M draws in all raises
    RuntimeError.
    """
    books = np.empty((count, m, n))
    books[:, 0] = _sphere_points(rng, (count,), n)
    # Equal norms: |a - b|^2 >= d_min^2 n  iff  <a, b> <= n (1 - d_min^2 / 2).
    ip_max = n * (1.0 - 0.5 * d_min * d_min)
    attempts = np.ones(count, dtype=np.int64)
    for k in range(1, m):
        todo = np.arange(count)
        while todo.size:
            per = max(1, _CANDIDATES // todo.size)
            cand = _sphere_points(rng, (todo.size, per), n)
            ips = cand @ books[todo, :k].transpose(0, 2, 1)
            ok = (ips <= ip_max).all(axis=2)
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)  # the first candidate in draw order that clears
            attempts[todo] += np.where(hit, first + 1, per)
            if (attempts[todo] > 10_000 * m).any():
                raise RuntimeError("expurgation cannot reach %d codewords" % m)
            books[todo[hit], k] = cand[hit, first[hit]]
            todo = todo[~hit]
    return books


# Knots of the cap table: s = k / (2 CAP_KNOTS), k = 0..CAP_KNOTS, cover
# [0, 1/2].  A power of two, so s * 2 CAP_KNOTS and every knot are exact.
# 1024 knots leave about 0.15% of the benchmark's trials to an exact
# evaluation, and the table costs one 1025-point betainc call per n.
CAP_KNOTS = 1024
# Relative slack on the tabulated cap probabilities.  betainc is not monotone
# at the level of its rounding: at knots +-3 ulps it steps backwards by up to
# 2.4e-14 relative for n <= 200.  1e-9 covers that with room, and keeps the
# bounds on ln P(miss) many ulps away from any value betainc can return.
CAP_SLACK = 1e-9
# Absolute slack: below the smallest normal float betainc returns
# subnormals, whose relative error CAP_SLACK does not bound.
_CAP_TINY = np.finfo(float).tiny


@functools.lru_cache(maxsize=64)
def _cap_table(n):
    """Bounds on ln P(a rival misses) between the cap-table knots, for dimension n.

    Returns (least, most), each of length 2 CAP_KNOTS: entry k bounds
    ln(1 - I_s(a, a)) and entry CAP_KNOTS + k bounds ln I_s(a, a), a = (n-1)/2,
    for every s in [s_k, s_{k+1}].  I_s rises with s, so I_{s_k} and
    I_{s_{k+1}}, widened by the slack, bound it on the interval.
    """
    a = 0.5 * (n - 1)
    cap = special.betainc(a, a, np.arange(CAP_KNOTS + 1) / (2.0 * CAP_KNOTS))
    lo = np.maximum(cap[:-1] * (1.0 - CAP_SLACK) - _CAP_TINY, 0.0)
    hi = cap[1:] * (1.0 + CAP_SLACK) + _CAP_TINY
    with np.errstate(divide="ignore"):
        least = np.concatenate([np.log1p(-hi), np.log(lo)])
        most = np.concatenate([np.log1p(-lo), np.log(hi)])
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
    trials whose E falls inside the bracket evaluate betainc.
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
        cap = special.betainc(0.5 * (n - 1), 0.5 * (n - 1), s[unsure])
        # Past the equator I_{1-s}(a, a) = 1 - I_s(a, a), so 1 - q = cap.
        with np.errstate(divide="ignore"):
            log_miss = np.where(par[unsure] >= 0.0, np.log1p(-cap), np.log(cap))
        err[unsure] = expo[unsure] < -(m - 1) * log_miss
    return int(err.sum())


def _simulate_spherical_block(config, rng, count):
    if config.ensemble != SPHERICAL_EXPURGATED:
        return _spherical_ml_errors(config, rng, count)
    n, m = config.n, config.codebook_size
    sd = math.sqrt(config.noise_variance)
    books = _expurgated_codebooks(rng, count, m, n, config.d_min)
    sent = rng.integers(m, size=count)
    rows = np.arange(count)
    y = books[rows, sent] + rng.normal(scale=sd, size=(count, n))
    # Equal norms: ML picks the largest inner product.  Distances would cancel
    # to ties once ||y||^2 dwarfs the codeword terms, and overflow near 1e308.
    ips = (books * y[:, None, :]).sum(axis=2)
    ip_sent = ips[rows, sent]
    ips[rows, sent] = -np.inf
    # Pessimistic tie rule: a rival at an equal inner product counts as an error.
    return int((ips.max(axis=1) >= ip_sent).sum())


def _rivals_lost(lattice, shell, rng, d2_sent, m):
    """Whether one of M-1 iid Voronoi rivals is at most d2_sent away, per trial.

    Below the cap-overlap radius of `shell` the rival norm law F is exact, so
    a trial errs with probability 1 - (1-F(t))^(M-1), decided by one Exp(1)
    draw E as E < -(M-1) ln(1 - F(t)).  The other trials, and every trial
    when `shell` is None, draw rivals in rounds of at most BLOCK in all,
    until one is at most t away or M-1 have been drawn.
    """
    n = lattice.n
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
        rivals = lattice.sample_voronoi(todo.size * per, rng).reshape(todo.size, per, n)
        hit = ((rivals ** 2).sum(axis=2) <= d2_sent[todo, None]).any(axis=1)
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
    x = lattice.sample_voronoi(count, rng)
    z = rng.normal(scale=math.sqrt(config.noise_variance), size=(count, n))
    z_eff = alpha * z - (1.0 - alpha) * x  # exactly z at alpha = 1
    near = lattice.nearest(z_eff)
    d2_sent = ((z_eff - near) ** 2).sum(axis=1)
    # Pessimistic tie rule: a rival at equal distance counts as an error.
    lost = _rivals_lost(lattice, voronoi_shell(lattice), rng, d2_sent, m)
    if config.decoder == DEC_EUCLIDEAN_EXTENDED:
        # Unfolded, d2_sent is ||z_eff||^2: the extended decoder's own distance.
        lost |= (near ** 2).sum(axis=1) > 0.0
    return int(lost.sum())


@functools.lru_cache(maxsize=16)
def _mc_second_moment(basis_bytes, n):
    basis = np.frombuffer(basis_bytes).reshape(n, n)
    return lattice_figures(Lattice("", basis), samples=200_000, seed=0).second_moment


def normalized_lattice(lattice):
    """Rescale a lattice so its Voronoi second moment is the unit power.

    Built-in lattices use their exact second moment; any other basis uses a
    200k-sample Monte Carlo estimate, computed once per basis.
    """
    shell = voronoi_shell(lattice)
    if shell is None:
        sigma2 = _mc_second_moment(lattice.basis.tobytes(), lattice.n)
    else:
        sigma2 = shell.second_moment
    return lattice.rescaled(1.0 / math.sqrt(sigma2))


def simulate(config: SimConfig) -> SimResult:
    """Run the configured Monte Carlo experiment; deterministic given seed."""
    lattice = None
    if config.ensemble == LATTICE_COSET:
        lattice = normalized_lattice(config.lattice)
    errors = 0
    for index, size in _blocks(config.trials):
        rng = block_rng(config.seed, index)
        if config.ensemble == LATTICE_COSET:
            errors += _simulate_lattice_block(config, rng, size, lattice)
        else:
            errors += _simulate_spherical_block(config, rng, size)
    return _result(errors, config.trials, config.n)


def tail_check_norm(n, spec: ChannelSpec, r_list, trials, seed):
    """Empirical P(||z|| >= r sqrt(n)) against the radial tail exponent.

    ||z||^2 is chi-square(n)/SNR exactly; each entry reports the empirical
    probability, the bound exp(-n E_h(r^2 SNR)), and the per-dimension
    log-ratio.
    """
    reports = []
    for j, r in enumerate(r_list):
        hits = 0
        thresh = r * r * n * spec.snr  # threshold for the chi-square variate
        for index, size in _blocks(trials):
            rng = block_rng(seed, (j << 32) + index)
            hits += int((rng.chisquare(n, size=size) >= thresh).sum())
        emp = hits / trials
        e_h, _ = tail_exponents(r * r * spec.snr)
        bound = math.exp(-n * e_h)
        reports.append(
            {
                "r": r,
                "empirical": emp,
                "bound": bound,
                "log_ratio_per_n": (math.log(emp / bound) / n) if emp > 0 else None,
                "stderr": math.sqrt(max(emp * (1.0 - emp), 1e-12) / trials),
            }
        )
    return reports


def tail_check_joint(n, spec: ChannelSpec, x, y, trials, seed):
    """Empirical P(|z_1| >= x sqrt(n), ||z_rest|| <= y sqrt(n)) vs its bound."""
    if not (y > x >= 0.0):
        raise ValueError("require y > x >= 0")
    snr = spec.snr
    hits = 0
    for index, size in _blocks(trials):
        rng = block_rng(seed, index)
        z1 = rng.normal(scale=1.0 / math.sqrt(snr), size=size)
        rest2 = rng.chisquare(n - 1, size=size) / snr
        hits += int(
            ((np.abs(z1) >= x * math.sqrt(n)) & (rest2 <= y * y * n)).sum()
        )
    emp = hits / trials
    bound = math.exp(-n * joint_tail_exponent(x, y, snr))
    return {
        "empirical": emp,
        "bound": bound,
        "log_ratio_per_n": (math.log(emp / bound) / n) if emp > 0 else None,
        "stderr": math.sqrt(max(emp * (1.0 - emp), 1e-12) / trials),
    }


def effective_noise_ball(n, spec: ChannelSpec, R, dither, trials, seed, lattice=None):
    """Probability that the scaled self-noise-plus-noise leaves its design ball.

    z_eff = ((1-a)/a) b + z with b either uniform on the power sphere or
    uniform over a power-matched Voronoi region; the ball radius is
    sqrt(n) sin(theta(R)) / a with a the tangent-sphere scaling at theta(R).
    Reports the empirical exponent against the sphere-packing exponent.

    At finite n the exit probability carries a polynomial prefactor, so the
    reported exponent exceeds E_sp by about (1/2 ln n)/n: for the spherical
    dither at E_sp = 0.05 and SNR 10 the exact value at n=64 is 0.0832.
    Convergence to E_sp at a fixed n is not promised.
    """
    theta = theta_of_rate(R)
    _, alpha, _ = tangent_sphere_scaling(theta, spec)
    k = (1.0 - alpha) / alpha
    radius2 = n * (math.sin(theta) / alpha) ** 2
    snr = spec.snr
    hits = 0
    if dither == "spherical":
        # By rotational symmetry only the component of z along b matters.
        for index, size in _blocks(trials):
            rng = block_rng(seed, index)
            g = rng.normal(scale=1.0 / math.sqrt(snr), size=size)
            rest2 = rng.chisquare(n - 1, size=size) / snr
            norm2 = (k * math.sqrt(n) + g) ** 2 + rest2
            hits += int((norm2 > radius2).sum())
    elif dither == "voronoi":
        lat = normalized_lattice(lattice)
        for index, size in _blocks(trials):
            rng = block_rng(seed, index)
            b = lat.sample_voronoi(size, rng)
            z = rng.normal(scale=1.0 / math.sqrt(snr), size=(size, n))
            norm2 = ((k * b + z) ** 2).sum(axis=1)
            hits += int((norm2 > radius2).sum())
    else:
        raise ValueError("dither must be 'spherical' or 'voronoi'")
    emp = hits / trials
    e_sp = sphere_packing_exponent(R, spec).value
    return {
        "empirical": emp,
        "ci95": clopper_pearson(hits, trials),
        "empirical_exponent": (-math.log(emp) / n) if emp > 0 else None,
        "target_exponent": e_sp,
    }


def empirical_spectrum(ensemble, n, bins, trials, seed, lattice=None):
    """Pairwise-distance statistics of a random ensemble.

    spherical: normalized chords between independent uniform points on the
    power sphere.  lattice-coset: offsets between independent Voronoi-uniform
    coset leaders, with the angle of the offset against a fixed axis.
    Returns (hist, edges, distances[, angles]).
    """
    if ensemble == SPHERICAL:
        chunks = []
        for index, size in _blocks(trials):
            rng = block_rng(seed, index)
            u = rng.normal(size=(size, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v = rng.normal(size=(size, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            chunks.append(np.linalg.norm(u - v, axis=1))
        d = np.concatenate(chunks)
        hist, edges = np.histogram(d, bins=bins, range=(0.0, 2.0))
        return hist, edges, d
    if ensemble == LATTICE_COSET:
        if lattice is None:
            raise ValueError("lattice-coset spectrum requires a lattice")
        offs = []
        for index, size in _blocks(trials):
            rng = block_rng(seed, index)
            offs.append(
                lattice.sample_voronoi(size, rng) - lattice.sample_voronoi(size, rng)
            )
        w = np.concatenate(offs)
        d = np.linalg.norm(w, axis=1)
        angles = np.arccos(np.clip(w[:, 0] / np.maximum(d, 1e-300), -1.0, 1.0))
        hist, edges = np.histogram(d, bins=bins)
        return hist, edges, d, angles
    raise ValueError("unknown ensemble %r" % ensemble)
