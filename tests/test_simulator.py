"""Monte Carlo machinery: determinism, decoders, tail checks, spectra."""

import functools
import itertools
import math
import tracemalloc

import mc_oracles as mc
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special, stats

from expbounds.channel import ChannelSpec
from expbounds import awgn, regions, simulator as sim
from expbounds.lattices import (
    Lattice, d4, e8, integer_lattice, lattice_figures, load_basis, voronoi_shell,
)

SNR2 = ChannelSpec(2.0)
SNR10 = ChannelSpec(10.0)


def _spherical_config(**kwargs):
    base = dict(n=8, spec=SNR2, rate=0.5 * SNR2.capacity_nats, trials=4096, seed=7)
    base.update(kwargs)
    return sim.SimConfig(**base)


def test_codebook_size():
    cfg = _spherical_config()
    assert cfg.codebook_size == round(math.exp(8 * 0.5 * SNR2.capacity_nats))
    assert cfg.codebook_size == 9


def test_rejects_tiny_codebook():
    with pytest.raises(ValueError):
        sim.SimConfig(n=2, spec=SNR2, rate=0.01, trials=10, seed=0)


def test_rejects_huge_codebook():
    with pytest.raises(ValueError):
        sim.SimConfig(n=16, spec=SNR10, rate=1.1, trials=10, seed=0)


@pytest.mark.parametrize(
    "n, m, trials, d_min",
    [(8, 9, 8192, 0.6), (8, 9, 512, 0.2), (16, 512, 4096, 0.5), (16, 512, 10 ** 6, 0.5)],
)
def test_expurgated_budget_admits_working_configs(n, m, trials, d_min):
    # The benchmark's expurgated configs and n=16, M=512 (about 0.54 GB).
    cfg = sim.SimConfig(n=n, spec=SNR2, rate=math.log(m) / n, trials=trials,
                        ensemble=sim.SPHERICAL_EXPURGATED, d_min=d_min)
    assert cfg.codebook_size == m


def test_determinism():
    cfg = _spherical_config(trials=10_000)
    a = sim.simulate(cfg)
    b = sim.simulate(cfg)
    assert a == b


def _brute_force_errors(config, seed):
    """Oracle: draw every codebook and decode by minimum distance.

    Uses its own generator, so it shares no random stream with `simulate`.
    Ties count as errors, as in the simulator.
    """
    rng = np.random.default_rng(seed)
    n, m = config.n, config.codebook_size
    sd = math.sqrt(config.noise_variance)
    errors = 0
    for _, count in sim._blocks(config.trials):
        books = rng.normal(size=(count, m, n))
        books /= np.linalg.norm(books, axis=2, keepdims=True)  # exact +-1 at n=1
        books *= math.sqrt(n)
        sent = rng.integers(m, size=count)
        rows = np.arange(count)
        y = books[rows, sent] + rng.normal(scale=sd, size=(count, n))
        d2 = ((books - y[:, None, :]) ** 2).sum(axis=2)
        d2_sent = d2[rows, sent]
        d2[rows, sent] = np.inf
        errors += int((d2.min(axis=1) <= d2_sent).sum())
    return errors


def _grid_config(n, m, snr, trials, seed):
    cfg = sim.SimConfig(
        n=n, spec=ChannelSpec(snr), rate=math.log(m) / n, trials=trials, seed=seed
    )
    assert cfg.codebook_size == m
    return cfg


def test_spherical_ml_holds_quadrature_pe():
    # Exact Pe = E[1 - (1 - q)^(M-1)] by 2-D quadrature over the noise
    # component along the sent codeword and the chi^2_(n-1) orthogonal energy.
    res = sim.simulate(_grid_config(8, 9, 2.0, 1_000_000, 7))
    assert res.ci95[0] <= 0.0532647 <= res.ci95[1]
    res = sim.simulate(_grid_config(12, 512, 2.0, 200_000, 7))
    assert res.ci95[0] <= 0.238275 <= res.ci95[1]


@pytest.mark.parametrize(
    "n, m, snr",
    [(2, 4, 1.0), (4, 8, 1.0), (8, 9, 2.0), (8, 64, 4.0), (12, 64, 2.0)],
)
def test_spherical_ml_matches_brute_force(n, m, snr):
    cfg = _grid_config(n, m, snr, 20_000, 3)
    lo1, hi1 = sim.simulate(cfg).ci95
    lo2, hi2 = sim.clopper_pearson(_brute_force_errors(cfg, 101), cfg.trials)
    assert lo1 <= hi2 and lo2 <= hi1, ((lo1, hi1), (lo2, hi2))


@pytest.mark.parametrize("m", [2, 3])
def test_spherical_ml_n1_pessimistic_ties(m):
    # On {-1, +1} a rival equals the sent word with probability 1/2 and that
    # tie counts as an error, so Pe = 1 - Phi(sqrt(SNR)) 2^-(M-1) exactly.
    exact = 1.0 - stats.norm.cdf(1.0) * 0.5 ** (m - 1)
    cfg = _grid_config(1, m, 1.0, 20_000, 5)
    lo, hi = sim.simulate(cfg).ci95
    assert lo <= exact <= hi
    lo, hi = sim.clopper_pearson(_brute_force_errors(cfg, 103), cfg.trials)
    assert lo <= exact <= hi


def _all_trials_ml_errors(config, rng, count):
    """Oracle: the spherical ML block with one exact betainc call per trial.

    The same draws in the same order as `simulate`, without the cap table's
    screen and without rescaling the noise, so it is exact only where
    sigma^2 chi^2 does not overflow.
    """
    n, m = config.n, config.codebook_size
    sd = math.sqrt(config.noise_variance)
    par = math.sqrt(n) + rng.normal(scale=sd, size=count)
    expo = rng.standard_exponential(count)
    with np.errstate(divide="ignore"):
        if n == 1:
            log_miss = np.where(par > 0.0, math.log(0.5), -np.inf)
        else:
            perp2 = (sd * sd) * rng.chisquare(n - 1, size=count)
            norm = np.sqrt(par * par + perp2)
            s = perp2 / (2.0 * norm * (norm + np.abs(par)))
            cap = special.betainc(0.5 * (n - 1), 0.5 * (n - 1), s)
            log_miss = np.where(par >= 0.0, np.log1p(-cap), np.log(cap))
    return int((expo < -(m - 1) * log_miss).sum())


# SNR per dimension, or None for noise_var 0.
_ORACLE_NOISE = (1e-4, 0.1, 2.0, 100.0, 1e5, None)


@pytest.mark.parametrize("n", [2, 3, 8, 12, 50, 200])
def test_spherical_ml_screen_matches_all_trials_oracle(n):
    # Every count must equal the oracle's: the screen only decides trials
    # whose exact decision it can prove.  One full block and a partial one.
    for snr in _ORACLE_NOISE:
        for m in (2, 3, 9, 512, 4096, 65536):
            cfg = sim.SimConfig(
                n=n, spec=ChannelSpec(snr or 1.0), rate=math.log(m) / n,
                trials=sim.BLOCK + 777, seed=n * m, noise_var=None if snr else 0.0,
            )
            assert cfg.codebook_size == m
            want = sum(
                _all_trials_ml_errors(cfg, sim.block_rng(cfg.seed, index), size)
                for index, size in sim._blocks(cfg.trials)
            )
            assert sim.simulate(cfg).errors == want, (n, snr, m)


def _exact_log_miss(n, s, par):
    cap = special.betainc(0.5 * (n - 1), 0.5 * (n - 1), s)
    with np.errstate(divide="ignore"):
        return np.where(par >= 0.0, np.log1p(-cap), np.log(cap))


def _near_knots(ulps):
    """Every knot of the cap table, and `ulps` floats on each side of it."""
    s = np.arange(sim.CAP_KNOTS + 1) / (2.0 * sim.CAP_KNOTS)
    out = [s]
    up, down = s, s
    for _ in range(ulps):
        up, down = np.nextafter(up, 1.0), np.nextafter(down, -1.0)
        out += [up, down[1:]]  # no s below 0
    return np.concatenate(out)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 12, 31, 64, 101, 200])
def test_cap_bracket_holds_at_every_knot(n):
    # betainc steps backwards by up to ~1e-14 relative at knots +-2 ulps, so
    # the bracket holds only with its slack.
    s = _near_knots(2)
    for sign in (1.0, -1.0):
        par = np.full(s.size, sign)
        least, most = sim._log_miss_bounds(n, s, par)
        exact = _exact_log_miss(n, s, par)
        assert (least <= exact).all() and (exact <= most).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(2, 200),
    st.integers(0, sim.CAP_KNOTS),
    st.integers(-4, 4),
    st.sampled_from([1.0, 0.0, -1.0]),
)
@example(8, sim.CAP_KNOTS, 1, 0.0)  # s a ulp above 1/2, as par = 0 can give
def test_cap_bracket_holds_near_knots(n, knot, ulps, par):
    s = knot / (2.0 * sim.CAP_KNOTS)
    for _ in range(abs(ulps)):
        s = float(np.nextafter(s, math.copysign(1.0, ulps)))
    assume(s >= 0.0)
    s, par = np.array([s]), np.array([par])
    least, most = sim._log_miss_bounds(n, s, par)
    exact = _exact_log_miss(n, s, par)
    assert least[0] <= exact[0] <= most[0], (least, exact, most)


def test_spherical_ml_par_zero_gives_s_about_one_half():
    # With par = 0 the angle to y is a right angle; rounding may put s an ulp
    # past 1/2, which the last knot interval must still cover.
    perp2 = np.random.default_rng(0).chisquare(7, size=10_000)
    norm = np.sqrt(perp2)
    s = perp2 / (2.0 * norm * norm)
    assert np.abs(s - 0.5).max() < 1e-15
    least, most = sim._log_miss_bounds(8, s, np.zeros_like(s))
    exact = _exact_log_miss(8, s, np.zeros_like(s))
    assert (least <= exact).all() and (exact <= most).all()


@pytest.mark.parametrize(
    "n, m, trials", [(8, 9, 16384), (8, 16, 16384), (8, 32, 16384), (8, 64, 16384),
                     (12, 64, 8192), (12, 512, 8192)],
)
def test_spherical_ml_screen_decides_most_trials(n, m, trials, monkeypatch):
    # The benchmark's spherical configs: at most 1% of trials call betainc.
    sim._cap_table(n)
    evaluated = []
    exact = special.betainc

    def spy(a, b, x):
        evaluated.append(np.size(x))
        return exact(a, b, x)

    monkeypatch.setattr(sim.special, "betainc", spy)
    cfg = _grid_config(n, m, 2.0, trials, 11)
    sim.simulate(cfg)
    assert sum(evaluated) <= 0.01 * trials, sum(evaluated)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise_var", [1e31, 1e300, 1e307, 1e308])
@pytest.mark.parametrize("ensemble", [sim.SPHERICAL, sim.SPHERICAL_EXPURGATED])
def test_spherical_pe_at_huge_noise(ensemble, noise_var):
    # As the noise grows, y's direction forgets the codebook and the sent word
    # is the best of M only by chance: Pe -> 1 - 1/M.
    d_min = 0.6 if ensemble == sim.SPHERICAL_EXPURGATED else 0.0
    cfg = _spherical_config(
        ensemble=ensemble, d_min=d_min, noise_var=noise_var, trials=8192, seed=5
    )
    lo, hi = sim.simulate(cfg).ci95
    assert lo <= 1.0 - 1.0 / cfg.codebook_size <= hi, (lo, hi)


def test_block_split_invariance():
    # For every ensemble of the table, a run equals the sum of its blocks, each
    # run by the ensemble's block function on its own substream
    # block_rng(seed, i), the partial last block included.
    extra = {
        sim.SPHERICAL: {},
        sim.SPHERICAL_EXPURGATED: {"d_min": 0.6},
        sim.LATTICE_COSET: dict(
            decoder=sim.DEC_CLOSEST_COSET, lattice=e8(), rate=math.log(11) / 8,
            spec=ChannelSpec(4.0),
        ),
    }
    assert extra.keys() == sim._ENSEMBLES.keys()
    for ensemble, (decoders, block) in sim._ENSEMBLES.items():
        cfg = _spherical_config(ensemble=ensemble, trials=2 * sim.BLOCK + 777, **extra[ensemble])
        assert cfg.decoder in decoders
        if ensemble == sim.LATTICE_COSET:
            block = functools.partial(block, lattice=sim.normalized_lattice(cfg.lattice))
        sizes = (sim.BLOCK, sim.BLOCK, 777)
        parts = [block(cfg, sim.block_rng(cfg.seed, i), size) for i, size in enumerate(sizes)]
        assert min(parts) > 0, ensemble
        assert sum(parts) == sim.simulate(cfg).errors, ensemble


def test_block_driver_is_lazy():
    # 10^15 trials are about 2.4e11 blocks: a list of them, or of their
    # results, would need terabytes before the first draw.  The first blocks
    # come in order, drawn one at a time, in O(1) memory.
    trials = 10 ** 15
    tracemalloc.start()
    try:
        first = list(itertools.islice(sim._blocks(trials), 3))
        seen = []
        draws = sim._per_block(trials, 5, lambda rng, size: seen.append(size) or size)
        got = list(itertools.islice(draws, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [(0, sim.BLOCK), (1, sim.BLOCK), (2, sim.BLOCK)]
    assert got == seen == [sim.BLOCK, sim.BLOCK]
    assert peak < 64 * 1024, peak
    assert list(sim._blocks(2 * sim.BLOCK + 777)) == [(0, sim.BLOCK), (1, sim.BLOCK), (2, 777)]
    assert list(sim._blocks(sim.BLOCK)) == [(0, sim.BLOCK)]
    assert list(sim._blocks(0)) == []


def test_skipped_uniforms_leave_the_block_stream_where_drawing_does():
    # At alpha = 1 a coset block skips the count * n uniforms of the unread
    # dither rather than drawing them: every later draw of the block must
    # be the same, whatever count * n % 4 (Philox's words a counter step).
    residues = set()
    for count, n in [(c, k) for c in range(40) for k in range(1, 17)] + [(sim.BLOCK, 8), (777, 3)]:
        drawn, skipped = sim.block_rng(9, 3), sim.block_rng(9, 3)
        drawn.random((count, n))
        sim._skip_uniforms(skipped, count * n)
        a, b = drawn.bit_generator.state, skipped.bit_generator.state
        assert np.array_equal(a["state"]["counter"], b["state"]["counter"])
        pos = a["buffer_pos"]
        assert b["buffer_pos"] == pos
        assert np.array_equal(a["buffer"][pos:], b["buffer"][pos:])
        assert np.array_equal(drawn.random(5), skipped.random(5))
        assert np.array_equal(drawn.normal(size=7), skipped.normal(size=7))
        residues.add(count * n % 4)
    assert residues == {0, 1, 2, 3}


def test_zero_noise_zero_errors():
    cfg = _spherical_config(
        ensemble=sim.SPHERICAL_EXPURGATED, d_min=0.2, noise_var=0.0, trials=1000
    )
    assert sim.simulate(cfg).errors == 0
    assert sim.simulate(_spherical_config(noise_var=0.0, trials=1000)).errors == 0


def test_expurgated_respects_distance_floor():
    rng = sim.block_rng(0, 0)
    books = sim._expurgated_codebooks(rng, 64, 9, 8, 0.5)
    d2 = ((books[:, :, None, :] - books[:, None, :, :]) ** 2).sum(axis=3)
    d2 += np.eye(9) * 1e9
    assert d2.min() >= 0.25 * 8 - 1e-9


def test_expurgated_unreachable_floor_raises():
    # Rankin: with pairwise chords above sqrt(2) at most n+1 points fit.
    with pytest.raises(ValueError):
        _spherical_config(
            n=4, rate=math.log(64) / 4, ensemble=sim.SPHERICAL_EXPURGATED, d_min=1.9
        )


def test_expurgation_attempt_cap_raises():
    # Rankin admits 5 points in 4 dimensions, but none keep chords of 1.9:
    # the regular simplex, the best such code, has chords sqrt(2.5) = 1.58.
    rng = sim.block_rng(0, 0)
    with pytest.raises(RuntimeError):
        sim._expurgated_codebooks(rng, 3, 5, 4, 1.9)


def test_expurgation_reduces_error_rate():
    plain = sim.simulate(_spherical_config(trials=20_000))
    exp = sim.simulate(
        _spherical_config(trials=20_000, ensemble=sim.SPHERICAL_EXPURGATED, d_min=0.7)
    )
    assert exp.pe < plain.pe


def test_clopper_pearson_edges():
    lo, hi = sim.clopper_pearson(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.06
    lo, hi = sim.clopper_pearson(100, 100)
    assert hi == 1.0 and lo > 0.94
    lo, hi = sim.clopper_pearson(10, 100)
    assert lo < 0.1 < hi


@pytest.mark.parametrize("trials", [1, 2, 10, 512, 4096, 20_000, 10 ** 6, 10 ** 7])
def test_clopper_pearson_matches_beta_ppf(trials):
    # The bounds are beta quantiles: betaincinv must give beta.ppf's bits.
    a = (1.0 - 0.95) / 2.0  # as clopper_pearson forms it, not the literal 0.025
    rng = np.random.default_rng(trials)
    counts = {0, 1, trials // 2, trials - 1, trials}
    counts |= {int(k) for k in rng.integers(0, trials + 1, size=20)}
    for errors in sorted(counts):
        lo = 0.0 if errors == 0 else float(stats.beta.ppf(a, errors, trials - errors + 1))
        hi = 1.0 if errors == trials else float(stats.beta.ppf(1.0 - a, errors + 1, trials - errors))
        assert sim.clopper_pearson(errors, trials) == (lo, hi), errors


def test_lattice_decoder_ordering():
    common = dict(
        n=8,
        spec=ChannelSpec(4.0),
        rate=0.25,
        ensemble=sim.LATTICE_COSET,
        lattice=e8(),
        alpha=0.8,
        trials=4096,
        seed=3,
    )
    cc = sim.simulate(sim.SimConfig(decoder=sim.DEC_CLOSEST_COSET, **common))
    ee = sim.simulate(sim.SimConfig(decoder=sim.DEC_EUCLIDEAN_EXTENDED, **common))
    assert cc.errors <= ee.errors
    assert cc.errors > 0  # the run is informative, not vacuous


def _coset_config(lattice, m, decoder, alpha=1.0, trials=10_000, seed=3, snr=4.0):
    n = lattice.n
    cfg = sim.SimConfig(
        n=n, spec=ChannelSpec(snr), rate=math.log(m) / n, ensemble=sim.LATTICE_COSET,
        decoder=decoder, lattice=lattice, alpha=alpha, trials=trials, seed=seed,
    )
    assert cfg.codebook_size == m
    return cfg


def _brute_force_coset_errors(config, seed):
    """Oracle: draw M coset leaders and a sent index, and decode every coset.

    Uses its own generator, so it shares no random stream with `simulate`.
    Costs about 2M+1 closest-point calls a trial.
    """
    rng = np.random.default_rng(seed)
    lattice = sim.normalized_lattice(config.lattice)
    n, m, alpha = config.n, config.codebook_size, config.alpha
    sd = math.sqrt(config.noise_variance)
    errors = 0
    for _, count in sim._blocks(config.trials):
        leaders = lattice.sample_voronoi(count * m, rng).reshape(count, m, n)
        sent = rng.integers(m, size=count)
        rows = np.arange(count)
        x = lattice.sample_voronoi(count, rng)
        z_eff = alpha * rng.normal(scale=sd, size=(count, n)) - (1.0 - alpha) * x
        # Distance from z_eff + (v_sent - v_i) to the lattice, per coset.
        offs = z_eff[:, None, :] + leaders[rows, sent][:, None, :] - leaders
        flat = offs.reshape(count * m, n)
        d2 = ((flat - lattice.nearest(flat)) ** 2).sum(axis=1).reshape(count, m)
        d2_sent = d2[rows, sent]
        d2[rows, sent] = np.inf
        rival = d2.min(axis=1)
        if config.decoder == sim.DEC_CLOSEST_COSET:
            errors += int((rival <= d2_sent).sum())
        else:
            folded = (lattice.nearest(z_eff) ** 2).sum(axis=1) > 0.0
            errors += int((folded | (rival <= (z_eff ** 2).sum(axis=1))).sum())
    return errors


def _erez_zamir_errors(config, seed):
    """Oracle from the channel's definition (Erez & Zamir 2004).

    Draws M coset leaders v_i, a sent index and a dither u, all uniform over
    the Voronoi region, sends x = [v_sent - u] mod Lambda through y = x + z,
    and decodes from alpha y + u.  Closest-coset decoding picks the coset
    nearest y' = [alpha y + u] mod Lambda.  The extended decoder picks the
    point of the union of the cosets nearest alpha y + u, and is right only
    on the point x + u that was sent.  Shares no reduction with `simulate`.
    """
    rng = np.random.default_rng(seed)
    lattice = sim.normalized_lattice(config.lattice)
    n, m = config.n, config.codebook_size
    sd = math.sqrt(config.noise_variance)

    def mod(points):
        return points - lattice.nearest(points)

    errors = 0
    for _, count in sim._blocks(config.trials):
        leaders = lattice.sample_voronoi(count * m, rng).reshape(count, m, n)
        sent = rng.integers(m, size=count)
        rows = np.arange(count)
        v = leaders[rows, sent]
        u = lattice.sample_voronoi(count, rng)
        x = mod(v - u)
        received = config.alpha * (x + rng.normal(scale=sd, size=(count, n))) + u
        y_mod = mod(received)
        d2 = (mod((y_mod[:, None, :] - leaders).reshape(count * m, n)) ** 2).sum(axis=1)
        d2 = d2.reshape(count, m)
        d2_sent = d2[rows, sent]
        d2[rows, sent] = np.inf
        rival = d2.min(axis=1)
        if config.decoder == sim.DEC_CLOSEST_COSET:
            errors += int((rival <= d2_sent).sum())
        else:
            point = x + u  # the point of the extended code that was sent
            in_coset = v + lattice.nearest(received - v)  # nearest point of the sent coset
            wrong = ((in_coset - point) ** 2).sum(axis=1) > 1e-9
            errors += int((wrong | (rival <= ((received - point) ** 2).sum(axis=1))).sum())
    return errors


def _iid_rival_block(config, rng, count, lattice, rows=sim.BLOCK):
    """Oracle: the block that draws all M-1 iid Voronoi rivals of every trial.

    Rivals are drawn `rows` trials at a time, in trial order.
    """
    n, m, alpha = config.n, config.codebook_size, config.alpha
    x = lattice.sample_voronoi(count, rng)
    z = rng.normal(scale=math.sqrt(config.noise_variance), size=(count, n))
    z_eff = alpha * z - (1.0 - alpha) * x
    near = lattice.nearest(z_eff)
    d2_sent = ((z_eff - near) ** 2).sum(axis=1)
    lost = np.empty(count, dtype=bool)
    for start in range(0, count, rows):
        size = min(rows, count - start)
        rivals = lattice.sample_voronoi(size * (m - 1), rng).reshape(size, m - 1, n)
        lost[start : start + size] = (
            (rivals ** 2).sum(axis=2).min(axis=1) <= d2_sent[start : start + size]
        )
    if config.decoder == sim.DEC_EUCLIDEAN_EXTENDED:
        lost |= (near ** 2).sum(axis=1) > 0.0
    return int(lost.sum())


def _iid_rival_errors(config, seed, rows=sim.BLOCK):
    rng = np.random.default_rng(seed)
    lattice = sim.normalized_lattice(config.lattice)
    return sum(
        _iid_rival_block(config, rng, count, lattice, rows)
        for _, count in sim._blocks(config.trials)
    )


def _assert_ci_overlap(res, errors, trials=None):
    lo, hi = sim.clopper_pearson(errors, trials or res.trials)
    assert res.ci95[0] <= hi and lo <= res.ci95[1], (res.ci95, (lo, hi))


def test_normalized_lattice_without_shell_keeps_the_figures_second_moment():
    # A basis without shell data is normalized by the Monte Carlo second
    # moment of `lattice_figures` at its 200 000 samples and seed 0, bit for bit.
    basis = np.random.default_rng(31).normal(size=(5, 5))
    lattice = Lattice("rand5", basis)
    assert voronoi_shell(lattice) is None
    got = sim.normalized_lattice(lattice)
    sigma2 = lattice_figures(Lattice("", basis), samples=200_000, seed=0).second_moment
    want = lattice.rescaled(1.0 / math.sqrt(sigma2))
    assert (got.name, got.decoder, got.scale) == (want.name, want.decoder, want.scale)
    assert got.basis.tobytes() == want.basis.tobytes()


@pytest.mark.parametrize("lattice", [integer_lattice(4), integer_lattice(8), d4(), e8()])
def test_voronoi_norm_law_is_exact_below_cap_overlap(lattice):
    # Built-in lattices normalize by their exact second moment, and below the
    # cap-overlap radius the exact norm law F matches Voronoi samples.
    lat = sim.normalized_lattice(lattice)
    shell = voronoi_shell(lat)
    samples = 200_000
    norms2 = (lat.sample_voronoi(samples, np.random.default_rng(17)) ** 2).sum(axis=1)
    stderr = norms2.std(ddof=1) / math.sqrt(samples) / lat.n
    assert abs(norms2.mean() / lat.n - 1.0) < 4.5 * stderr
    for t in np.linspace(0.2, 1.0, 5) * shell.overlap2:
        exact = float(shell.norm_cdf(t))
        emp = float((norms2 <= t).mean())
        sd = math.sqrt(exact * (1.0 - exact) / samples)
        assert abs(emp - exact) < 4.5 * sd + 1e-6, (t, exact, emp)


def test_voronoi_norm_law_z1_is_exact_everywhere():
    # Z^1's cell is [-1/2, 1/2]: F(t) = min(2 sqrt(t), 1), with no overlap radius.
    shell = voronoi_shell(integer_lattice(1).rescaled(3.0))
    t = np.array([0.0, 0.5, 2.0, 2.25, 5.0])
    assert shell.overlap2 == math.inf
    assert np.allclose(shell.norm_cdf(t), np.minimum(2.0 * np.sqrt(t) / 3.0, 1.0))
    assert voronoi_shell(Lattice("file", np.eye(2))) is None


@pytest.mark.parametrize(
    "lattice, m, decoder, alpha",
    [
        (e8(), 11, sim.DEC_CLOSEST_COSET, 1.0),
        (e8(), 16, sim.DEC_CLOSEST_COSET, 1.0),
        (d4(), 5, sim.DEC_EUCLIDEAN_EXTENDED, 1.0),
        (d4(), 8, sim.DEC_EUCLIDEAN_EXTENDED, 1.0),
        (e8(), 11, sim.DEC_CLOSEST_COSET, 0.8),
        (e8(), 11, sim.DEC_EUCLIDEAN_EXTENDED, 0.8),
    ],
)
def test_lattice_coset_matches_brute_force(lattice, m, decoder, alpha):
    cfg = _coset_config(lattice, m, decoder, alpha)
    res = sim.simulate(cfg)
    assert res.errors > 0
    _assert_ci_overlap(res, _brute_force_coset_errors(cfg, 107))
    _assert_ci_overlap(res, _iid_rival_errors(cfg, 109))
    _assert_ci_overlap(res, _erez_zamir_errors(cfg, 139))


@pytest.mark.parametrize("snr", [1.0, 4.0])
def test_lattice_coset_mmse_scaling_beats_unit_alpha(snr):
    # At alpha = SNR/(1+SNR) the effective noise alpha z - (1-alpha) x has
    # power 1/(1+SNR) a dimension, against 1/SNR at alpha = 1.
    spec = ChannelSpec(snr)
    alpha = spec.snr / (1.0 + spec.snr)
    mmse, unit = (
        sim.simulate(_coset_config(e8(), 4, sim.DEC_CLOSEST_COSET, a, trials=20_000, snr=snr))
        for a in (alpha, 1.0)
    )
    assert mmse.ci95[1] < unit.ci95[0], (mmse.pe, unit.pe)


def _count_decoded_points(monkeypatch):
    # Voronoi samples (the dither below alpha = 1), queries whose residual
    # norms alone are read (the sent coset's), and Voronoi samples whose
    # norms alone are drawn (the rivals), each decoded once.
    points = []
    real_sample_voronoi = Lattice.sample_voronoi
    real_residual_norms2 = Lattice.residual_norms2
    real_norms2 = Lattice.voronoi_norms2

    def counting_sample_voronoi(self, count, rng):
        points.append(count)
        return real_sample_voronoi(self, count, rng)

    def counting_residual_norms2(self, pts):
        points.append(len(pts))
        return real_residual_norms2(self, pts)

    def counting_norms2(self, count, rng):
        points.append(count)
        return real_norms2(self, count, rng)

    monkeypatch.setattr(Lattice, "sample_voronoi", counting_sample_voronoi)
    monkeypatch.setattr(Lattice, "residual_norms2", counting_residual_norms2)
    monkeypatch.setattr(Lattice, "voronoi_norms2", counting_norms2)
    return points


@pytest.mark.parametrize(
    "lattice, m, snr, alpha",
    [(e8(), 11, 1.0, 1.0), (integer_lattice(8), 3, 4.0, 0.5)],
)
def test_lattice_coset_rival_rounds_above_cap_overlap(lattice, m, snr, alpha, monkeypatch):
    # Low SNR, or alpha well below SNR/(1+SNR), puts many sent distances past
    # the cap-overlap radius, where rivals are drawn in rounds.
    cfg = _coset_config(lattice, m, sim.DEC_CLOSEST_COSET, alpha, snr=snr)
    points = _count_decoded_points(monkeypatch)
    sim._simulate_lattice_block(cfg, sim.block_rng(0, 0), 1000, sim.normalized_lattice(lattice))
    assert sum(points) > 1000 * 2
    monkeypatch.undo()
    res = sim.simulate(cfg)
    _assert_ci_overlap(res, _brute_force_coset_errors(cfg, 113))
    _assert_ci_overlap(res, _iid_rival_errors(cfg, 127))


def test_lattice_coset_large_codebook_matches_iid_rivals():
    cfg = _coset_config(e8(), 4096, sim.DEC_CLOSEST_COSET, snr=8.0, trials=20_000)
    res = sim.simulate(cfg)
    assert 0.05 < res.pe < 0.95
    oracle = _coset_config(e8(), 4096, sim.DEC_CLOSEST_COSET, snr=8.0, trials=300)
    _assert_ci_overlap(res, _iid_rival_errors(oracle, 131, rows=32), oracle.trials)


@pytest.mark.parametrize("m", [11, 4096])
def test_lattice_block_decodes_2_points_per_trial_below_overlap(m, monkeypatch):
    # One closest-point call for the dither and one for z_eff, whatever M.
    cfg = _coset_config(e8(), m, sim.DEC_EUCLIDEAN_EXTENDED, alpha=0.8)
    lattice = sim.normalized_lattice(cfg.lattice)
    points = _count_decoded_points(monkeypatch)
    sim._simulate_lattice_block(cfg, sim.block_rng(0, 0), 100, lattice)
    assert sum(points) == 100 * 2


def test_lattice_block_memory_independent_of_m():
    # All 65535 rivals of 4096 trials would need 17 GB; the block holds O(BLOCK n).
    cfg = _coset_config(e8(), 65536, sim.DEC_CLOSEST_COSET, snr=1.0)
    lattice = sim.normalized_lattice(cfg.lattice)
    tracemalloc.start()
    try:
        errors = sim._simulate_lattice_block(cfg, sim.block_rng(0, 0), sim.BLOCK, lattice)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert errors > 0
    assert peak < 32 * sim.BLOCK * cfg.n * 8, peak


def test_file_lattice_block_matches_iid_rivals(monkeypatch):
    # A basis without shell data draws every trial's rivals in rounds.
    unimodular = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 1, 1]])
    lattice = Lattice("file", unimodular @ d4().basis).rescaled(math.sqrt(120.0 / 13.0))
    assert voronoi_shell(lattice) is None
    cfg = _coset_config(d4(), 5, sim.DEC_CLOSEST_COSET, snr=2.0, trials=1500)
    points = _count_decoded_points(monkeypatch)
    errors = sim._simulate_lattice_block(cfg, sim.block_rng(5, 0), cfg.trials, lattice)
    assert sum(points) > 2 * cfg.trials
    monkeypatch.undo()
    want = _iid_rival_block(cfg, np.random.default_rng(137), cfg.trials, lattice)
    assert 0 < errors < cfg.trials
    _assert_ci_overlap(sim._result(errors, cfg.trials, cfg.n), want)


@pytest.mark.parametrize("decoder", [sim.DEC_CLOSEST_COSET, sim.DEC_EUCLIDEAN_EXTENDED])
def test_recognised_d4_file_simulates_as_builtin_d4(tmp_path, monkeypatch, decoder):
    # The file keeps its rows, so its rival samples differ from D4's; at
    # alpha = 1 only trials past the cap-overlap radius draw them, and with
    # M = 64 those err whichever basis draws the rivals.
    path = tmp_path / "d4-copy.lat"
    rows = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 1, 1]]) @ d4().basis
    path.write_text("4\n" + "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n")
    lattice = load_basis(str(path))
    assert lattice.decoder == "D4" and lattice.name.startswith("basis:")

    def no_monte_carlo(*args):
        raise AssertionError("_mc_second_moment called for a recognised basis")

    monkeypatch.setattr(sim, "_mc_second_moment", no_monte_carlo)
    assert sim.normalized_lattice(lattice).scale == sim.normalized_lattice(d4()).scale
    got = sim.simulate(_coset_config(lattice, 64, decoder, trials=20_000, seed=11))
    assert got == sim.simulate(_coset_config(d4(), 64, decoder, trials=20_000, seed=11))
    assert got.errors > 0


def test_lattice_zero_noise_unit_alpha():
    cfg = sim.SimConfig(
        n=8,
        spec=ChannelSpec(4.0),
        rate=0.25,
        ensemble=sim.LATTICE_COSET,
        decoder=sim.DEC_EUCLIDEAN_EXTENDED,
        lattice=e8(),
        alpha=1.0,
        trials=512,
        seed=3,
        noise_var=0.0,
    )
    assert sim.simulate(cfg).errors == 0


def test_lattice_requires_lattice_and_decoder():
    with pytest.raises(ValueError):
        sim.SimConfig(n=8, spec=SNR2, rate=0.25, ensemble=sim.LATTICE_COSET, trials=10)
    with pytest.raises(ValueError):
        sim.SimConfig(
            n=8,
            spec=SNR2,
            rate=0.25,
            ensemble=sim.LATTICE_COSET,
            decoder=sim.DEC_ML,
            lattice=e8(),
            trials=10,
        )


def test_tail_check_norm_bound_holds():
    reports = mc.tail_check_norm(16, SNR10, [0.45, 0.55], 100_000, 11)
    for rpt in reports:
        assert rpt["empirical"] <= rpt["bound"] + 3.0 * rpt["stderr"]
        assert rpt["log_ratio_per_n"] is None or rpt["log_ratio_per_n"] <= 0.0


def test_tail_check_joint_bound_holds():
    rpt = mc.tail_check_joint(16, SNR10, 0.2, 0.5, 100_000, 11)
    assert rpt["empirical"] <= rpt["bound"] + 3.0 * rpt["stderr"]


def test_tail_check_joint_refuses_a_slice_its_bound_misses():
    # y^2 - x^2 = 0.25 < 1/SNR: the exact probability of the ||z_2..n|| event
    # exceeds exp(-n E) about 28-fold, so the oracle has no bound to check.
    n, snr, x, y = 16, 1e-4, 0.0, 0.5
    exact = special.gammainc((n - 1) / 2, y * y * n * snr / 2)  # |z_1| >= 0 is sure
    assert exact > 20.0 * math.exp(-n * regions.joint_tail_exponent(x, y, snr))
    with pytest.raises(ValueError, match="1/SNR"):
        mc.tail_check_joint(n, ChannelSpec(snr), x, y, 1000, 11)


def test_oracles_agree_with_exact_laws():
    # Within 4 standard errors of scipy.stats (not `validate full`'s scipy.special):
    # chi^2_16, normal z_1 and, with a spherical dither, noncentral chi^2_16.
    n, snr, trials = 16, SNR10.snr, 100_000
    theta = awgn.theta_of_rate(1.0)
    alpha = regions.tangent_sphere_scaling(theta, SNR10)
    lam = ((1.0 - alpha) / alpha) ** 2 * n * snr
    cases = [(r, stats.chi2.sf(r["r"] ** 2 * n * snr, n))
             for r in mc.tail_check_norm(n, SNR10, [0.4, 0.45, 0.5], trials, 11)]
    joint = 2.0 * stats.norm.sf(0.2 * math.sqrt(n * snr)) * stats.chi2.cdf(0.25 * n * snr, n - 1)
    cases.append((mc.tail_check_joint(n, SNR10, 0.2, 0.5, trials, 11), joint))
    cases.append((mc.effective_noise_ball(n, SNR10, 1.0, "spherical", trials, 5),
                  stats.ncx2.sf(n * snr * (math.sin(theta) / alpha) ** 2, n, lam)))
    for rpt, exact in cases:
        assert abs(rpt["empirical"] - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials), rpt


def test_effective_noise_ball_voronoi_close_to_spherical():
    # Power-matched Voronoi dither behaves like the spherical one.
    a = mc.effective_noise_ball(8, SNR10, 1.0, "spherical", 100_000, 5)
    b = mc.effective_noise_ball(8, SNR10, 1.0, "voronoi", 100_000, 5, lattice=e8())
    slack = 3.0 * math.sqrt(
        a["empirical"] * (1 - a["empirical"]) / 100_000
        + b["empirical"] * (1 - b["empirical"]) / 100_000
    )
    # The dither shapes differ, so allow a modest systematic gap on top.
    assert abs(a["empirical"] - b["empirical"]) < slack + 0.05


def test_spherical_spectrum_basics():
    hist, edges, d = mc.empirical_spectrum(sim.SPHERICAL, 16, 40, 50_000, 9)
    assert hist.sum() == 50_000
    assert 0.0 <= d.min() and d.max() <= 2.0
    # Mode near sqrt(2) for moderate n.
    mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
    assert abs(mode - math.sqrt(2.0)) < 0.15


def test_lattice_spectrum_shapes():
    hist, edges, d, ang = mc.empirical_spectrum(
        sim.LATTICE_COSET, 8, 30, 20_000, 9, lattice=integer_lattice(8)
    )
    assert len(d) == len(ang) == 20_000
    assert np.all((0.0 <= ang) & (ang <= math.pi))


def test_spherical_spectrum_matches_exact_chord_law():
    # Exact pairwise chord density on the sphere in n dimensions:
    # f(d) proportional to d^(n-2) (1 - d^2/4)^((n-3)/2).
    from scipy import integrate, stats

    n = 16
    hist, edges, d = mc.empirical_spectrum(sim.SPHERICAL, n, 40, 100_000, 13)

    def density(t):
        return t ** (n - 2) * (1.0 - t * t / 4.0) ** ((n - 3) / 2.0)

    norm = integrate.quad(density, 0.0, 2.0)[0]
    probs = np.array(
        [integrate.quad(density, a, b)[0] / norm for a, b in zip(edges[:-1], edges[1:])]
    )
    keep = probs * len(d) >= 5.0
    obs = np.append(hist[keep], hist[~keep].sum())
    exp = np.append(probs[keep], probs[~keep].sum()) * len(d)
    stat, p = stats.chisquare(obs, exp)
    assert p > 0.01


def test_spherical_spectrum_exact_cdf_n2():
    # In two dimensions the chord CDF is (2/pi) arcsin(d/2) exactly.
    _, _, d = mc.empirical_spectrum(sim.SPHERICAL, 2, 10, 100_000, 13)
    d_sorted = np.sort(d)
    emp = np.arange(1, len(d) + 1) / len(d)
    exact = (2.0 / math.pi) * np.arcsin(d_sorted / 2.0)
    assert np.max(np.abs(emp - exact)) < 1e-2
