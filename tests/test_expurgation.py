"""The frame-coordinate expurgation kernel against two oracles.

The row-major oracle is a plain build of the same books in the same frame:
books of shape (count, M, r), candidates of shape (..., w), and every inner
product and squared norm added one coordinate at a time, the order of the
kernel's einsums.  It draws the same rounds from the same stream, so the kernel must
match it bit for bit.

The law oracle is the full-space build: uniform candidates of n coordinates
screened by sequential rejection, and a decode with n coordinates of noise.
It draws different variates, so it is compared with the kernel in law: the
Gram entries by a Kolmogorov-Smirnov test and the error rates by a
two-sample z test, at fixed seeds.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from expbounds import simulator as sim
from expbounds.channel import ChannelSpec


def _dot(a, b):
    # Sum of a * b over the last axis, one coordinate at a time.
    s = a[..., 0] * b[..., 0]
    for c in range(1, a.shape[-1]):
        s = s + a[..., c] * b[..., c]
    return s


def _row_major_codebooks(rng, count, m, n, d_min):
    r = min(m, n)
    books = np.zeros((count, m, r))
    books[:, 0, 0] = math.sqrt(n)
    ip_max = n * (1.0 - 0.5 * d_min * d_min)
    attempts = np.ones(count, dtype=np.int64)
    for k in range(1, m):
        w = min(k, n)
        todo = np.arange(count)
        while todo.size:
            per = max(1, 256 // todo.size)
            g = rng.standard_normal((w, todo.size, per)).transpose(1, 2, 0)
            norm2 = _dot(g, g)
            if w < n:
                perp2 = rng.chisquare(n - w, (todo.size, per))
                norm2 = norm2 + perp2
            cand = g / np.sqrt(norm2)[..., None] * math.sqrt(n)
            ips = _dot(books[todo, None, :k, :w], cand[:, :, None, :])
            ok = (ips <= ip_max).all(axis=2)
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)
            attempts[todo] += np.where(hit, first + 1, per)
            if (attempts[todo] > 10_000 * m).any():
                raise RuntimeError("expurgation cannot reach %d codewords" % m)
            books[todo[hit], k, :w] = cand[hit, first[hit]]
            if w < n:
                books[todo[hit], k, w] = (
                    np.sqrt(perp2[hit, first[hit]]) / np.sqrt(norm2[hit, first[hit]]) * math.sqrt(n)
                )
            todo = todo[~hit]
    return books


def _row_major_errors(config, rng, count):
    n, m = config.n, config.codebook_size
    books = _row_major_codebooks(rng, count, m, n, config.d_min)
    sent = rng.integers(m, size=count)
    rows = np.arange(count)
    z = rng.normal(scale=math.sqrt(config.noise_variance), size=(min(m, n), count)).T
    y = books[rows, sent] + z
    ips = _dot(books, y[:, None, :])
    ip_sent = ips[rows, sent]
    ips[rows, sent] = -np.inf
    return int((ips.max(axis=1) >= ip_sent).sum())


def _oracle_sphere_points(rng, shape, n):
    c = rng.normal(size=(*shape, n))
    c /= np.linalg.norm(c, axis=-1, keepdims=True)  # exactly +-1 when n = 1
    c *= math.sqrt(n)
    return c


def _oracle_codebooks(rng, count, m, n, d_min):
    books = np.empty((count, m, n))
    books[:, 0] = _oracle_sphere_points(rng, (count,), n)
    ip_max = n * (1.0 - 0.5 * d_min * d_min)
    attempts = np.ones(count, dtype=np.int64)
    for k in range(1, m):
        todo = np.arange(count)
        while todo.size:
            per = max(1, 256 // todo.size)
            cand = _oracle_sphere_points(rng, (todo.size, per), n)
            ips = cand @ books[todo, :k].transpose(0, 2, 1)
            ok = (ips <= ip_max).all(axis=2)
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)
            attempts[todo] += np.where(hit, first + 1, per)
            if (attempts[todo] > 10_000 * m).any():
                raise RuntimeError("expurgation cannot reach %d codewords" % m)
            books[todo[hit], k] = cand[hit, first[hit]]
            todo = todo[~hit]
    return books


def _oracle_errors(config, rng, count):
    n, m = config.n, config.codebook_size
    sd = math.sqrt(config.noise_variance)
    books = _oracle_codebooks(rng, count, m, n, config.d_min)
    sent = rng.integers(m, size=count)
    rows = np.arange(count)
    y = books[rows, sent] + rng.normal(scale=sd, size=(count, n))
    ips = (books * y[:, None, :]).sum(axis=2)
    ip_sent = ips[rows, sent]
    ips[rows, sent] = -np.inf
    return int((ips.max(axis=1) >= ip_sent).sum())


def _config(n, m, d_min, trials, noise_var=None, seed=0, snr=2.0):
    cfg = sim.SimConfig(n=n, spec=ChannelSpec(snr), rate=math.log(m) / n, trials=trials,
                        seed=seed, ensemble=sim.SPHERICAL_EXPURGATED, d_min=d_min,
                        noise_var=noise_var)
    assert cfg.codebook_size == m
    return cfg


def _errors(trials, seed, block):
    return sum(sim._per_block(trials, seed, block))


# (n, M, d_min): every n of the grid, M from 2 to 64 and d_min from 0.2 to
# 1.4, each a floor that sequential rejection reaches in a few draws a slot.
_GRID = [
    (1, 2, 1.4), (1, 2, 0.2),
    (2, 3, 1.0), (2, 4, 0.6),
    (3, 5, 0.8), (3, 8, 0.4),
    (4, 16, 0.6), (4, 6, 1.0),
    (8, 9, 0.6), (8, 64, 0.5), (8, 16, 1.0),
    (9, 12, 0.9), (12, 64, 0.7), (12, 12, 1.2),
    (16, 64, 0.8), (16, 9, 1.25),
    (24, 32, 1.1), (24, 2, 0.2),
    (130, 4, 1.3), (130, 3, 0.2),
]
# Below _CANDIDATES trials every round draws several candidates a book.
_TRIALS = (100, sim.BLOCK, 2 * sim.BLOCK + 777)


def _grid_trials(n, m):
    trials = _TRIALS[(n + m) % 3]
    return _TRIALS[0] if n * m * min(trials, sim.BLOCK) > 2 ** 20 else trials


@pytest.mark.parametrize("n, m, d_min", _GRID)
@pytest.mark.parametrize("noise_var", [None, 0.0, 1e300])
def test_kernel_matches_row_major_oracle(n, m, d_min, noise_var):
    trials = _grid_trials(n, m)
    cfg = _config(n, m, d_min, trials, noise_var, seed=n * 1000 + m)
    count = min(trials, sim.BLOCK)
    want = _row_major_codebooks(sim.block_rng(cfg.seed, 0), count, m, n, d_min)
    got = sim._expurgated_codebooks(sim.block_rng(cfg.seed, 0), count, m, n, d_min)
    assert got.shape == (count, m, min(m, n))
    assert np.array_equal(got, want)
    oracle = _errors(trials, cfg.seed, lambda rng, size: _row_major_errors(cfg, rng, size))
    assert sim.simulate(cfg).errors == oracle


@pytest.mark.parametrize("trials", _TRIALS)
def test_kernel_matches_oracle_at_every_block_split(trials):
    # SNR 1 with a floor of 0.6: many errors, and rejected candidates in
    # several rounds of every slot.
    cfg = _config(8, 9, 0.6, trials, snr=1.0, seed=3)
    oracle = _errors(trials, cfg.seed, lambda rng, size: _row_major_errors(cfg, rng, size))
    assert oracle > 0
    assert sim.simulate(cfg).errors == oracle


@pytest.mark.parametrize("n, m, d_min", _GRID)
def test_codewords_on_the_sphere(n, m, d_min):
    # Norms within rounding of n, and on the line exactly the two points +-1.
    books = sim._expurgated_codebooks(sim.block_rng(n, m), 500, m, n, d_min)
    norm2 = (books * books).sum(axis=2)
    assert np.abs(norm2 - n).max() <= 1e-12 * n
    if n == 1:
        assert np.isin(books, [-1.0, 1.0]).all()


# (n, M, d_min) of the law comparison: floors that reject a good share of
# candidates, and M from below n to well above it.
_LAW_GRID = [(1, 2, 1.4), (2, 4, 1.0), (5, 8, 0.9), (5, 3, 1.2), (8, 16, 0.8),
             (8, 64, 0.5), (16, 12, 1.1), (16, 64, 0.9)]


@pytest.mark.parametrize("n, m, d_min", _LAW_GRID)
def test_gram_entries_have_the_full_space_law(n, m, d_min):
    # Rotations leave the Gram matrix alone, so the frame books and the
    # full-space books must have one law of <c_i, c_j> for every pair.
    count = 1500
    got = sim._expurgated_codebooks(sim.block_rng(11, n * 100 + m), count, m, n, d_min)
    want = _oracle_codebooks(sim.block_rng(12, n * 100 + m), count, m, n, d_min)
    for i, j in sorted({(0, 1), (0, m - 1), (m // 2, m - 1), (m - 2, m - 1)}):
        a = _dot(got[:, i], got[:, j])
        b = _dot(want[:, i], want[:, j])
        if n == 1:
            # Two points on the line: compare the share of antipodal pairs.
            assert abs((a < 0).mean() - (b < 0).mean()) < 4 * math.sqrt(0.5 / count)
        else:
            assert stats.ks_2samp(a, b).pvalue > 0.001, (i, j)


@pytest.mark.parametrize("n, m, d_min, snr", [(1, 2, 1.4, 0.5), (2, 4, 1.0, 2.0),
                                               (5, 8, 0.9, 2.0), (8, 16, 0.8, 1.0),
                                               (16, 64, 0.6, 1.0)])
def test_error_rate_has_the_full_space_law(n, m, d_min, snr):
    trials = 2 * sim.BLOCK
    got = sim.simulate(_config(n, m, d_min, trials, seed=21, snr=snr)).errors
    cfg = _config(n, m, d_min, trials, seed=22, snr=snr)
    want = _errors(trials, cfg.seed, lambda rng, size: _oracle_errors(cfg, rng, size))
    pooled = (got + want) / (2 * trials)
    assert 0.01 < pooled < 0.99
    z = (got - want) / trials / math.sqrt(pooled * (1 - pooled) * 2 / trials)
    assert abs(z) < 4, (got, want, z)


def _estimate(n, m):
    # SimConfig's estimate of a full block's bytes.
    return sim.BLOCK * (2 * m * min(m, n) + n + 16) * 8


@pytest.mark.parametrize(
    "n, m",
    # The middle five have small books, where the per-trial bookkeeping is
    # most of the block; the last two have M well below n, so r = M.
    [(4, 16), (8, 9), (8, 64), (16, 64), (1, 2), (2, 2), (1, 16), (8, 2), (2, 8),
     (64, 4), (130, 3)],
)
def test_block_peak_within_budget_estimate(n, m):
    # SimConfig refuses a config whose estimate min(trials, BLOCK)
    # (2 M min(M, n) + n + 16) 8 bytes is over the budget; a block's traced
    # peak must stay below it.  On the line n = 1 only two points are
    # d_min > 0 apart.
    cfg = _config(n, m, 0.0 if n == 1 and m > 2 else 0.3, sim.BLOCK, seed=1)
    tracemalloc.start()
    try:
        sim.simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _estimate(n, m), (peak, _estimate(n, m))


def test_budget_counts_per_trial_bookkeeping():
    # n = 16, M = 1024: books and their working copy are exactly the 1 GiB
    # budget at BLOCK trials, so the per-trial term tips it over; 4000
    # trials leave room for it.
    with pytest.raises(ValueError, match="budget"):
        _config(16, 1024, 0.3, sim.BLOCK)
    assert _config(16, 1024, 0.3, 4000).codebook_size == 1024
