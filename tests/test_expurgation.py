"""The coordinate-major expurgation kernel against its row-major oracle.

The oracle is the earlier row-major kernel, without its docstrings: sphere
points normalized by `np.linalg.norm`, candidates screened by a stacked
matmul, and the decode's inner products taken as row sums.  The kernel in
`simulator` must draw the same candidates, keep the same ones and decode to
the same counts.
"""

import math
import tracemalloc

import numpy as np
import pytest

from expbounds import simulator as sim
from expbounds.channel import ChannelSpec


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


@pytest.mark.parametrize("n, m, d_min", _GRID)
@pytest.mark.parametrize("noise_var", [None, 0.0, 1e300])
def test_kernel_matches_row_major_oracle(n, m, d_min, noise_var):
    trials = _TRIALS[(n + m) % 3]
    if n * m * min(trials, sim.BLOCK) > 2 ** 20:
        trials = _TRIALS[0]
    cfg = _config(n, m, d_min, trials, noise_var, seed=n * 1000 + m)
    count = min(trials, sim.BLOCK)
    want = _oracle_codebooks(sim.block_rng(cfg.seed, 0), count, m, n, d_min)
    got = sim._expurgated_codebooks(sim.block_rng(cfg.seed, 0), count, m, n, d_min)
    assert got.shape == (count, m, n)
    assert np.array_equal(got, want)
    oracle = sum(sim._per_block(trials, cfg.seed, lambda rng, size: _oracle_errors(cfg, rng, size)))
    assert sim.simulate(cfg).errors == oracle


@pytest.mark.parametrize("trials", _TRIALS)
def test_kernel_matches_oracle_at_every_block_split(trials):
    # SNR 1 with a floor of 0.6: many errors, and rejected candidates in
    # several rounds of every slot.
    cfg = _config(8, 9, 0.6, trials, snr=1.0, seed=3)
    oracle = sum(sim._per_block(trials, cfg.seed, lambda rng, size: _oracle_errors(cfg, rng, size)))
    assert oracle > 0
    assert sim.simulate(cfg).errors == oracle


@pytest.mark.parametrize(
    "n, m",
    # The last five have small books, where the per-trial bookkeeping is
    # most of the block.
    [(4, 16), (8, 9), (8, 64), (16, 64), (1, 2), (2, 2), (1, 16), (8, 2), (2, 8)],
)
def test_block_peak_within_budget_estimate(n, m):
    # SimConfig refuses a config whose estimate min(trials, BLOCK)
    # (2 M n + n + 16) 8 bytes is over the budget; a block's traced peak must
    # stay below it.  On the line n = 1 only two points are d_min > 0 apart.
    cfg = _config(n, m, 0.0 if n == 1 and m > 2 else 0.3, sim.BLOCK, seed=1)
    estimate = sim.BLOCK * (2 * m * n + n + 16) * 8
    tracemalloc.start()
    try:
        sim.simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= estimate, (peak, estimate)


def test_budget_counts_per_trial_bookkeeping():
    # n = 16, M = 1024: books and their working copy are exactly the 1 GiB
    # budget at BLOCK trials, so the per-trial term tips it over; 4000
    # trials leave room for it.
    with pytest.raises(ValueError, match="budget"):
        _config(16, 1024, 0.3, sim.BLOCK)
    assert _config(16, 1024, 0.3, 4000).codebook_size == 1024
