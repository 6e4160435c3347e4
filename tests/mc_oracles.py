"""Monte Carlo oracles: the radial and joint tails of the cone-leaving event
(exact laws in `validate full`), the exit of the scaled self-noise plus
noise from its design ball, and the pairwise-distance spectrum of an
ensemble.  They draw on the simulator's `_per_block` streams, so
`tests/test_frozen_outputs.py` pins their counts.
"""

import math

import numpy as np

from expbounds.awgn import sphere_packing_exponent, tail_exponents, theta_of_rate
from expbounds.channel import ChannelSpec
from expbounds.regions import joint_tail_exponent, tangent_sphere_scaling
from expbounds.simulator import LATTICE_COSET, SPHERICAL, _per_block, _result, normalized_lattice


def _tail_record(hits, trials, n, bound):
    """A tail check's report: the empirical probability against its bound."""
    emp = hits / trials
    return {
        "empirical": emp,
        "bound": bound,
        "log_ratio_per_n": (math.log(emp / bound) / n) if emp > 0 else None,
        "stderr": math.sqrt(max(emp * (1.0 - emp), 1e-12) / trials),
    }


def _axis_and_rest(rng, size, n, snr):
    """Noise along one axis, and the squared norm of its other n-1 coordinates."""
    g = rng.normal(scale=1.0 / math.sqrt(snr), size=size)
    return g, rng.chisquare(n - 1, size=size) / snr


def tail_check_norm(n, spec: ChannelSpec, r_list, trials, seed):
    """Empirical P(||z|| >= r sqrt(n)), ||z||^2 ~ chi^2_n / SNR, for each r.

    Each entry reports it against the bound exp(-n E_h(r^2 SNR)).
    """
    reports = []
    for j, r in enumerate(r_list):
        thresh = r * r * n * spec.snr  # threshold for the chi-square variate

        def above(rng, size):
            return int((rng.chisquare(n, size=size) >= thresh).sum())

        hits = sum(_per_block(trials, seed, above, stream=j))
        e_h, _ = tail_exponents(r * r * spec.snr)
        reports.append({"r": r, **_tail_record(hits, trials, n, math.exp(-n * e_h))})
    return reports


def tail_check_joint(n, spec: ChannelSpec, x, y, trials, seed):
    """Empirical P(|z_1| >= x sqrt(n), ||z_2..n|| <= y sqrt(n)) vs its exponent's bound.

    exp(-n E) bounds this event only where y^2 - x^2 >= 1/SNR; elsewhere E is
    the exponent of the event with ||z|| (`regions.joint_tail_exponent`), so
    this raises ValueError there.
    """
    snr = spec.snr
    if y * y - x * x < 1.0 / snr:
        raise ValueError("exp(-n E) bounds the ||z_2..n|| event only where y^2 - x^2 >= 1/SNR")

    def hits(rng, size):
        z1, rest2 = _axis_and_rest(rng, size, n, snr)
        return int(((np.abs(z1) >= x * math.sqrt(n)) & (rest2 <= y * y * n)).sum())

    bound = math.exp(-n * joint_tail_exponent(x, y, snr))
    return _tail_record(sum(_per_block(trials, seed, hits)), trials, n, bound)


def effective_noise_ball(n, spec: ChannelSpec, R, dither, trials, seed, lattice=None):
    """Probability that z_eff = ((1-a)/a) b + z leaves its design ball, vs E_sp(R).

    b is uniform on the power sphere (dither "spherical") or over a
    power-matched Voronoi region of `lattice`; the radius is
    sqrt(n) sin(theta(R)) / a, a the tangent-sphere scaling at theta(R).  The
    exponent exceeds E_sp by about (1/2 ln n)/n at finite n (criterion 08).
    """
    theta = theta_of_rate(R)
    alpha = tangent_sphere_scaling(theta, spec)
    k = (1.0 - alpha) / alpha
    radius2 = n * (math.sin(theta) / alpha) ** 2
    if dither == "spherical":

        def exits(rng, size):
            # By rotational symmetry only the component of z along b matters.
            g, rest2 = _axis_and_rest(rng, size, n, spec.snr)
            return int(((k * math.sqrt(n) + g) ** 2 + rest2 > radius2).sum())

    else:
        lat = normalized_lattice(lattice)

        def exits(rng, size):
            b = lat.sample_voronoi(size, rng)
            z = rng.normal(scale=1.0 / math.sqrt(spec.snr), size=(size, n))
            return int((((k * b + z) ** 2).sum(axis=1) > radius2).sum())

    res = _result(sum(_per_block(trials, seed, exits)), trials, n)
    return {
        "empirical": res.pe,
        "ci95": res.ci95,
        "empirical_exponent": res.empirical_exponent,
        "target_exponent": sphere_packing_exponent(R, spec),
    }


def empirical_spectrum(ensemble, n, bins, trials, seed, lattice=None):
    """Pairwise-distance statistics of a random ensemble.

    spherical: normalized chords between independent uniform points on the
    power sphere.  lattice-coset: offsets between independent Voronoi-uniform
    coset leaders, with the angle of the offset against a fixed axis.
    Returns (hist, edges, distances[, angles]).
    """
    if ensemble == SPHERICAL:

        def chords(rng, size):
            u = rng.normal(size=(size, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v = rng.normal(size=(size, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            return np.linalg.norm(u - v, axis=1)

        d = np.concatenate(list(_per_block(trials, seed, chords)))
        hist, edges = np.histogram(d, bins=bins, range=(0.0, 2.0))
        return hist, edges, d
    if ensemble == LATTICE_COSET:
        if lattice is None:
            raise ValueError("lattice-coset spectrum requires a lattice")

        def offsets(rng, size):
            return lattice.sample_voronoi(size, rng) - lattice.sample_voronoi(size, rng)

        w = np.concatenate(list(_per_block(trials, seed, offsets)))
        d = np.linalg.norm(w, axis=1)
        angles = np.arccos(np.clip(w[:, 0] / np.maximum(d, 1e-300), -1.0, 1.0))
        hist, edges = np.histogram(d, bins=bins)
        return hist, edges, d, angles
    raise ValueError("unknown ensemble %r" % ensemble)
