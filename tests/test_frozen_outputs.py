"""Frozen outputs: fixed configs must keep every count and every byte.

A fixed config must give byte-identical output on every run and across
refactors of the block driver, the ensemble table or the binomial records.
Only a change meant to move the random streams (new substreams, say) may
update these values, and it must say so.  A closed-form request keeps its
bytes across refactors of the kernels behind it; only a changed formula may
update its pin.
"""

import contextlib
import hashlib
import io
import math
import os
import random

import mc_oracles as mc
import numpy as np

from expbounds import cli
from expbounds import simulator as sim
from expbounds.channel import ChannelSpec
from expbounds.lattices import Lattice, d4, e8, integer_lattice

SNR2 = ChannelSpec(2.0)
SNR4 = ChannelSpec(4.0)
SNR10 = ChannelSpec(10.0)


def _config(n, m, trials, seed, spec=SNR2, **kwargs):
    cfg = sim.SimConfig(n=n, spec=spec, rate=math.log(m) / n, trials=trials, seed=seed, **kwargs)
    assert cfg.codebook_size == m
    return cfg


def _permuted_d4():
    # D4 with its basis rows permuted: the same lattice, but no fast decoder.
    return Lattice("file", d4().basis[[2, 0, 3, 1]])


def _configs():
    coset = dict(ensemble=sim.LATTICE_COSET, spec=SNR4)
    return {
        "ml n=1": _config(1, 2, 3000, 5, spec=ChannelSpec(1.0)),
        "ml n=3": _config(3, 8, 3000, 6),
        "ml n=8": _config(8, 9, 4096, 7),
        "ml n=12 partial": _config(12, 512, sim.BLOCK + 777, 11),
        "expurgated": _config(8, 9, 2000, 3, ensemble=sim.SPHERICAL_EXPURGATED, d_min=0.6),
        "e8 closest-coset": _config(
            8, 11, 3000, 3, lattice=e8(), decoder=sim.DEC_CLOSEST_COSET, **coset
        ),
        "e8 extended alpha=0.8": _config(
            8, 11, 3000, 4, lattice=e8(), decoder=sim.DEC_EUCLIDEAN_EXTENDED, alpha=0.8, **coset
        ),
        "d4 extended": _config(
            4, 5, 3000, 5, lattice=d4(), decoder=sim.DEC_EUCLIDEAN_EXTENDED, **coset
        ),
        "permuted d4": _config(
            4, 5, 1500, 6, lattice=_permuted_d4(), decoder=sim.DEC_CLOSEST_COSET, **coset
        ),
        # The last block's 777 * 3 dither uniforms end 3 words into a Philox step.
        "z3 closest-coset partial": _config(
            3, 5, sim.BLOCK + 777, 8, lattice=integer_lattice(3),
            decoder=sim.DEC_CLOSEST_COSET, **coset
        ),
        # At SNR 4 nearly every E8 query is certified in its first coset.
        "e8 closest-coset two blocks": _config(
            8, 11, 2 * sim.BLOCK, 9, lattice=e8(), decoder=sim.DEC_CLOSEST_COSET, **coset
        ),
        "e8 extended two blocks": _config(
            8, 11, 2 * sim.BLOCK, 10, lattice=e8(), decoder=sim.DEC_EUCLIDEAN_EXTENDED, **coset
        ),
    }


FROZEN_ERRORS = {
    "ml n=1": 1748,
    "ml n=3": 1103,
    "ml n=8": 220,
    "ml n=12 partial": 1178,
    # The expurgated stream moved on purpose when the books moved into the
    # frame of their own codewords (ROADMAP item 6): 110 errors before, 99
    # now, and 110/2000 lies in the 95% interval of 99/2000, [0.0404, 0.0599]
    # (`test_expurgated_pin_moved_within_its_interval`).
    "expurgated": 99,
    "e8 closest-coset": 133,
    "e8 extended alpha=0.8": 59,
    "d4 extended": 420,
    "permuted d4": 216,
    "z3 closest-coset partial": 1170,
    "e8 closest-coset two blocks": 416,
    "e8 extended two blocks": 403,
}

# Hit counts of the tail-check and effective-noise-ball oracles (`mc_oracles`).
FROZEN_HITS = {
    "norm r=0.4": 299,
    "norm r=0.45": 39,
    "joint": 61,
    "ball spherical": 479,
    "ball voronoi": 758,
}

FROZEN_SPECTRUM_SHA256 = {
    "spherical": "bd913682569956af5a4c0b384d2b6e24888b5a4745710140b3c118bdba33d5be",
    "lattice-coset": "df1e95674bd94d9603e32f8394ade74f1d4944b75b30f9118e4deb90de64a857",
}


def _hits(report, trials):
    hits = round(report["empirical"] * trials)
    assert hits / trials == report["empirical"]
    return hits


def test_simulate_errors_frozen():
    got = {name: sim.simulate(cfg).errors for name, cfg in _configs().items()}
    assert got == FROZEN_ERRORS


def test_expurgated_pin_moved_within_its_interval():
    lo, hi = sim.clopper_pearson(FROZEN_ERRORS["expurgated"], 2000)
    assert lo < 110 / 2000 < hi


def test_tail_and_ball_hits_frozen():
    trials = sim.BLOCK + 1000
    norm = mc.tail_check_norm(16, SNR10, [0.4, 0.45], trials, 11)
    got = {
        "norm r=0.4": _hits(norm[0], trials),
        "norm r=0.45": _hits(norm[1], trials),
        "joint": _hits(mc.tail_check_joint(16, SNR10, 0.2, 0.5, trials, 11), trials),
        "ball spherical": _hits(
            mc.effective_noise_ball(16, SNR10, 1.0, "spherical", trials, 5), trials
        ),
        "ball voronoi": _hits(
            mc.effective_noise_ball(8, SNR10, 1.0, "voronoi", trials, 5, lattice=e8()), trials
        ),
    }
    assert got == FROZEN_HITS


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_empirical_spectrum_frozen():
    trials = sim.BLOCK + 500
    got = {
        "spherical": _sha256(mc.empirical_spectrum(sim.SPHERICAL, 16, 40, trials, 9)),
        "lattice-coset": _sha256(
            mc.empirical_spectrum(
                sim.LATTICE_COSET, 8, 30, trials, 9, lattice=integer_lattice(8)
            )
        ),
    }
    assert got == FROZEN_SPECTRUM_SHA256


# SHA-256 of closed-form CLI outputs: `exponents` on the benchmark's grid of
# 50 rates ending at C, and one `geometry` report between r_x and R_crit
# (the k_zeta bisection runs there).  E_sp from the cone-exit kernel moved
# E_sp at most rates, and E_r, E_awgn and E_II where they read it; each
# moved value moved toward its mpmath value or stayed within
# 8 (2 ulp(C)/(C - R) + 1e-16) of it.  The cancellation-free d_crit moved
# geometry's d_crit, d_typ, d_typ_ii and rate_ii by an ulp or two, toward
# mpmath.  E_x as (SNR/4) e^{-2R} / (1 + sqrt(1 - e^{-2R})), without the
# cancellation of 1 - sqrt(1 - e^{-2R}), moved E_x and E_awgn up to r_x in
# the three `exponents` outputs: each moved value is within 3.2e-16 of
# mpmath, where the old one was off by up to 1.2e-12.  K_zeta solved in
# u = K SNR - 1 on a fixed bracket, l* solved in l - max(K_alpha, a), and
# K_alpha from its closed form moved the geometry pin's fields, relative to
# 700-digit mpmath on the same float inputs: k_zeta 2.5e-12 -> 2.9e-17,
# theta_awgn and theta_lambda 5.0e-12 -> 7.7e-17, r_lambda_alpha
# 4.5e-12 -> 1.4e-16, d_lambda_star 4.5e-12 -> 3.8e-17, l_star
# 1.6e-12 -> 1.1e-17, and k_alpha_star 1.7e-17 -> 1.4e-16 (an ulp, from
# 1/((1 - d^2/4) SNR) in place of (1 - alpha)/alpha).  The `lattice` pins
# (E8 at 200 000 samples, D4 and the benchmark's D4 file, which `load_basis`
# gives D4's rule, at 20 000; seed 3) read the fast rules' squared distances
# from one rounding, which builds no closest point.  Against the decoded
# residuals' norms, E8's second_moment_stderr moved by -1 ulp, D4's
# second_moment and nsm by +2 ulps and the file's by +1 ulp; no other field
# moved.
FROZEN_CLI_SHA256 = {
    "exponents -40 dB": "4c459134fc37db5b53976e8edbbffea441600052d2c9c19b84ed1b3b3884f5e0",
    "exponents 10 dB": "ae6dc14339c977dec8e84b3c4398d1f6d3c256446b68fe60643ff65b6bd79e33",
    "exponents 50 dB": "8e1f8cae1be7a71c4611fbbd6a956b942e4eb37ad5e22dd15fd62597d80d4a97",
    "geometry 10 dB rate 0.7": "26bc3c8a3573fc3747a6a99edebea8206972812ce36224e8c737c7d9d69111a0",
    "lattice e8": "e1fd3a2f1ea4bad9c855d82b6b74aaa11b95828f2c61e40f832114e62ce36528",
    "lattice d4": "0092a2fc8056017b616c6c78cb3a4a7f8ab3463435545a1a8f8456c52bd08a16",
    "lattice d4 file": "d0017af31794b889ad4b8bc42c4ad5cb193966d6a102519d01bb29748e3a2f93",
}

# The benchmark's D4 basis in a non-standard form (`perfbench/workloads.py`).
D4_FILE = "4\n1 2 -1 0\n2 0 0 0\n0 1 -1 0\n1 2 0 -1\n"


def _cli_sha256(tmp_path, argv):
    out = os.path.join(tmp_path, "out")
    assert cli.main(argv + ["--out", out]) == 0
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_closed_form_outputs_frozen(tmp_path):
    got = {}
    for snr_db in (-40, 10, 50):
        c = 0.5 * math.log1p(10.0 ** (snr_db / 10.0))
        argv = ["exponents", "--snr-db", repr(float(snr_db)), "--grid-nats",
                "--grid", "%r:%r:50" % (c / 50, c)]
        got["exponents %d dB" % snr_db] = _cli_sha256(tmp_path, argv)
    got["geometry 10 dB rate 0.7"] = _cli_sha256(
        tmp_path, ["geometry", "--snr-db", "10", "--rate-nats", "0.7"]
    )
    d4_file = os.path.join(tmp_path, "d4.lat")
    with open(d4_file, "w") as fh:
        fh.write(D4_FILE)
    for label, target, trials in (("e8", "e8", 200_000), ("d4", "d4", 20_000), ("d4 file", d4_file, 20_000)):
        got["lattice " + label] = _cli_sha256(
            tmp_path, ["lattice", "--lattice", target, "--trials", str(trials), "--seed", "3"])
    assert got == FROZEN_CLI_SHA256


def _sweep_requests():
    """About 600 seeded `exponents` and `geometry` requests, half of them at
    SNRs log-uniform over the whole positive float range (5e-324 to 1.7e308),
    half over 1e-4 to 1e5, at rates 0, C, 1e-9 C and uniform in [0, C]."""
    rng = random.Random(23)
    requests = []
    for i in range(600):
        lo, hi = (5e-324, 1.7e308) if i % 2 else (1e-4, 1e5)
        snr = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        c = 0.5 * math.log1p(snr)
        rates = [0.0, c, 1e-9 * c, rng.uniform(0.0, c)]
        if rng.random() < 0.5:
            requests.append(["geometry", "--snr", repr(snr), "--rate-nats", repr(rng.choice(rates))])
        else:
            a, b = sorted(rng.sample(rates, 2))
            grid = "%r:%r:%d" % (a, b, rng.randint(2, 6))
            requests.append(["exponents", "--snr", repr(snr), "--grid-nats", "--grid", grid])
    return requests


def _sweep_outcomes():
    """(argv, exit code, stdout, stderr) of each sweep request."""
    outcomes = []
    for argv in _sweep_requests():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outcomes.append((argv, code, out.getvalue(), err.getvalue()))
    return outcomes


# SHA-256 over every sweep outcome, failures included: a refactor of the
# closed forms keeps each request's exit code, stdout and stderr.  E_II from
# rate_ii up is E_r's float, not f_bnd's round trip through theta(R); that
# moved E_modlambda (and nothing else) in 154 requests, and took `exponents`
# at SNR 2.7e-127 from R = 0 from exit 3 (E_II = inf, read through a
# cancelled d_crit) to exit 0 (E_II(0) = E_r(0), as rate_ii is 0 there).
# E_sp from the cone-exit kernel, the SNR-only constants without
# cancellation or overflow, and `f_bnd` and the chord threshold without
# their float guards took the exit codes from {0: 277, 2: 261, 3: 62} to
# {0: 409, 2: 158, 3: 33}; every E_sp and E_r of a request that moved to
# exit 0 is within F = 8 (2 ulp(C)/(C - R) + 1e-16) of mpmath in SNR
# 1e-4...1e5 and within max(F, 1e-12) outside it.  E_x and d_min without
# the cancellation of 1 - sqrt(1 - e^{-2R}) moved 272 requests and no exit
# code or stderr: E_x, E_awgn, d_min and d_typ are within 3.2e-16 of mpmath
# (E_x read 0 for e^{-2R} below an ulp of 1, from SNR 6.9e18), and the
# alpha_awgn, theta_awgn and k_zeta of 6 `geometry` requests at R < 1e-10
# moved with d_typ.  K_zeta solved in u = K SNR - 1 and l* in
# l - max(K_alpha, a), both on the fixed bracket of exp's range, with
# K_alpha from its closed forms, took the exit codes from
# {0: 409, 2: 158, 3: 33} to {0: 459, 2: 141}: 33 `root bracket expansion
# failed`, 13 `l* diverges` and 4 `math domain error` are gone.  They moved
# 153 `geometry` requests and no `exponents` request, exit-2 stderr or
# field outside the geometry's roots and scalings.  Relative to 700-digit
# mpmath on the same float inputs, the worst moved value went
# k_zeta 1.2e-8 -> 4.1e-16, theta_awgn 1.3e-5 -> 4.7e-16, theta_lambda
# 1.5e-6 -> 3.6e-16, r_lambda_alpha 1.5e-6 -> 4.6e-16, d_lambda_star
# 7.1e-8 -> 5.1e-16, l_star 7.1e-8 -> 3.8e-16, k_alpha_star, alpha_awgn,
# alpha_lambda and alpha_awgn_r 7.1e-8 -> 2.0e-16; the 50 requests that
# moved to exit 0 are within 5.5e-14 (theta above SNR 1e5) and 2.3e-16
# (every other field).  geometry's beta_star from E_sp's kernel at R (not
# through theta) and l_star's unconstrained form through hypot moved 118
# `geometry` requests and only those two fields: no exit code (still
# {0: 459, 2: 141}), stderr or `exponents` output.  Relative to 700-digit
# mpmath on the same float inputs, the worst moved beta_star below C went
# 8.8e-9 -> 6.2e-15 in SNR 1e-4...1e5 (3.4e6 -> 0.05 times
# 8 (2 ulp(C)/(C - R) + 1e-16)) and 1 -> 1.1e-16 outside it (0.0 where
# -4.1e-108 is right, at SNR 9.5e278), and l_star
# (18 moved) 2.3e-16 -> 1.6e-16.  At R = C, 22 beta_star fields that read
# up to 7.1e-8 in magnitude now read 0.0.  `geometry`'s two refusals now
# name their float limits (r_x underflows below SNR ~ 1e-161, d_crit rounds
# to sqrt(2) below ~ 4.5e-16): that moved the stderr of their 32 + 32
# requests and nothing else; the exit codes stay {0: 459, 2: 141}.
FROZEN_SWEEP_SHA256 = "b0f60a5503978b5e82a28bc5106a73178971903c87e9f8354edab3907ba71537"


def test_closed_form_sweep_frozen():
    h = hashlib.sha256()
    for outcome in _sweep_outcomes():
        h.update(repr(outcome).encode())
    assert h.hexdigest() == FROZEN_SWEEP_SHA256
