"""Acceptance suite: one test per numbered criterion, with pinned tolerances.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -v through the test outcome as well).  Reference values are frozen
from independent 40-digit evaluations of the closed forms.
"""

import math
import time

import mc_oracles as mc
import numpy as np
import pytest
import union_bound_oracles as ub
from scipy import integrate, stats
from scipy.optimize import brentq

from expbounds.channel import ChannelSpec
from expbounds import awgn, modlam, regions
from expbounds import simulator as sim

SNR_GRID = (0.5, 1.0, 2.0, 10.0, 100.0)

# Independent 40-digit reference values at snr = 10.
REF = {
    "C": 1.1989476363991853,
    "R_crit": 0.8568547958740373,
    "beta_g_prime": 5.549509756796392,
    "d_crit": 0.6003267398366377,
    "R_x": 0.5574904211116982,
}

# Published anchor values the criterion pins at 1e-5.  R_crit and R_x are the
# six-digit roundings of 40-digit mpmath values: R_crit = 0.85685479587... and
# R_x = 0.55749042111169823..., the root of E_x'(R) = -1, i.e. the tangency of
# E_x with the slope -1 line of E_r (Gallager 1968, sec. 7.4), which equals
# (1/2) ln((1 + sqrt(1 + SNR^2/4))/2).
ANCHORS = {
    "C": 1.198948,
    "R_crit": 0.856855,
    "beta_g_prime": 5.549510,
    "d_crit": 0.600327,
    "R_x": 0.557490,
}


def _line(num, ok, detail=""):
    print("CRITERION %d: %s%s" % (num, "PASS" if ok else "FAIL", " — " + detail if detail else ""))


def test_criterion_01_region_tail_identity():
    start = time.perf_counter()
    worst = 0.0
    for snr in SNR_GRID:
        spec = ChannelSpec(snr)
        r_c, c = awgn.critical_rate(spec), spec.capacity_nats
        for i in range(1, 21):
            r = r_c + (c - r_c) * i / 21.0
            got = awgn.leave_cone_exponent(awgn.theta_of_rate(r), spec)
            want = awgn.sphere_packing_exponent(r, spec)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    _line(1, ok, "max|gap|=%.2e, %.2fs" % (worst, elapsed))
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_closed_form_anchors():
    spec = ChannelSpec(10.0)
    got = {
        "C": awgn.capacity(spec),
        "R_crit": awgn.critical_rate(spec),
        "beta_g_prime": awgn.beta_g_prime(spec),
        "d_crit": awgn.critical_distance(spec),
        "R_x": awgn.rate_x(spec),
    }
    failures = []
    for key in REF:
        if abs(got[key] - REF[key]) > 1e-9:
            failures.append("%s computed %.9f != reference %.9f" % (key, got[key], REF[key]))
        if abs(ANCHORS[key] - got[key]) > 1e-5:
            failures.append(
                "%s anchor %.6f off computed %.7f by %.2e"
                % (key, ANCHORS[key], got[key], abs(ANCHORS[key] - got[key]))
            )
    d = got["d_crit"]
    if abs(d - math.sqrt(2.0 / got["beta_g_prime"])) > 1e-9:
        failures.append("d_crit != sqrt(2/beta_g')")
    if abs(d - math.sqrt(2.0) * math.exp(-got["R_crit"])) > 1e-9:
        failures.append("d_crit != sqrt(2) e^{-R_crit}")
    _line(2, not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_03_rho_and_scaling_endpoints():
    failures = []
    for snr in SNR_GRID:
        spec = ChannelSpec(snr)
        if abs(awgn.rho_g(spec.capacity_nats, spec)) > 1e-9:
            failures.append("rho(C) snr=%g" % snr)
        if abs(awgn.rho_g(awgn.critical_rate(spec), spec) - 1.0) > 1e-9:
            failures.append("rho(R_crit) snr=%g" % snr)
        theta_c = awgn.theta_of_rate(spec.capacity_nats)
        alpha = regions.tangent_sphere_scaling(theta_c, spec)
        if abs(alpha - snr / (1.0 + snr)) > 1e-12:
            failures.append("alpha*(theta(C)) snr=%g" % snr)
    _line(3, not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_04_continuity_suite():
    spec = ChannelSpec(10.0)
    eps = 1e-9
    failures = []
    r_x, r_c = awgn.rate_x(spec), awgn.critical_rate(spec)

    def chord(r):
        return awgn.typical_chord(r, awgn.min_distance(r), spec)

    for at, tag in ((r_x, "R_x"), (r_c, "R_crit")):
        jump = abs(chord(at - eps) - chord(at + eps))
        if jump > 1e-8:
            failures.append("d_typ jump %.2e at %s" % (jump, tag))
    lo, hi = (regions.typical_event(r, math.exp(-r), spec) for r in (r_c - eps, r_c + eps))
    a_lo, a_hi, k_lo, k_hi = lo.alpha, hi.alpha, lo.k_alpha, hi.k_alpha
    if abs(k_lo - k_hi) > 1e-8:
        failures.append("K_alpha* jump %.2e" % abs(k_lo - k_hi))
    for k in (k_lo, k_hi):
        if abs(k - 0.109902) > 1e-6:
            failures.append("K_alpha* branch %.7f != 0.109902" % k)
    if abs(a_lo - a_hi) > 1e-8:
        failures.append("alpha_lambda jump %.2e" % abs(a_lo - a_hi))
    # f_bnd branch junction: along the typical curve (d_typ(R), theta(R)) the
    # branch condition flips exactly where the chord's critical threshold
    # equals R, i.e. at R_crit.
    thresh = regions.critical_rate_of_theta_d(
        regions.theta_d_of_chord(awgn.critical_distance(spec)), spec
    )
    if abs(thresh - r_c) > 1e-12:
        failures.append("branch threshold of d_crit is not R_crit")

    def along_curve(r):
        return regions.f_bnd(
            awgn.typical_chord(r, awgn.min_distance(r), spec), awgn.theta_of_rate(r), r, spec
        )

    jump = abs(along_curve(r_c - eps) - along_curve(r_c + eps))
    if jump > 1e-8:
        failures.append("f_bnd junction jump %.2e" % jump)
    _line(4, not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_05_tightness_and_equivalence():
    spec = ChannelSpec(10.0)
    start = time.perf_counter()
    r_c, c = awgn.critical_rate(spec), spec.capacity_nats
    failures = []
    for i in range(1, 7):
        r = r_c + (c - r_c) * i / 7.0
        theta = awgn.theta_of_rate(r)
        e_sp = awgn.sphere_packing_exponent(r, spec)
        _, _, double_min = ub.cone_union_min(theta, r, spec)
        if abs(double_min - e_sp) > 1e-6:
            failures.append("cone min off %.2e at R=%.3f" % (abs(double_min - e_sp), r))
        event = regions.typical_event(r, math.exp(-r), spec)
        radius = math.sin(theta) / event.alpha
        l_opt, _, _, triple_min = ub.lattice_union_min(radius, event.k_alpha, spec, r)
        if abs(triple_min - double_min) > 1e-6:
            failures.append("triple/double gap %.2e at R=%.3f" % (abs(triple_min - double_min), r))
        l_star = modlam.l_circ_star(radius, event.k_alpha, spec)
        if abs(l_star - 1.0 / event.alpha) > 1e-8:
            failures.append("l* != 1/alpha at R=%.3f" % r)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _line(5, ok, "; ".join(failures) + " %.1fs" % elapsed)
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_06_ordering_chain():
    failures = []
    for snr in (1.0, 10.0):
        spec = ChannelSpec(snr)
        c = spec.capacity_nats
        r_x, r_c = awgn.rate_x(spec), awgn.critical_rate(spec)
        strict = False
        for i in range(1, 51):
            r = c * i / 51.0
            e_r = awgn.random_coding_exponent(r, spec)
            e_ii = modlam.modlambda_exponent(r, spec).value
            e_a = awgn.awgn_exponent(r, spec).value
            if e_r > e_ii + 1e-9 or e_ii > e_a + 1e-9:
                failures.append("ordering broken at snr=%g R=%.4f" % (snr, r))
            if r < r_x and e_ii < e_a - 1e-9:
                strict = True
            if r >= r_c:
                e_sp = awgn.sphere_packing_exponent(r, spec)
                if abs(e_ii - e_sp) > 1e-6:
                    failures.append("E_II != E_sp at snr=%g R=%.4f" % (snr, r))
        if not strict:
            failures.append("no strict gap below R_x at snr=%g" % snr)
    _line(6, not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_07_z_root_uniqueness():
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(100):
        snr = float(rng.uniform(0.5, 100.0))
        spec = ChannelSpec(snr)
        d = float(rng.uniform(0.05, math.sqrt(2.0)))
        r = float(rng.uniform(0.0, awgn.critical_rate(spec)))
        k_lo = 1.0 / snr + 1e-12
        k_hi = 200.0 * (1.0 + 1.0 / snr)
        grid = np.geomspace(k_lo, k_hi, 4000)
        vals = np.array([ub.z_of_k(float(k), d, r, spec) for k in grid])
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        if changes != 1:
            failures.append("%d sign changes (snr=%.3g d=%.3g R=%.3g)" % (changes, snr, d, r))
            continue
        k_zeta = regions.k_zeta(d, r, spec)
        resid = abs(ub.z_of_k(k_zeta, d, r, spec))
        if resid > 1e-10:
            failures.append("residual %.2e (snr=%.3g d=%.3g R=%.3g)" % (resid, snr, d, r))
    _line(7, not failures, "; ".join(failures[:3]))
    assert not failures, failures[:5]


def test_criterion_08_monte_carlo_suite():
    spec = ChannelSpec(10.0)
    failures = []
    trials = 1_000_000

    # (a) tail bounds hold and the per-dimension log ratio shrinks with n.
    dims = (8, 16, 32, 64)
    norm_ratios, joint_ratios = [], []
    for n in dims:
        rpt = mc.tail_check_norm(n, spec, [0.42], trials, seed=21)[0]
        if rpt["empirical"] > rpt["bound"] + 3.0 * rpt["stderr"]:
            failures.append("(a) norm bound broken at n=%d" % n)
        norm_ratios.append(abs(rpt["log_ratio_per_n"]))
        rpt = mc.tail_check_joint(n, spec, 0.15, 0.45, trials, seed=22)
        if rpt["empirical"] > rpt["bound"] + 3.0 * rpt["stderr"]:
            failures.append("(a) joint bound broken at n=%d" % n)
        joint_ratios.append(abs(rpt["log_ratio_per_n"]))
    for seq, tag in ((norm_ratios, "norm"), (joint_ratios, "joint")):
        if not all(a > b for a, b in zip(seq, seq[1:])):
            failures.append("(a) |log-ratio|/n not shrinking (%s): %s" % (tag, seq))

    # (b) effective-noise ball exit at the E_sp = 0.05 rate.  For the
    # spherical dither ||z_eff||^2 * SNR is exactly noncentral chi^2_n with
    # lambda = k^2 n SNR, k = (1-alpha)/alpha, so the exit probability is
    # P_n = P(chi'^2_n(lambda) > n SNR sin^2(theta) / alpha^2).
    r_target = brentq(lambda r: awgn.sphere_packing_exponent(r, spec) - 0.05, 0.9, 1.19, xtol=1e-12)
    rpt = mc.effective_noise_ball(64, spec, r_target, "spherical", trials, seed=23)
    # (b1) the 1M-trial CI holds the exact P_64 (scipy ncx2 and a 40-digit
    # mpmath Poisson-mixture sum agree on it to 10 digits).
    p_64 = 0.00486223780025
    lo, hi = rpt["ci95"]
    if not lo <= p_64 <= hi:
        failures.append("(b1) exact P_64=%.6g outside CI [%.6g, %.6g]" % (p_64, lo, hi))
    # (b2) the exact exponent falls strictly towards E_sp with the
    # P_n ~ n^{-1/2} e^{-n E_sp} gap: 0 < e_n - E_sp <= ln(n)/n.
    theta = awgn.theta_of_rate(r_target)
    alpha = regions.tangent_sphere_scaling(theta, spec)
    k = (1.0 - alpha) / alpha
    e_sp = awgn.sphere_packing_exponent(r_target, spec)
    exact = []
    for n in (64, 256, 1024, 4096):
        x = n * spec.snr * (math.sin(theta) / alpha) ** 2
        e_n = -math.log(stats.ncx2.sf(x, n, k * k * n * spec.snr)) / n
        exact.append(e_n)
        if not 0.0 < e_n - e_sp <= math.log(n) / n:
            failures.append("(b2) exact e_%d=%.5f vs E_sp=%.5f" % (n, e_n, e_sp))
    if not all(a > b for a, b in zip(exact, exact[1:])):
        failures.append("(b2) exact exponents not decreasing: %s" % exact)

    # (c) ML distance decoding vs an independent inner-product decoder path.
    spec2 = ChannelSpec(2.0)
    rate = 0.5 * spec2.capacity_nats
    cfg = sim.SimConfig(n=8, spec=spec2, rate=rate, trials=100_000, seed=31)
    res_ml = sim.simulate(cfg)
    m = cfg.codebook_size
    rng = np.random.default_rng(777)  # independent generator and algorithm
    errors = 0
    done = 0
    while done < cfg.trials:
        count = min(8192, cfg.trials - done)
        books = rng.normal(size=(count, m, 8))
        books *= math.sqrt(8.0) / np.linalg.norm(books, axis=2, keepdims=True)
        sent = rng.integers(m, size=count)
        rows = np.arange(count)
        y = books[rows, sent] + rng.normal(scale=math.sqrt(1.0 / 2.0), size=(count, 8))
        # Equal-norm codewords: ML reduces to the maximal inner product.
        ips = np.einsum("bmn,bn->bm", books, y)
        ip_sent = ips[rows, sent]
        ips[rows, sent] = -np.inf
        errors += int((ips.max(axis=1) >= ip_sent).sum())
        done += count
    lo1, hi1 = res_ml.ci95
    lo2, hi2 = sim.clopper_pearson(errors, cfg.trials)
    if hi1 < lo2 or hi2 < lo1:
        failures.append("(c) CIs disjoint: [%.4f,%.4f] vs [%.4f,%.4f]" % (lo1, hi1, lo2, hi2))

    # (d) zero-noise and determinism.
    cfg0 = sim.SimConfig(
        n=8,
        spec=spec2,
        rate=rate,
        ensemble=sim.SPHERICAL_EXPURGATED,
        d_min=0.2,
        trials=2000,
        seed=1,
        noise_var=0.0,
    )
    if sim.simulate(cfg0).errors != 0:
        failures.append("(d) zero-noise errors")
    small = sim.SimConfig(n=8, spec=spec2, rate=rate, trials=8192, seed=5)
    if sim.simulate(small) != sim.simulate(small):
        failures.append("(d) nondeterministic")

    _line(8, not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_09_spectrum_against_printed_law():
    # Faithful check against the stated density (d sqrt(1-d^2/4))^(n-1) and
    # its n=2 CDF 1 - (1-d^2/4)^(3/2).
    n = 16
    pairs = 100_000
    hist, edges, d = mc.empirical_spectrum(sim.SPHERICAL, n, 40, pairs, seed=41)

    def density(t):
        return (t * math.sqrt(1.0 - t * t / 4.0)) ** (n - 1)

    norm = integrate.quad(density, 0.0, 2.0)[0]
    probs = np.array(
        [integrate.quad(density, a, b)[0] / norm for a, b in zip(edges[:-1], edges[1:])]
    )
    keep = probs * pairs >= 5.0
    obs = np.append(hist[keep], hist[~keep].sum())
    exp = np.append(probs[keep], probs[~keep].sum()) * pairs
    _, p = stats.chisquare(obs, exp)

    _, _, d2 = mc.empirical_spectrum(sim.SPHERICAL, 2, 10, pairs, seed=41)
    d2_sorted = np.sort(d2)
    emp = np.arange(1, pairs + 1) / pairs
    cdf = 1.0 - (1.0 - d2_sorted ** 2 / 4.0) ** 1.5
    sup = float(np.max(np.abs(emp - cdf)))

    failures = []
    if p <= 0.01:
        failures.append("chi-square p=%.3g <= 0.01 at n=16" % p)
    if sup >= 1e-2:
        failures.append("n=2 CDF sup-norm %.3f >= 1e-2" % sup)
    _line(9, not failures, "; ".join(failures))
    assert not failures, failures
