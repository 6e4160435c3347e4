"""Command-line interface.

Subcommands: exponents (CSV curves), geometry (JSON typical-event report),
lattice (JSON figures of merit), simulate (JSON Monte Carlo result from a
config file), validate (self-check suite).

Exit status: 0 ok; 1 a `validate` check failed; 2 usage error or invalid
input (`ValueError`); 3 numerical failure (`RuntimeError`: a root bracket not
found, the expurgation attempt cap; `ArithmeticError`: a division by zero, an
overflow, or a non-finite exponent or lattice figure at extreme inputs).  Exits
2 and 3 print one `error:` line.
--out is written whole to a temporary file, then renamed onto the target.

Rates are accepted in bits (engineering convention) or nats; outputs always
carry the rate in nats plus the rate normalized by capacity so the unit is
unambiguous.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import awgn, modlam, regions
from .channel import (
    CAPACITY_SLACK,
    ChannelSpec,
    bits_to_nats,
    db_to_linear,
    linear_to_db,
    nats_to_bits,
)

# `lattices` and `simulator` (numpy, scipy.special) are imported inside the
# functions that use them, so `exponents`, `geometry` and `validate fast`
# start with the standard library alone.

# In the order of `modlam.exponent_table`'s rows.
CURVES = ("E_sp", "E_r", "E_x", "E_awgn", "E_modlambda")


def _channel(args) -> ChannelSpec:
    if args.snr is not None:
        return ChannelSpec(args.snr)
    return ChannelSpec(db_to_linear(10.0 if args.snr_db is None else args.snr_db))


def _rate_nats(args, spec):
    if args.rate_nats is not None:
        r = args.rate_nats
    elif args.rate_bits is not None:
        r = bits_to_nats(args.rate_bits)
    else:
        raise ValueError("one of --rate-bits / --rate-nats is required")
    c = spec.capacity_nats
    if not 0.0 < r <= c * CAPACITY_SLACK:
        raise ValueError("rate %.6g nats outside (0, C=%.6g]" % (r, c))
    return min(r, c)  # C given in bits lands an ulp either side of C


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--grid expects min:max:points")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError("bad --grid value: %s" % exc)
    if points < 2 or not lo < hi:
        raise ValueError("--grid needs points >= 2 and min < max")
    return lo, hi, points


def _linspace(lo, hi, num):
    """`num` evenly spaced floats from lo to hi, bit-equal to `numpy.linspace`."""
    div = num - 1
    step = (hi - lo) / div
    if step == 0.0:  # a span of a few subnormals, where numpy scales i/div
        return [lo + i / div * (hi - lo) for i in range(div)] + [hi]
    return [lo + i * step for i in range(div)] + [hi]


def _load_lattice(name_or_path):
    from . import lattices

    builtin = {
        "z4": lambda: lattices.integer_lattice(4),
        "z8": lambda: lattices.integer_lattice(8),
        "d4": lattices.d4,
        "e8": lattices.e8,
    }
    key = name_or_path.lower()
    if key in builtin:
        return builtin[key]()
    try:
        return lattices.load_basis(name_or_path)
    except (OSError, ValueError) as exc:
        raise ValueError("cannot load lattice %r: %s" % (name_or_path, exc))


def _write_out(args, text):
    """Write finished output to stdout, or atomically replace --out with it."""
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
        return
    tmp = "%s.%d.tmp" % (os.path.abspath(args.out), os.getpid())
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, args.out)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (args.out, exc))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_exponents(args):
    spec = _channel(args)
    lo, hi, points = _parse_grid(args.grid)
    if not args.grid_nats:
        lo, hi = bits_to_nats(lo), bits_to_nats(hi)
    c = spec.capacity_nats
    if hi > c * CAPACITY_SLACK:
        raise ValueError("grid max %.6g exceeds capacity %.6g nats" % (hi, c))
    hi = min(hi, c)
    curves = CURVES
    if args.curves:
        curves = tuple(s.strip() for s in args.curves.split(","))
        bad = [s for s in curves if s not in CURVES]
        if bad:
            raise ValueError("unknown curves %s; choose from %s" % (bad, list(CURVES)))
    header = ["rate_nats", "rate_over_C"]
    header += [c_ for c_ in curves]
    header += ["E_over_snr_" + c_[2:] for c_ in curves]
    lines = [",".join(header)]
    columns = [CURVES.index(c_) for c_ in curves]
    fmt = ",".join(["%.17g"] * len(header))
    snr = spec.snr
    rates = _linspace(lo, hi, points)
    for r, row in zip(rates, modlam.exponent_table(rates, spec)):
        picked = [row[i] for i in columns]
        if not all(map(math.isfinite, picked)):
            bad = next(i for i, v in enumerate(picked) if not math.isfinite(v))
            raise ArithmeticError("%s is %r at rate %r nats" % (curves[bad], picked[bad], r))
        lines.append(fmt % (r, r / c, *picked, *[v / snr for v in picked]))
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def cmd_geometry(args):
    spec = _channel(args)
    r = _rate_nats(args, spec)
    # d_crit can raise, so all three are read before either range check.
    r_crit, r_x, d_crit = spec.r_crit, spec.r_x, spec.d_crit
    if not 0.0 < r_x < r_crit < spec.capacity_nats:
        raise ValueError("expected 0 < r_x < r_crit < c")
    if not 0.0 < d_crit < math.sqrt(2.0):
        raise ValueError("d_crit out of range (0, sqrt(2))")
    e_awgn = awgn.awgn_exponent(r, spec)
    e_lam = modlam.modlambda_exponent(r, spec)
    theta, d_min, floor_lam = awgn.theta_of_rate(r), awgn.min_distance(r), math.exp(-r)
    # One typical error event, at each ensemble's distance floor.
    event_sp = regions.typical_event(r, d_min, spec)
    event_lam = regions.typical_event(r, floor_lam, spec)
    scaling = modlam.ScalingSpec(event_lam.alpha)
    l_star, d_star, lat_regime = modlam.maximizers_lattice(
        event_lam.radius, scaling, spec, min_distance=floor_lam
    )
    report = {
        "snr": spec.snr,
        "snr_db": linear_to_db(spec.snr),
        "rate_nats": r,
        "rate_bits": nats_to_bits(r),
        "rate_over_C": r / spec.capacity_nats,
        "capacity_nats": spec.capacity_nats,
        "critical_rate_nats": r_crit,
        "rate_x_nats": r_x,
        "rate_ii_nats": modlam.rate_ii(spec),
        "E_sp": awgn.sphere_packing_exponent(r, spec),
        "E_r": awgn.random_coding_exponent(r, spec),
        "E_x": awgn.expurgated_exponent(r, spec),
        "E_awgn": {"value": e_awgn.value, "regime": e_awgn.regime},
        "E_modlambda": {"value": e_lam.value, "regime": e_lam.regime},
        "theta": theta,
        "theta_awgn": event_sp.theta,
        "theta_lambda": event_lam.theta,
        "alpha_awgn": event_sp.alpha,
        "alpha_awgn_r": regions.alpha_awgn_r(r, spec),
        "alpha_lambda": event_lam.alpha,
        "alpha_mmse": modlam.mmse_alpha(spec).alpha,
        "k_alpha_star": scaling.k_alpha,
        "d_typ": event_sp.d,
        "d_typ_ii": event_lam.d,
        "d_crit": d_crit,
        "d_min": d_min,
        "beta_star": awgn.beta_star(theta, spec),
        "l_star": l_star,
        "d_lambda_star": d_star,
        "lattice_regime": lat_regime,
        "r_lambda_alpha": event_lam.radius,
    }
    if event_sp.k_zeta is not None:
        report["k_zeta"] = event_sp.k_zeta
    _write_out(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_lattice(args):
    if args.lattice is None:
        raise ValueError("--lattice NAME|FILE is required")
    from . import lattices

    lat = _load_lattice(args.lattice)
    figs = lattices.lattice_figures(lat, samples=args.trials, seed=args.seed)
    report = {
        "name": lat.name,
        "n": figs.n,
        "volume": figs.volume,
        "second_moment": figs.second_moment,
        "second_moment_stderr": figs.second_moment_stderr,
        "nsm": figs.nsm,
        "r_eff": figs.r_eff,
        "r_cov_upper": figs.r_cov,
        "deep_hole_probe": figs.deep_hole_probe,
    }
    bad = next((k for k, v in report.items() if isinstance(v, float) and not math.isfinite(v)), None)
    if bad is not None:
        raise ArithmeticError("%s is %r for lattice %r" % (bad, report[bad], lat.name))
    _write_out(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


_SIM_SCHEMA = {
    "n": int,
    "rate_nats": float,
    "rate_bits": float,
    "snr": float,
    "snr_db": float,
    "ensemble": str,
    "decoder": str,
    "trials": int,
    "seed": int,
    "d_min": float,
    "lattice": str,
    "alpha": float,
    "noise_var": float,
}


def _sim_config(doc):
    from . import simulator

    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    for key, value in doc.items():
        if key not in _SIM_SCHEMA:
            raise ValueError("unknown config field %r" % key)
        want = _SIM_SCHEMA[key]
        kinds = (int, float) if want is float else want
        if isinstance(value, bool) or not isinstance(value, kinds):  # JSON true is an int
            raise ValueError("field %r must be %s" % (key, want.__name__))
    if "n" not in doc:
        raise ValueError("missing config field 'n'")
    if "snr" in doc:
        spec = ChannelSpec(float(doc["snr"]))
    elif "snr_db" in doc:
        spec = ChannelSpec(db_to_linear(float(doc["snr_db"])))
    else:
        raise ValueError("missing config field 'snr' or 'snr_db'")
    if "rate_nats" in doc:
        rate = float(doc["rate_nats"])
    elif "rate_bits" in doc:
        rate = bits_to_nats(float(doc["rate_bits"]))
    else:
        raise ValueError("missing config field 'rate_nats' or 'rate_bits'")
    kwargs = {"n": doc["n"], "spec": spec, "rate": rate}
    # Fields the config leaves out take SimConfig's defaults.
    for key in ("ensemble", "decoder", "trials", "seed", "d_min", "alpha", "noise_var"):
        if key in doc:
            kwargs[key] = float(doc[key]) if _SIM_SCHEMA[key] is float else doc[key]
    if "lattice" in doc:
        kwargs["lattice"] = _load_lattice(doc["lattice"])
    return simulator.SimConfig(**kwargs)


def cmd_simulate(args):
    try:
        with open(args.config) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ValueError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ValueError("config is not valid JSON: %s" % exc)
    from . import simulator

    config = _sim_config(doc)
    result = simulator.simulate(config)
    _write_out(args, result.to_json(config_summary=doc) + "\n")
    return 0


def _fast_checks():
    """Closed-form identity suite; each entry returns a max absolute error."""
    spec = ChannelSpec(10.0)
    checks = []

    def leave_cone_error():
        worst = 0.0
        for r in _linspace(spec.r_crit + 0.01, spec.capacity_nats - 0.01, 8):
            theta = awgn.theta_of_rate(r)
            got = awgn.leave_cone_exponent(theta, spec)
            want = awgn.sphere_packing_exponent(r, spec)
            worst = max(worst, abs(got - want))
        return worst

    checks.append(("leave-cone equals sphere-packing above R_crit", leave_cone_error, 1e-8))
    checks.append(
        ("rho at capacity is 0", lambda: abs(awgn.rho_g(spec.capacity_nats, spec)), 1e-9)
    )
    checks.append(
        ("rho at critical rate is 1", lambda: abs(awgn.rho_g(spec.r_crit, spec) - 1.0), 1e-9)
    )
    checks.append(
        (
            "tangent scaling at capacity is the MMSE ratio",
            lambda: abs(
                regions.tangent_sphere_scaling(awgn.theta_of_rate(spec.capacity_nats), spec)
                - spec.snr / (1.0 + spec.snr)
            ),
            1e-12,
        )
    )

    def continuity_error():
        # d and alpha of each typical event across its own junctions.
        eps = 1e-9
        worst = 0.0
        for floor, junctions in (
            (awgn.min_distance, (spec.r_x, spec.r_crit)),
            (lambda r: math.exp(-r), (modlam.rate_ii(spec), spec.r_crit)),
        ):
            for at in junctions:
                lo, hi = (regions.typical_event(r, floor(r), spec) for r in (at - eps, at + eps))
                worst = max(worst, abs(lo.d - hi.d), abs(lo.alpha - hi.alpha))
        return worst

    checks.append(("typical-event chord and scaling continuity", continuity_error, 1e-6))

    def ordering_error():
        for r in _linspace(0.02, spec.capacity_nats - 1e-6, 25):
            e_r = awgn.random_coding_exponent(r, spec)
            e_ii = modlam.modlambda_exponent(r, spec).value
            e_a = awgn.awgn_exponent(r, spec).value
            if not (e_r - 1e-9 <= e_ii <= e_a + 1e-9):
                return abs(min(e_ii - e_r, e_a - e_ii))
        return 0.0

    checks.append(("exponent ordering E_r <= E_II <= E_awgn", ordering_error, 1e-9))

    def branch_agreement_error():
        worst = 0.0
        for r in _linspace(0.05, spec.capacity_nats - 0.01, 12):
            event = regions.typical_event(r, awgn.min_distance(r), spec)
            got = regions.f_bnd(event.d, event.theta, r, spec)
            want = awgn.awgn_exponent(r, spec).value
            worst = max(worst, abs(got - want))
        return worst

    checks.append(("typical-event geometry reproduces the exponent", branch_agreement_error, 1e-7))
    return checks


def _mc_checks():
    from scipy import special

    from . import simulator

    spec = ChannelSpec(10.0)
    checks = []

    def zero_noise():
        cfg = simulator.SimConfig(
            n=8,
            spec=ChannelSpec(2.0),
            rate=0.5 * ChannelSpec(2.0).capacity_nats,
            ensemble=simulator.SPHERICAL_EXPURGATED,
            d_min=0.2,
            trials=2000,
            seed=1,
            noise_var=0.0,
        )
        return float(simulator.simulate(cfg).errors)

    checks.append(("zero noise gives zero errors", zero_noise, 0.5))

    def determinism():
        cfg = simulator.SimConfig(n=8, spec=ChannelSpec(2.0), rate=0.5, trials=8192, seed=3)
        return float(simulator.simulate(cfg).errors != simulator.simulate(cfg).errors)

    checks.append(("repeat run is identical", determinism, 0.5))

    # The cone-leaving event's tails at n = 16, exactly, against their bounds;
    # the joint law takes ||z_2..n||, which y^2 - x^2 >= 1/SNR keeps bounded.
    n, snr = 16, spec.snr
    half = n * snr / 2

    def tail_bound():
        r = 0.5
        exact = special.gammaincc(n / 2, r * r * half)
        e_h, _ = awgn.tail_exponents(r * r * snr)
        return max(0.0, exact - math.exp(-n * e_h))

    checks.append(("radial tail bound holds", tail_bound, 0.0))

    def joint_tail_bound():
        x, y = 0.2, 0.5
        exact = special.erfc(x * math.sqrt(half)) * special.gammainc((n - 1) / 2, y * y * half)
        return max(0.0, exact - math.exp(-n * regions.joint_tail_exponent(x, y, snr)))

    checks.append(("joint tail bound holds", joint_tail_bound, 0.0))
    return checks


def cmd_validate(args):
    checks = _fast_checks()
    if args.level == "full":
        checks += _mc_checks()
    failed = 0
    for name, fn, tolerance in checks:
        try:
            err = fn()
            ok = err <= tolerance
        except Exception as exc:  # surface, keep walking the suite
            err, ok = math.inf, False
            name = "%s (raised %s)" % (name, exc)
        print("%s: %s (err=%.3g, tol=%.3g)" % ("PASS" if ok else "FAIL", name, err, tolerance))
        failed += 0 if ok else 1
    return 1 if failed else 0


# Building the parser costs about 1 ms, as much as a closed-form request.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="expbounds",
        description="Error-exponent bounds and typical-error geometry for the "
        "power-constrained Gaussian channel and its mod-lattice variant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_snr(p):
        p.add_argument("--snr-db", type=float, default=None, help="SNR in dB (default 10)")
        p.add_argument("--snr", type=float, default=None, help="linear SNR (overrides --snr-db)")

    p = sub.add_parser("exponents", help="emit exponent curves as CSV")
    add_snr(p)
    p.add_argument("--grid", required=True, help="rate grid min:max:points (bits unless --grid-nats)")
    p.add_argument("--grid-nats", action="store_true", help="interpret --grid in nats")
    p.add_argument("--curves", default=None, help="comma list from %s" % (CURVES,))
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("geometry", help="typical-error-event geometry report (JSON)")
    add_snr(p)
    p.add_argument("--rate-bits", type=float, default=None)
    p.add_argument("--rate-nats", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("lattice", help="lattice figures of merit (JSON)")
    p.add_argument("--lattice", default=None, help="builtin name (z4,z8,d4,e8) or basis file")
    p.add_argument("--trials", type=int, default=200_000, help="Monte Carlo samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    p.add_argument("config", help="JSON file mirroring the simulator config fields")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the self-check suite")
    p.add_argument("level", choices=("fast", "full"))
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
