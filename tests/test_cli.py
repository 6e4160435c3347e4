"""Command-line surface: CSV schema, JSON reports, config validation, exits."""

import ast
import csv
import glob
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from decimal import Decimal

import pytest
from cone_exit_mpmath import CONE_EXIT

from expbounds.channel import ChannelSpec, bits_to_nats, db_to_linear, nats_to_bits
from expbounds import awgn, cli, modlam, regions, simulator
from expbounds.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_csv_schema(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code, _, _ = _run(
        capsys, "exponents", "--snr-db", "10", "--grid", "0.05:1.7:50", "--out", str(out)
    )
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]  # no temp file left
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 50
    header = rows[0].keys()
    for col in (
        "rate_nats",
        "rate_over_C",
        "E_sp",
        "E_r",
        "E_x",
        "E_awgn",
        "E_modlambda",
        "E_over_snr_sp",
        "E_over_snr_modlambda",
    ):
        assert col in header
    spec = ChannelSpec(10.0)
    rates = [float(r["rate_nats"]) for r in rows]
    assert rates == sorted(rates)
    # Round trip at 1e-15 relative: re-derive one column from the library.
    for row in rows[::7]:
        want = awgn.sphere_packing_exponent(float(row["rate_nats"]), spec)
        got = float(row["E_sp"])
        assert got == want or abs(got - want) <= 1e-15 * max(1.0, abs(want))
    # Monotone non-increasing exponent columns.
    for col in ("E_sp", "E_r", "E_awgn", "E_modlambda"):
        vals = [float(r[col]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    # Mod-lattice curve merges with the best curve above the critical rate.
    r_crit = awgn.critical_rate(spec)
    for row in rows:
        if float(row["rate_nats"]) >= r_crit:
            assert abs(float(row["E_modlambda"]) - float(row["E_awgn"])) < 1e-9


def test_exponents_two_point_grid(capsys):
    spec = ChannelSpec(10.0)
    c_bits = spec.capacity_nats / math.log(2.0)
    code, out, _ = _run(
        capsys, "exponents", "--snr-db", "10", "--grid", "0.01:%.12f:2" % c_bits
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert abs(float(rows[-1]["E_sp"])) < 1e-9
    assert abs(float(rows[-1]["E_awgn"])) < 1e-9


def test_exponents_rejects_grid_beyond_capacity(capsys):
    code, _, err = _run(capsys, "exponents", "--snr-db", "10", "--grid", "0.1:3.0:5")
    assert code == 2
    assert "capacity" in err


def test_exponents_fails_closed_on_a_non_finite_exponent(tmp_path, capsys, monkeypatch):
    real_row = modlam._table_row

    def inf_row(r, spec):
        return real_row(r, spec)[:4] + (math.inf,)

    monkeypatch.setattr(modlam, "_table_row", inf_row)
    out = tmp_path / "curves.csv"
    code, stdout, err = _run(
        capsys, "exponents", "--snr-db", "10", "--grid-nats", "--grid", "0:1:2", "--out", str(out)
    )
    assert (code, stdout, err) == (3, "", "error: E_modlambda is inf at rate 0.0 nats\n")
    assert list(tmp_path.iterdir()) == []


def test_exponents_at_a_tiny_snr_read_e_r_for_e_modlambda(capsys):
    # Below SNR 8/3 rate_ii is 0, so E_II(0) is E_r(0): finite even where
    # d_crit cancels (to 9.0e15 at this SNR).
    code, out, err = _run(
        capsys, "exponents", "--snr", "7.148482997985123e-48", "--grid-nats",
        "--grid", "0:3.5742414989925616e-48:2",
    )
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    for row in rows:
        assert row["E_modlambda"] == row["E_r"]
        assert math.isfinite(float(row["E_modlambda"]))


def test_exponents_curve_subset(capsys):
    code, out, _ = _run(
        capsys,
        "exponents",
        "--snr-db",
        "10",
        "--grid",
        "0.1:1.0:3",
        "--curves",
        "E_sp,E_r",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["rate_nats", "rate_over_C", "E_sp", "E_r", "E_over_snr_sp", "E_over_snr_r"]


def test_geometry_report(capsys):
    code, out, _ = _run(capsys, "geometry", "--snr-db", "10", "--rate-nats", "1.0")
    assert code == 0
    rpt = json.loads(out)
    # Above the critical rate both scalings coincide.
    assert abs(rpt["alpha_awgn"] - rpt["alpha_lambda"]) < 1e-9
    assert rpt["E_awgn"]["regime"] == "sphere-packing"
    assert abs(rpt["rate_bits"] - 1.0 / math.log(2.0)) < 1e-12


def test_geometry_low_rate_regimes(capsys):
    code, out, _ = _run(capsys, "geometry", "--snr-db", "10", "--rate-nats", "0.01")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["E_awgn"]["regime"] == "expurgated"
    assert rpt["E_modlambda"]["regime"] == "expurgated"


def test_geometry_near_capacity_limits(capsys):
    spec = ChannelSpec(10.0)
    r = spec.capacity_nats * (1.0 - 1e-9)
    code, out, _ = _run(capsys, "geometry", "--snr-db", "10", "--rate-nats", "%.15f" % r)
    assert code == 0
    rpt = json.loads(out)
    assert abs(rpt["beta_star"]) < 1e-3
    assert abs(rpt["alpha_awgn"] - rpt["alpha_mmse"]) < 1e-3


def test_exponents_and_geometry_at_capacity(capsys):
    # R = C exactly, at SNRs where the rate round trip lands just below C.
    for snr_db in (-20.0, -5.0):
        c = 0.5 * math.log1p(10.0 ** (snr_db / 10.0))
        code, out, err = _run(
            capsys, "exponents", "--snr-db", repr(snr_db), "--grid-nats",
            "--grid", "%r:%r:4" % (c / 4.0, c),
        )
        assert code == 0, err
        assert len(out.strip().splitlines()) == 5
        code, out, err = _run(capsys, "geometry", "--snr-db", repr(snr_db), "--rate-nats", repr(c))
        assert code == 0, err
        json.loads(out)


@pytest.mark.parametrize("snr", sorted({row[0] for row in CONE_EXIT}))
def test_geometry_beta_star_matches_mpmath_to_the_floor(capsys, snr):
    # beta* from E_sp's kernel at R itself, on the rows of `cone_exit_mpmath`:
    # R/C from 1e-300 to the float below C, through r_x, R_crit and rate_ii.
    spec = ChannelSpec(snr)
    c = spec.capacity_nats
    for _, rate, _, _, beta in (row for row in CONE_EXIT if row[0] == snr):
        code, out, err = _run(capsys, "geometry", "--snr", repr(snr), "--rate-nats", repr(rate))
        assert code == 0, (rate, err)
        got = json.loads(out)["beta_star"]
        error = abs(Decimal(got) - Decimal(beta)) / abs(Decimal(beta))
        assert error <= 8.0 * (2.0 * math.ulp(c) / (c - rate) + 1e-16), (rate, got, beta)


@pytest.mark.parametrize("snr_db", [-40.0, -20.0, 10.0, 50.0])
def test_geometry_beta_star_is_zero_at_capacity(capsys, snr_db):
    # k = expm1(2(C - R))/SNR is 0 at R = C, and 0.0 prints unsigned.
    c = ChannelSpec(db_to_linear(snr_db)).capacity_nats
    code, out, err = _run(capsys, "geometry", "--snr-db", repr(snr_db), "--rate-nats", repr(c))
    assert code == 0, err
    assert '"beta_star": 0.0,' in out
    assert '"beta_star": -0.0' not in out


def test_geometry_runs_each_k_zeta_bisection_once(capsys, monkeypatch):
    # Below R_crit the AWGN and the lattice cone angles each need one root.
    spec, r = ChannelSpec(10.0), 0.5
    calls = []
    real_zeta_u = regions._zeta_u

    def counting_zeta_u(*args):
        calls.append(args)
        return real_zeta_u(*args)

    monkeypatch.setattr(regions, "_zeta_u", counting_zeta_u)
    code, out, _ = _run(capsys, "geometry", "--snr", "10", "--rate-nats", repr(r))
    assert code == 0
    assert len(calls) == 2
    monkeypatch.undo()
    rpt = json.loads(out)
    assert rpt["theta_awgn"] == regions.typical_event(r, awgn.min_distance(r), spec).theta
    assert rpt["theta_lambda"] == regions.typical_event(r, math.exp(-r), spec).theta
    assert rpt["r_lambda_alpha"] == regions.typical_event(r, math.exp(-r), spec).radius
    assert rpt["k_zeta"] == regions.k_zeta(awgn.typical_chord(r, awgn.min_distance(r), spec), r, spec)


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "--snr", "10", "--rate-nats", "0.5"],
        ["exponents", "--snr", "10", "--grid-nats", "--grid", "0.02:1.1:50"],
    ],
    ids=["geometry", "exponents"],
)
def test_request_computes_each_channel_constant_once(capsys, monkeypatch, argv):
    calls = _count_calls(monkeypatch, awgn, ("critical_rate", "rate_x", "critical_distance"))
    code, _, err = _run(capsys, *argv)
    assert code == 0, err
    assert calls == {"critical_rate": 1, "rate_x": 1, "critical_distance": 1}


# The north-star SNR range, -40 to 50 dB in half-dB steps.
HALF_DB_GRID = [k / 2.0 for k in range(-80, 101)]


def test_geometry_accepts_capacity_given_in_bits(capsys):
    # C/ln 2 converts back to an ulp above C at some SNRs; that is still C.
    above = []
    for snr_db in HALF_DB_GRID:
        c = ChannelSpec(db_to_linear(snr_db)).capacity_nats
        if bits_to_nats(nats_to_bits(c)) > c:
            above.append((snr_db, c))
    assert len(above) >= 10
    for snr_db, c in above:
        code, out_bits, err = _run(
            capsys, "geometry", "--snr-db", repr(snr_db), "--rate-bits", repr(nats_to_bits(c))
        )
        assert code == 0, (snr_db, err)
        code, out_nats, _ = _run(capsys, "geometry", "--snr-db", repr(snr_db), "--rate-nats", repr(c))
        assert code == 0
        assert out_bits == out_nats
        code, _, err = _run(
            capsys, "geometry", "--snr-db", repr(snr_db), "--rate-nats", repr(c * (1.0 + 1e-9))
        )
        assert code == 2 and "outside (0, C=" in err


def test_geometry_reports_one_event_for_both_ensembles_above_critical_rate(capsys):
    # The paper's claim: from R_crit to C the mod-lattice typical error event
    # has the spherical code's geometry, to the last bit.
    for snr_db in HALF_DB_GRID:
        spec = ChannelSpec(db_to_linear(snr_db))
        r_c, c = awgn.critical_rate(spec), spec.capacity_nats
        for k in range(11):
            r = c if k == 10 else r_c + (c - r_c) * k / 10.0
            code, out, err = _run(capsys, "geometry", "--snr-db", repr(snr_db), "--rate-nats", repr(r))
            assert code == 0, (snr_db, r, err)
            rpt = json.loads(out)
            assert rpt["alpha_awgn"] == rpt["alpha_lambda"], (snr_db, r)
            assert rpt["theta_awgn"] == rpt["theta_lambda"], (snr_db, r)


def test_geometry_at_a_tiny_rate(capsys):
    # e^(2R) - 1 rounds to 0 below R ~ 1e-17; rho_G must not divide by it.
    code, out, err = _run(capsys, "geometry", "--snr", "10", "--rate-nats", "1e-17")
    assert code == 0, err
    rpt = json.loads(out)
    assert abs(rpt["E_sp"] - 5.0) < 1e-7


R_X_UNDERFLOWS = ("expected 0 < r_x < r_crit < c: r_x, about SNR^2/32, underflows to 0 "
                  "below SNR ~ 1e-161, a float limit")
D_CRIT_ROUNDS = ("d_crit out of range (0, sqrt(2)): it rounds to sqrt(2) below SNR ~ 4.5e-16, "
                 "a float limit")
# Each refusal's message by its leading clause.
REFUSALS = {message.split(":")[0]: message for message in (R_X_UNDERFLOWS, D_CRIT_ROUNDS)}


@pytest.mark.parametrize(
    "snr, code, message",
    [
        # r_x, about SNR^2/32, underflows to 0.
        (1e-300, 2, "expected 0 < r_x < r_crit < c"),
        # d_crit is sqrt(2) correctly rounded.
        (1e-154, 2, "d_crit out of range (0, sqrt(2))"),
        (1e-20, 2, "d_crit out of range (0, sqrt(2))"),
        # Every constant is in range, and K_zeta's root is found on its fixed
        # bracket at any SNR.
        (1e300, 0, None),
        (1e20, 0, None),
        (1e-8, 0, None),
    ],
)
def test_geometry_domain_checks_at_extreme_snr(capsys, snr, code, message):
    # Where r_x, R_crit or d_crit leaves its range, at half capacity.
    r = 0.5 * ChannelSpec(snr).capacity_nats
    got, out, err = _run(capsys, "geometry", "--snr", repr(snr), "--rate-nats", repr(r))
    if message is None:
        assert (got, err) == (0, "")
        assert all(math.isfinite(v) for v in json.loads(out).values() if isinstance(v, float))
    else:
        assert (got, out, err) == (code, "", "error: %s\n" % REFUSALS[message])


@pytest.mark.parametrize(
    "snr, message",
    [(9.9e-162, R_X_UNDERFLOWS), (1e-200, R_X_UNDERFLOWS), (1.0e-161, D_CRIT_ROUNDS),
     (4.4e-16, D_CRIT_ROUNDS), (4.5e-16, None)],
    ids=["r_x-9.9e-162", "r_x-1e-200", "d_crit-1.0e-161", "d_crit-4.4e-16", "none-4.5e-16"],
)
def test_geometry_refusals_name_their_float_limit(capsys, snr, message):
    # Each message names the SNR below which a float breaks its range, and
    # that SNR is where it breaks: r_x underflows to 0 between 9.9e-162 and
    # 1.0e-161, where d_crit is already sqrt(2), and d_crit leaves sqrt(2)
    # between 4.4e-16 and 4.5e-16.
    spec = ChannelSpec(snr)
    assert (spec.r_x == 0.0) == (message == R_X_UNDERFLOWS)
    assert (spec.d_crit == math.sqrt(2.0)) == (message is not None)
    got, out, err = _run(capsys, "geometry", "--snr", repr(snr), "--rate-nats", repr(0.5 * spec.capacity_nats))
    if message is None:
        assert (got, err) == (0, "")
    else:
        assert (got, out, err) == (2, "", "error: %s\n" % message)


def test_geometry_requires_rate(capsys):
    code, _, err = _run(capsys, "geometry", "--snr-db", "10")
    assert code == 2
    assert "rate" in err


def test_lattice_report(capsys):
    code, out, _ = _run(capsys, "lattice", "--lattice", "z4", "--trials", "20000")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["n"] == 4
    assert abs(rpt["volume"] - 1.0) < 1e-12
    assert abs(rpt["second_moment"] - 1.0 / 12.0) < 6.0 * rpt["second_moment_stderr"]


def test_lattice_from_file(tmp_path, capsys):
    path = tmp_path / "z2.lat"
    path.write_text("2\n1 0\n0 1\n")
    code, out, _ = _run(capsys, "lattice", "--lattice", str(path), "--trials", "5000")
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_lattice_file_output_independent_of_path(tmp_path, capsys, monkeypatch):
    # The same basis written in two directories gives the same bytes.
    outs = []
    for sub in ("a", "b/c"):
        (tmp_path / sub).mkdir(parents=True)
        (tmp_path / sub / "d4.lat").write_text("4\n1 1 0 0\n1 -1 0 0\n0 1 -1 0\n1 0 0 -1\n")
        monkeypatch.chdir(tmp_path / sub)
        code, out, _ = _run(capsys, "lattice", "--lattice", "d4.lat", "--trials", "500")
        assert code == 0
        outs.append(out)
    code, out, _ = _run(capsys, "lattice", "--lattice", str(tmp_path / "a" / "d4.lat"), "--trials", "500")
    assert outs[0] == outs[1] == out


@pytest.mark.parametrize(
    "text",
    ["0\n", "-2\n1 0\n0 1\n", "2\nnan 0\n0 1\n", "2\n1 0\n0 inf\n", "3\n1 2 0\n1 2 0\n0 0 1\n"],
    ids=["dimension-0", "dimension-negative", "nan", "inf", "equal-rows"],
)
def test_lattice_rejects_degenerate_basis_file(tmp_path, capsys, recwarn, text):
    path = tmp_path / "bad.lat"
    path.write_text(text)
    code, out, err = _run(capsys, "lattice", "--lattice", str(path), "--trials", "500")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot load lattice")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lattice_from_file_at_a_tiny_scale(tmp_path, capsys):
    # 1e-4 Z^4 has det 1e-16: singular only to an absolute threshold.
    path = tmp_path / "tiny.lat"
    path.write_text("4\n" + "\n".join(" ".join("1e-4" if i == j else "0" for j in range(4)) for i in range(4)))
    code, out, _ = _run(capsys, "lattice", "--lattice", str(path), "--trials", "2000")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["volume"] == pytest.approx(1e-16, rel=1e-12)
    assert rpt["nsm"] == pytest.approx(1.0 / 12.0, rel=0.05)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("big, small", [("1e300", "1e-300"), ("1e200", "1e-200")])
def test_lattice_fails_closed_on_non_finite_figures(tmp_path, capsys, big, small):
    # Entries near the float range overflow sigma^2, and JSON has no Infinity
    # or NaN: the command exits 3 and writes nothing, to stdout or --out.
    path = tmp_path / "huge.lat"
    path.write_text("2\n%s 0\n0 %s\n" % (big, small))
    out = tmp_path / "figures.json"
    for extra in ((), ("--out", str(out))):
        code, stdout, err = _run(capsys, "lattice", "--lattice", str(path), "--trials", "100", *extra)
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: second_moment is inf") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.lat"]


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("2\n1e308 1e308\n1e308 -1e308\n", 2, "basis volume |det| overflows to inf"),
        ("2\n1e300 0\n0 1e-300\n", 3, "error: second_moment is inf"),
    ],
    ids=["volume-overflows", "figures-overflow"],
)
def test_lattice_at_the_float_range_says_one_error_line(tmp_path, capsys, text, code, message):
    # A basis whose |det| overflows is refused by name, not as singular (its
    # Hadamard bound overflows too); one whose figures overflow fails closed.
    # Either way stderr is one `error:` line, with no numpy warning.
    path = tmp_path / "extreme.lat"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = _run(capsys, "lattice", "--lattice", str(path), "--trials", "1000")
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert [str(w.message) for w in caught] == []


def test_simulate_deterministic_output(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 8, "snr": 2.0, "rate_nats": 0.42, "trials": 4096, "seed": 5}))
    code, out1, _ = _run(capsys, "simulate", str(cfg))
    assert code == 0
    code, out2, _ = _run(capsys, "simulate", str(cfg))
    assert code == 0
    assert out1 == out2
    rec = json.loads(out1)
    assert rec["trials"] == 4096
    assert rec["ci95"][0] <= rec["pe"] <= rec["ci95"][1]


def test_simulate_with_every_optional_field_defaulted_is_pinned(tmp_path, capsys):
    # Ensemble, decoder, trials, seed, d_min and alpha all come from SimConfig.
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 8, "snr": 2.0, "rate_nats": 0.42}))
    code, out, _ = _run(capsys, "simulate", str(cfg))
    assert code == 0
    assert out == (
        '{"ci95": [0.13854505099822728, 0.15246214709311612], '
        '"config": {"n": 8, "rate_nats": 0.42, "snr": 2.0}, '
        '"empirical_exponent": 0.24103333923533976, "errors": 1454, "pe": 0.1454, '
        '"trials": 10000}\n'
    )


def test_simulate_rejects_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 8, "snr": 2.0, "rate_nats": 0.42, "bogus": 1}))
    code, _, err = _run(capsys, "simulate", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_simulate_rejects_bad_type(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 8, "snr": 2.0, "rate_nats": 0.42, "trials": "many"}))
    code, _, err = _run(capsys, "simulate", str(cfg))
    assert code == 2
    assert "trials" in err


def test_simulate_rejects_unreachable_floor(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 4, "snr": 2.0, "rate_nats": math.log(64) / 4,
                               "ensemble": "spherical-expurgated", "d_min": 1.9}))
    code, _, err = _run(capsys, "simulate", str(cfg))
    assert code == 2
    assert "d_min" in err


def test_simulate_over_expurgated_budget_exits_2_at_once(tmp_path, capsys, monkeypatch):
    # n=16, M=65536 would hold about 64 GiB of codebooks; nothing is drawn.
    def no_draw(*args):
        raise AssertionError("a rejected config must draw nothing")

    monkeypatch.setattr(simulator, "_expurgated_codebooks", no_draw)
    cfg = tmp_path / "sim.json"
    out = tmp_path / "result.json"
    cfg.write_text(json.dumps({"n": 16, "snr": 2.0, "rate_nats": math.log(65536) / 16,
                               "ensemble": "spherical-expurgated", "d_min": 0.5,
                               "trials": 4096}))
    start = time.perf_counter()
    code, stdout, err = _run(capsys, "simulate", str(cfg), "--out", str(out))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err
    assert not out.exists()


def test_lattice_over_memory_budget_exits_2_in_a_fresh_process(tmp_path):
    # 10**12 Voronoi samples of E8 would need about 7.3 TiB: the request is
    # refused before anything is drawn, with one line and no traceback.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = tmp_path / "figures.json"
    code = (
        "import sys\n"
        "from expbounds import cli\n"
        "sys.exit(cli.main(['lattice', '--lattice', 'e8', '--trials', str(10 ** 12),"
        " '--out', %r]))" % str(out)
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "budget" in proc.stderr
    assert not out.exists()


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh_process(code):
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Prints which of numpy and scipy the process has loaded.
_LOADED = (
    "import sys\n"
    "print(' '.join(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})))"
)


def test_cli_import_leaves_out_scipy_stats():
    # Start-up cost: the closed forms need only `math`, so the CLI, the
    # package and the closed-form modules load neither numpy nor any of scipy;
    # `lattices` loads numpy but no scipy.
    for name, allowed in (
        ("expbounds.cli", ""), ("expbounds", ""), ("expbounds.regions", ""),
        ("expbounds.modlam", ""), ("expbounds.lattices", "numpy"),
    ):
        loaded = _fresh_process("import %s\n%s" % (name, _LOADED)).strip()
        assert loaded == allowed, (name, loaded)


def test_library_never_imports_scipy_optimize():
    # An import inside a function body escapes the import-time checks above,
    # so every import statement of the package, at any depth, is read here.
    found = []
    for path in sorted(glob.glob(os.path.join(_SRC, "expbounds", "*.py"))):
        name = os.path.basename(path)
        with open(path) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                modules = [node.module] + ["%s.%s" % (node.module, alias.name) for alias in node.names]
            else:
                continue
            if any(m == "scipy.optimize" or m.startswith("scipy.optimize.") for m in modules):
                found.append("%s:%d" % (name, node.lineno))
    assert not found, found


# Module-level functions that are entry points without a caller in `src/`.
_NO_CALLER_NEEDED = {"__getattr__"}


def test_every_library_function_has_a_caller():
    # Test-only code lives under tests/: each module-level function of the
    # package is read somewhere in `src/` outside its own body, is exported
    # from `expbounds`, or is a `cmd_*` entry point.
    import expbounds

    defined, used = {}, set()
    for path in sorted(glob.glob(os.path.join(_SRC, "expbounds", "*.py"))):
        name = os.path.basename(path)
        with open(path) as f:
            tree = ast.parse(f.read(), name)
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            if owner is not None:
                defined["%s:%s" % (name, owner)] = owner
            for node in ast.walk(top):
                ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and ref != owner:
                    used.add(ref)
    assert defined
    exported = set(expbounds.__dict__) | set(expbounds._LAZY)
    orphans = sorted(
        where for where, fn in defined.items()
        if fn not in used | exported | _NO_CALLER_NEEDED and not fn.startswith("cmd_")
    )
    assert not orphans, orphans


# Methods and properties read nowhere in `src/`, each with its reason.
_METHODS_WITHOUT_CALLER = {
    # The tests' oracle of the fast rules; perfbench's tracer wraps it by name.
    "Lattice.nearest_enumerated",
}


def test_every_library_method_has_a_caller():
    # The same rule for classes: each method or property of a class of the
    # package, dunders aside, is read as an attribute somewhere in `src/`
    # outside its own body, or is on the list above.
    defined, reads = {}, {}
    for path in sorted(glob.glob(os.path.join(_SRC, "expbounds", "*.py"))):
        name = os.path.basename(path)
        with open(path) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    own = sum(isinstance(n, ast.Attribute) and n.attr == fn.name for n in ast.walk(fn))
                    defined["%s.%s" % (cls.name, fn.name)] = (fn.name, own)
    assert "Lattice.reduce" in defined
    orphans = sorted(
        where for where, (fn, own) in defined.items()
        if reads.get(fn, 0) == own and where not in _METHODS_WITHOUT_CALLER
    )
    assert not orphans, orphans
    assert _METHODS_WITHOUT_CALLER <= set(defined)


def test_every_export_is_documented():
    # What `expbounds` exports, eagerly or on first use, README names.
    import expbounds

    with open(os.path.join(_SRC, os.pardir, "README.md")) as f:
        readme = f.read()
    exported = [
        name for name, obj in vars(expbounds).items()
        if not name.startswith("_") and getattr(obj, "__module__", "").startswith("expbounds.")
    ]
    exported += list(expbounds._LAZY)
    assert len(exported) > 30
    missing = [name for name in exported if not re.search(r"`%s\b" % re.escape(name), readme)]
    assert not missing, missing


def test_closed_form_requests_load_no_numpy():
    # `geometry`, `exponents` and `validate fast` run on the standard library.
    out = _fresh_process(
        "import contextlib, io, sys\n"
        "from expbounds import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['geometry', '--snr', '10', '--rate-nats', '0.7']) == 0\n"
        "    assert cli.main(['exponents', '--snr-db', '10', '--grid', '0.1:1.7:20']) == 0\n"
        "    assert cli.main(['validate', 'fast']) == 0\n"
        + _LOADED
    )
    assert out.strip() == ""


def test_validate_full_and_simulate_load_no_scipy_stats(tmp_path):
    # `validate full`'s exact tail laws and the simulator need only scipy.special.
    cfg = tmp_path / "coset.json"
    cfg.write_text(json.dumps(_COSET))
    out = _fresh_process(
        "import contextlib, io, sys\n"
        "from expbounds import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['validate', 'full']) == 0\n"
        "    assert cli.main(['simulate', %r]) == 0\n"
        "print(' '.join(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules))))\n"
        % str(cfg)
    )
    assert out.strip() == ""


def test_lattice_and_simulator_names_load_on_first_use():
    import expbounds
    from expbounds import (  # noqa: F401
        Lattice, SimConfig, SimResult, d4, e8, integer_lattice, lattice_figures, load_basis,
        simulate,
    )
    from expbounds import lattices

    assert e8 is lattices.e8 and simulate is simulator.simulate and Lattice is lattices.Lattice
    with pytest.raises(AttributeError):
        expbounds.no_such_name  # noqa: B018


def test_simulate_missing_snr(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 8, "rate_nats": 0.42}))
    code, _, err = _run(capsys, "simulate", str(cfg))
    assert code == 2
    assert "snr" in err


def test_validate_fast_passes(capsys):
    code, out, _ = _run(capsys, "validate", "fast")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_validate_full_passes(capsys):
    code, out, _ = _run(capsys, "validate", "full")
    assert code == 0
    assert "FAIL" not in out
    assert len([line for line in out.splitlines() if line.startswith("PASS: ")]) == 11


def test_exponents_failure_keeps_existing_out_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "curves.csv"
    out.write_bytes(b"old bytes\n")
    real_row = modlam._table_row
    calls = []

    def failing_row(r, spec):
        calls.append(r)
        if len(calls) == 3:
            raise ValueError("injected failure at rate %r" % r)
        return real_row(r, spec)

    monkeypatch.setattr(modlam, "_table_row", failing_row)
    code, stdout, err = _run(
        capsys, "exponents", "--snr-db", "10", "--grid", "0.1:1.0:5", "--out", str(out)
    )
    assert code == 2
    assert "injected failure" in err
    assert stdout == ""
    assert out.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "curves.csv"
    code, _, err = _run(
        capsys, "exponents", "--snr-db", "10", "--grid", "0.1:1.0:3", "--out", str(out)
    )
    assert code == 2
    assert err.startswith("error: cannot write")


def test_numerical_failure_exits_3_without_traceback(tmp_path, capsys):
    # Rankin admits M = 5 at d_min 1.9 in n = 4, but no codebook meets the
    # floor (the simplex chord is 1.58), so the expurgation attempt cap fires.
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 4, "snr": 2.0, "rate_nats": math.log(5) / 4,
                               "ensemble": "spherical-expurgated", "d_min": 1.9,
                               "trials": 1}))
    code, stdout, err = _run(capsys, "simulate", str(cfg))
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


_COSET = {"n": 8, "snr": 4.0, "rate_nats": math.log(11) / 8, "ensemble": "lattice-coset",
          "decoder": "closest-coset", "lattice": "e8", "trials": 100, "seed": 1}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"ensemble": "sphercal", "decoder": "ml"}, "ensemble"),
        ({"decoder": "closest-cost"}, "decoder"),
        ({"ensemble": "spherical"}, "decoder"),
        ({"alpha": 0}, "alpha"),
        ({"alpha": -0.5}, "alpha"),
        ({"alpha": 5}, "alpha"),
        ({"noise_var": -1}, "noise_var"),
        ({"d_min": -3}, "d_min"),
        ({"lattice": "d4"}, "dimension"),
        ({"seed": -1}, "seed"),
        ({"seed": 2 ** 128}, "seed"),
        ({"trials": True}, "'trials'"),
        ({"n": True, "rate_nats": 1.0, "ensemble": "spherical", "decoder": "ml"}, "'n'"),
        ({"rate_nats": 1e300}, "rate"),
        ({"snr": 1e400}, "snr"),
    ],
)
def test_simulate_rejects_out_of_range_fields(tmp_path, capsys, change, field):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(dict(_COSET, **change)))
    out = tmp_path / "result.json"
    code, stdout, err = _run(capsys, "simulate", str(cfg), "--out", str(out))
    assert code == 2, err
    assert stdout == "" and "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert field in err
    assert [p.name for p in tmp_path.iterdir()] == ["sim.json"]


@pytest.mark.parametrize(
    "argv",
    [
        # Requests below R_crit, where the bracket of K_zeta's root once
        # stopped growing before the root; both run the root kernel.
        ("geometry", "--snr", "1e20", "--rate-nats", "11.5"),
        ("geometry", "--snr", "7.458590634907544e+68", "--rate-nats", "7.929257639851397e-08"),
    ],
)
def test_arithmetic_failure_exits_3_without_traceback(capsys, monkeypatch, argv):
    # No closed form fails on these requests any more, so make the kernel fail.
    code, stdout, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    for failure in (RuntimeError, ArithmeticError):

        def failing(*args):
            raise failure("injected failure")

        monkeypatch.setattr(regions, "_zeta_u", failing)
        code, stdout, err = _run(capsys, *argv)
        assert code == 3
        assert stdout == ""
        assert err == "error: injected failure\n"


@pytest.mark.parametrize(
    "snr, grid, code, message",
    [
        # Finite rows where d_crit once divided by an underflowed SNR^2 and
        # E_sp's Gallager form cancelled to an error.
        ("1e-300", "1e-302:5e-301:50", 0, None),
        ("1e-300", "0:5e-301:3", 0, None),
        ("1e300", "6.907755278982137:345.38776394910684:50", 0, None),
        ("1e300", "0:345.38776394910684:3", 0, None),
        # A negative rate is rejected before any curve runs.
        ("1e300", "-1:345.38776394910684:3", 2, "grid min -1 nats is below 0"),
        ("1e-300", "-1e-301:5e-301:3", 2, "grid min -1e-301 nats is below 0"),
    ],
)
def test_exponents_at_extreme_snr_keeps_its_outcome(capsys, snr, grid, code, message):
    got, stdout, err = _run(capsys, "exponents", "--snr", snr, "--grid-nats", "--grid=" + grid)
    if message is None:
        assert (got, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(stdout)))
        assert len(rows) == int(grid.rsplit(":", 1)[1])
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())
    else:
        assert (got, stdout, err) == (code, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "grid, lo",
    [("-1:0.5:3", "-0.693147"), ("-0.1:0.5:2", "-0.0693147"), ("-inf:0.5:3", "-inf")],
)
def test_exponents_rejects_a_negative_grid_start_before_any_curve(capsys, monkeypatch, grid, lo):
    def no_table(rates, spec):
        raise AssertionError("a curve ran")

    monkeypatch.setattr(modlam, "exponent_table", no_table)
    got, stdout, err = _run(capsys, "exponents", "--snr-db", "10", "--grid=" + grid)
    assert (got, stdout, err) == (2, "", "error: grid min %s nats is below 0\n" % lo)


@pytest.mark.parametrize("trials", ["0", "1"])
def test_lattice_rejects_too_few_samples(capsys, trials):
    code, stdout, err = _run(capsys, "lattice", "--lattice", "d4", "--trials", trials)
    assert code == 2
    assert stdout == ""
    assert "samples" in err
