"""Correctness gate: checks request outputs against references that do not
come from the code under test.

Each check returns a list of failure messages; an empty list passes.  A gate
failure marks the request failed and the run incorrect, but never stops it.
"""

import csv
import io
import json
import math

REFERENCES = {
    # README quick start, six decimals, at SNR = 10.
    "capacity_snr10": 1.198948,
    "r_crit_snr10": 0.856855,
    # Normalized second moments, Conway & Sloane, SPLAG, Table 2.3.
    "G_E8": 0.0716821,
    "G_D4": 0.0766032,
}
SIX_DECIMALS = 5e-7
ORDER_TOL = 1e-9
NSM_STDERRS = 4.0


def _numbers(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _numbers(value, prefix + key + ".")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key, float(value)


def _ordering(e_r, e_ii, e_awgn, e_sp, where):
    """E_r <= E_II <= E_awgn <= E_sp, each step within ORDER_TOL."""
    chain = (("E_r", e_r), ("E_II", e_ii), ("E_awgn", e_awgn), ("E_sp", e_sp))
    return [
        "%s: %s=%.17g > %s=%.17g" % (where, a, va, b, vb)
        for (a, va), (b, vb) in zip(chain, chain[1:])
        if va > vb + ORDER_TOL
    ]


def check_exponents(text, expect, refs):
    failures = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["no rows"]
    for i, row in enumerate(rows):
        try:
            vals = {k: float(v) for k, v in row.items()}
        except (TypeError, ValueError):
            failures.append("row %d: unparsable %r" % (i, row))
            continue
        bad = [k for k, v in vals.items() if not math.isfinite(v)]
        if bad:
            failures.append("row %d: non-finite %s" % (i, ",".join(bad)))
            continue
        failures += _ordering(vals["E_r"], vals["E_modlambda"], vals["E_awgn"], vals["E_sp"],
                              "row %d" % i)
    return failures


def check_geometry(text, expect, refs):
    doc = json.loads(text)
    failures = ["non-finite %s" % k for k, v in _numbers(doc) if not math.isfinite(v)]
    if failures:
        return failures
    failures += _ordering(doc["E_r"], doc["E_modlambda"]["value"], doc["E_awgn"]["value"],
                          doc["E_sp"], "report")
    if expect.get("snr_db") == 10:
        for field, ref in (("capacity_nats", "capacity_snr10"), ("critical_rate_nats", "r_crit_snr10")):
            if abs(doc[field] - refs[ref]) > SIX_DECIMALS:
                failures.append("%s=%.9f differs from reference %s=%.6f"
                                % (field, doc[field], ref, refs[ref]))
    return failures


def check_lattice(text, expect, refs):
    doc = json.loads(text)
    failures = ["non-finite %s" % k for k, v in _numbers(doc) if not math.isfinite(v)]
    if failures:
        return failures
    ref = expect["nsm_reference"]
    # The figures report the stderr of sigma^2; G = sigma^2 / V^(2/n) scales it alike.
    stderr = doc["second_moment_stderr"] / doc["volume"] ** (2.0 / doc["n"])
    if abs(doc["nsm"] - refs[ref]) > NSM_STDERRS * stderr:
        failures.append("G=%.7f is %.1f stderr from %s=%.7f"
                        % (doc["nsm"], abs(doc["nsm"] - refs[ref]) / stderr, ref, refs[ref]))
    return failures


def check_simulate(text, expect, refs):
    doc = json.loads(text)
    errors, trials, pe = doc["errors"], doc["trials"], doc["pe"]
    lo, hi = doc["ci95"]
    failures = []
    if not (0 <= errors <= trials and math.isfinite(pe) and 0.0 <= lo <= pe <= hi <= 1.0):
        failures.append("inconsistent result errors=%r trials=%r pe=%r ci95=%r"
                        % (errors, trials, pe, doc["ci95"]))
    if "errors" in expect and errors != expect["errors"]:
        failures.append("errors=%d, expected %d" % (errors, expect["errors"]))
    return failures


CHECKS = {
    "exponents": check_exponents,
    "geometry": check_geometry,
    "lattice": check_lattice,
    "simulate": check_simulate,
}


def check(request, text, refs=REFERENCES):
    """Gate failures of one request's output text."""
    try:
        return CHECKS[request.kind](text, request.expect, refs)
    except (KeyError, TypeError, ValueError) as exc:  # malformed output
        return ["malformed output: %s: %s" % (type(exc).__name__, exc)]
