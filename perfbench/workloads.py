"""Request lists of the three benchmark workloads.

A request is one `expbounds` command line, sent in-process through
`expbounds.cli.main(argv)` with `--out` pointing at a temporary file.  Every
input is derived from the benchmark seed with the standard-library
`random.Random`, so the same seed gives the same request list on any numpy
version.  Fixed parts of each list (the SNR grid, the rate grid ending at C,
the non-standard D4 basis) stay fixed on every seed, so the known defects at
low SNR and at R = C are hit on every run and never depend on the seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("analytic", "spherical", "coset")

# A closed-form request takes 1-10 ms here (rare spikes near 40 ms); 100 ms
# is far outside that and cuts off requests that never return (the -40/-35 dB
# geometry bisection).
ANALYTIC_DEADLINE_S = 0.1
# The slowest Monte Carlo request (n=12, M=512) takes about 2 s.
MC_DEADLINE_S = 20.0

# The SNR grid of the north star, -40 to 50 dB.
SNR_DB_GRID = tuple(range(-40, 55, 5))
QUICK_SNR_DB_GRID = (-40, -20, 10)

# A D4 basis in a non-standard form: the standard generator rows multiplied
# by a fixed unimodular integer matrix, so `load_basis` does not recognise it
# and every closest-point query goes through enumeration.  It stays the same
# on every seed because enumeration cost depends on the basis.
D4_STANDARD = ((1, 1, 0, 0), (1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1))
D4_UNIMODULAR = ((1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 1, 1))


@dataclass
class Request:
    """One CLI request and what its output is checked against."""

    name: str
    argv: list
    deadline_s: float
    kind: str  # "exponents", "geometry", "lattice", "simulate"
    expect: dict = field(default_factory=dict)  # gate parameters for this request
    same_as: str | None = None  # name of a request whose output must match byte for byte


def capacity_nats(snr_db):
    """Capacity 1/2 ln(1 + SNR) of the SNR the CLI derives from --snr-db."""
    return 0.5 * math.log1p(10.0 ** (snr_db / 10.0))


def _analytic(rnd, quick):
    grid = QUICK_SNR_DB_GRID if quick else SNR_DB_GRID
    points, geometry_rates, seeded_rates = (8, 4, 1) if quick else (50, 20, 3)
    requests = []
    for snr_db in grid:
        c = capacity_nats(snr_db)
        requests.append(
            Request(
                "exponents snr_db=%g grid=C/%d:C:%d" % (snr_db, points, points),
                ["exponents", "--snr-db", repr(float(snr_db)), "--grid-nats",
                 "--grid", "%r:%r:%d" % (c / points, c, points)],
                ANALYTIC_DEADLINE_S,
                "exponents",
            )
        )
        # k/K of capacity for k = 1..K, ending exactly at C, then seeded rates.
        fractions = [("%d/%d" % (k, geometry_rates), k / geometry_rates)
                     for k in range(1, geometry_rates + 1)]
        fractions += [("%.6f" % f, f) for f in (rnd.uniform(0.3, 0.95) for _ in range(seeded_rates))]
        for label, frac in fractions:
            rate = c if frac == 1.0 else c * frac
            requests.append(
                Request(
                    "geometry snr_db=%g rate=%s*C" % (snr_db, label),
                    ["geometry", "--snr-db", repr(float(snr_db)), "--rate-nats", repr(rate)],
                    ANALYTIC_DEADLINE_S,
                    "geometry",
                    expect={"snr_db": snr_db},
                )
            )
    return requests


def _simulate(tmpdir, name, doc, expect=None, same_as=None):
    path = os.path.join(tmpdir, "config-%s.json" % name.replace(" ", "_").replace("=", "-"))
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return Request(name, ["simulate", path], MC_DEADLINE_S, "simulate", expect or {}, same_as)


def _spherical(rnd, tmpdir, quick):
    trials = 1024 if quick else 16384
    sweep = [(8, m, trials) for m in ((9, 16) if quick else (9, 16, 32, 64))]
    if not quick:
        sweep += [(12, 64, 8192), (12, 512, 8192)]
    requests = []
    for n, m, count in sweep:
        doc = {"n": n, "snr": 2.0, "rate_nats": math.log(m) / n, "ensemble": "spherical",
               "decoder": "ml", "trials": count, "seed": rnd.randrange(2 ** 31)}
        requests.append(_simulate(tmpdir, "spherical n=%d M=%d" % (n, m), doc))
    first = requests[0]
    with open(first.argv[1]) as fh:
        requests.append(_simulate(tmpdir, first.name + " repeat", json.load(fh), same_as=first.name))
    # At SNR 1 about 17% of trials err, so the CI width, and with it
    # time_to_accuracy_s, depends little on the seed.
    doc = {"n": 8, "snr": 1.0, "rate_nats": math.log(9) / 8, "ensemble": "spherical-expurgated",
           "d_min": 0.6, "trials": 512 if quick else 8192, "seed": rnd.randrange(2 ** 31)}
    requests.append(_simulate(tmpdir, "expurgated n=8 M=9 d_min=0.6", doc))
    doc = {"n": 8, "snr": 2.0, "rate_nats": math.log(9) / 8, "ensemble": "spherical-expurgated",
           "d_min": 0.2, "trials": 256 if quick else 512, "noise_var": 0.0,
           "seed": rnd.randrange(2 ** 31)}
    requests.append(_simulate(tmpdir, "expurgated zero-noise", doc, expect={"errors": 0}))
    return requests


def write_d4_file(tmpdir):
    """Write the non-standard D4 basis file and return its path."""
    rows = [[sum(u * b[j] for u, b in zip(urow, D4_STANDARD)) for j in range(4)]
            for urow in D4_UNIMODULAR]
    path = os.path.join(tmpdir, "d4-nonstandard.lat")
    with open(path, "w") as fh:
        fh.write("4\n" + "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n")
    return path


def _coset(rnd, tmpdir, quick):
    trials = 1024 if quick else 20000
    requests = []
    for lattice, n, m, decoder in (("e8", 8, 11, "closest-coset"), ("e8", 8, 16, "closest-coset"),
                                   ("d4", 4, 5, "euclidean-extended"), ("d4", 4, 8, "euclidean-extended")):
        doc = {"n": n, "snr": 4.0, "rate_nats": math.log(m) / n, "ensemble": "lattice-coset",
               "decoder": decoder, "lattice": lattice, "trials": trials,
               "seed": rnd.randrange(2 ** 31)}
        requests.append(_simulate(tmpdir, "coset %s M=%d %s" % (lattice, m, decoder), doc))
    first = requests[0]
    with open(first.argv[1]) as fh:
        requests.append(_simulate(tmpdir, first.name + " repeat", json.load(fh), same_as=first.name))
    d4_path = write_d4_file(tmpdir)
    for label, target, samples, reference in (
        ("e8", "e8", 5000 if quick else 200_000, "G_E8"),
        ("d4-file", d4_path, 1000 if quick else 20000, "G_D4"),
    ):
        requests.append(
            Request(
                "lattice %s samples=%d" % (label, samples),
                ["lattice", "--lattice", target, "--trials", str(samples),
                 "--seed", str(rnd.randrange(2 ** 31))],
                MC_DEADLINE_S,
                "lattice",
                expect={"nsm_reference": reference},
            )
        )
    return requests


def build(workload, seed, tmpdir, quick=False):
    """The workload's request list for `seed`; config and basis files go to `tmpdir`."""
    rnd = random.Random("%s:%d" % (workload, seed))
    if workload == "analytic":
        requests = _analytic(rnd, quick)
    elif workload == "spherical":
        requests = _spherical(rnd, tmpdir, quick)
    elif workload == "coset":
        requests = _coset(rnd, tmpdir, quick)
    else:
        raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))
    # Names key the ledger and the output comparisons.
    if len({r.name for r in requests}) != len(requests):
        raise ValueError("duplicate request names in workload %r" % workload)
    return requests


def load_inputs(requests):
    """Load every config and lattice the requests name, as the CLI will.

    This is the input loading that set-up time covers.
    """
    from expbounds.lattices import load_basis

    for req in requests:
        if req.kind == "simulate":
            with open(req.argv[1]) as fh:
                json.load(fh)
        elif req.kind == "lattice" and os.path.isfile(req.argv[2]):
            load_basis(req.argv[2])
