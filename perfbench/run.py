"""expbounds benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload {analytic,spherical,coset} --seed N \
        --seconds S --trace {0,1} [--quick]

Run it from the root of a checkout; it imports the package from `src/`.  It
sends the workload's fixed request list through `expbounds.cli.main(argv)`
in this process, pass after pass, until `--seconds` have passed.  Between
passes it times fresh set-up processes (`setup_probe.py`), spread over the
run so that their median sees the same machine as the passes do.  Every
latency is calibrated against a fixed loop timed next to it, so that it
reads in seconds of a reference machine, and the timing metrics take each
request's median calibrated latency over the passes.  Every request has a
deadline and every output goes through the correctness gate (`gate.py`);
failures are counted and listed, never fatal.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate; the last line carries the
per-layer metrics of the traced passes and the tracing overhead.  The line
before it is a JSON report with the machine block, the failure ledger and
the latency sample count.  See README.md in this directory.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from time import perf_counter

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TARGET_REL_HALFWIDTH = 0.10  # "stated accuracy" of time_to_accuracy_s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Machine-speed calibration (see README.md, "Calibrated time"): a sample is
# the median of CAL_REPEATS runs of a fixed kernel, taken before the first
# request of a pass, after the last, and between requests once CAL_EVERY_S
# of requests have run since the last sample.  A time measured between two
# samples is scaled by CAL_REF_S / (their mean).
CAL_REF_S = 0.0025  # the kernel's time on the reference machine (2-vCPU Xeon)
CAL_REPEATS = 3
CAL_EVERY_S = 0.2


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded()


# -- machine speed ------------------------------------------------------


def _kernel():
    """Fixed pure-Python work, independent of expbounds."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    return total


def calibration_sample():
    """Seconds of one kernel run at the machine's current speed."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _scale(before, after):
    """Factor from seconds measured between two samples to calibrated seconds."""
    return CAL_REF_S / (0.5 * (before + after))


def _calibrate(records, before, samples):
    """Take a sample; scale `records`, timed since `before`; return the sample."""
    after = calibration_sample()
    samples.append(after)
    for r in records:
        r["scaled"] = r["seconds"] * _scale(before, after)
    return after


# -- set-up -------------------------------------------------------------


def probe_setup(workload, seed, quick, tmpdir):
    """Spawn one fresh set-up process.

    Returns (calibrated seconds to ready, seconds to ready, import seconds).
    """
    before = calibration_sample()
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload,
            "--seed", str(seed), "--tmpdir", tmpdir] + (["--quick"] if quick else [])
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    # A probe that hangs, before or after its line, is killed at the timeout.
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line:
        raise RuntimeError("set-up probe exited with %s" % code)
    return ready * _scale(before, calibration_sample()), ready, json.loads(line)["import_s"]


# -- requests -----------------------------------------------------------


def _last_line(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def send(cli, req, out):
    """Send one request; return (seconds, error or None, cut off by the deadline)."""
    captured = io.StringIO()
    error = None
    cut = False
    t0 = perf_counter()
    # The outer try also catches an alarm that lands after cli.main returned
    # but before the timer is disarmed.
    try:
        signal.setitimer(signal.ITIMER_REAL, req.deadline_s)
        try:
            with contextlib.redirect_stderr(captured), contextlib.redirect_stdout(captured):
                code = cli.main(req.argv + ["--out", out])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            error = ("exit%s" % code, _last_line(captured.getvalue()))
    except DeadlineExceeded:
        error = ("DeadlineExceeded", "no result within %g s" % req.deadline_s)
        cut = True
    except SystemExit as exc:  # argparse rejects the command line
        error = ("exit%s" % exc.code, _last_line(captured.getvalue()))
    except Exception as exc:  # a request failure is data; keep the run going
        error = (type(exc).__name__, str(exc))
    seconds = perf_counter() - t0
    if error is None and seconds > req.deadline_s:
        error = ("DeadlineExceeded", "returned after %.3f s" % seconds)
    return seconds, error, cut


def _accuracy_factor(req, text):
    """Time to the stated accuracy per second of this request (see README.md)."""
    if req.kind != "simulate":
        return 1.0  # closed forms carry no sampling error
    doc = json.loads(text)
    if doc["errors"] == 0:
        return 0.0  # no Pe estimate to reach an accuracy on
    lo, hi = doc["ci95"]
    return ((hi - lo) / 2.0 / doc["pe"] / TARGET_REL_HALFWIDTH) ** 2


def run_pass(cli, requests, tmpdir, refs, first_outputs, samples, tracer=None):
    """One pass over the request list; returns per-request records.

    Each record's `scaled` is its latency in calibrated seconds, scaled by
    the calibration samples taken just before and just after it.  Every
    calibration sample taken is appended to `samples`.
    """
    records = []
    outputs = {}
    sample = calibration_sample()
    samples.append(sample)
    unscaled = []  # records since `sample` was taken
    since = 0.0  # request seconds since `sample` was taken
    for i, req in enumerate(requests):
        if since >= CAL_EVERY_S:
            sample = _calibrate(unscaled, sample, samples)
            unscaled, since = [], 0.0
        out = os.path.join(tmpdir, "out-%d" % i)
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        if tracer is not None:
            tracer.begin_request()
        seconds, error, cut = send(cli, req, out)
        if tracer is not None:
            tracer.end_request(cut)
        since += seconds
        accuracy = 0.0
        if error is None:
            with open(out) as fh:
                text = fh.read()
            outputs[req.name] = text
            problems = gate.check(req, text, refs)
            if req.same_as is not None and outputs.get(req.same_as) != text:
                problems.append("output differs from %r with the same config" % req.same_as)
            if first_outputs.setdefault(req.name, text) != text:
                problems.append("output differs from the first pass")
            if problems:
                error = ("gate", "; ".join(problems[:3]))
            else:
                accuracy = _accuracy_factor(req, text)
        records.append({"request": req.name, "seconds": seconds, "error": error,
                        "cut": cut, "accuracy": accuracy})
        unscaled.append(records[-1])
    _calibrate(unscaled, sample, samples)
    return records


def _tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    With too few samples for that, the maximum (reported as percentile 100).
    """
    ordered = sorted(values)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_workload(workload, seed, seconds, trace, quick, tmpdir, refs=gate.REFERENCES,
                 setup_probes=0):
    """Run the passes of one run; return the measurements and ledger.

    Passes follow one another until `seconds` have passed since the first
    began, and at least one (two with `trace`: one untraced, one traced).
    `setup_probes` fresh set-up processes are timed before the passes that
    start after 0, 1/k, 2/k, ... of `seconds`, so that their median sees the
    machine over the whole run.
    """
    sys.path.insert(0, SRC)
    from expbounds import cli, simulator

    requests = workloads.build(workload, seed, tmpdir, quick)
    workloads.load_inputs(requests)
    tracer = None
    if trace:
        from tracer import Tracer, pass_metrics

        tracer = Tracer()
    previous = signal.signal(signal.SIGALRM, _alarm)
    passes = []  # (traced, records, layer metrics)
    first_outputs = {}
    samples = []  # calibration samples of the passes, in seconds
    probe_dir = os.path.join(tmpdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    probes = []  # (calibrated seconds to ready, seconds to ready, import seconds)
    start = perf_counter()
    try:
        while True:
            elapsed = perf_counter() - start
            while len(probes) < setup_probes and elapsed >= len(probes) * seconds / setup_probes:
                probes.append(probe_setup(workload, seed, quick, probe_dir))
            if passes and elapsed >= seconds and (not trace or len(passes) % 2 == 0):
                break
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                records = run_pass(cli, requests, tmpdir, refs, first_outputs, samples,
                                   tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            layers = None
            if traced:
                failed = sum(r["error"] is not None for r in records)
                layers = pass_metrics(tracer.current, simulator.BLOCK, len(records), failed)
            passes.append((traced, records, layers))
    finally:
        signal.signal(signal.SIGALRM, previous)
    summary = summarize(workload, passes)
    summary["setup_samples_s"] = [p[0] for p in probes]
    summary["setup_raw_samples_s"] = [p[1] for p in probes]
    summary["import_samples_s"] = [p[2] for p in probes]
    summary["calibration_ms"] = 1000.0 * statistics.median(samples)
    return summary


def _pass_wall(records):
    """Time of the requests of one pass that returned (reported per pass)."""
    return sum(r["seconds"] for r in records if not r["cut"])


def _latency(passes):
    """Each request's calibrated latency in seconds: its median over the passes.

    A request cut off by its deadline is left out: its time is the deadline,
    not the program's.  It still counts as attempted and failed.
    """
    times = defaultdict(list)
    for _, records, _ in passes:
        for r in records:
            if not r["cut"]:
                times[r["request"]].append(r["scaled"])
    return {name: statistics.median(values) for name, values in times.items()}


def summarize(workload, passes):
    records = [r for _, recs, _ in passes for r in recs]
    plain = [p for p in passes if not p[0]]
    traced = [p for p in passes if p[0]]
    latency = _latency(plain)
    # One latency sample per request of the list.
    latencies = [1000.0 * t for t in latency.values()]
    tail, tail_pct = _tail(latencies)
    accuracy = {}
    for r in records:
        accuracy[r["request"]] = max(accuracy.get(r["request"], 0.0), r["accuracy"])
    failures = Counter()
    details = {}
    for r in records:
        if r["error"] is not None:
            key = (r["request"], r["error"][0])
            failures[key] += 1
            details.setdefault(key, r["error"][1])
    attempted = len(records)
    failed = sum(failures.values())
    e2e = {
        "wall_s": sum(latency.values()),
        "request_ms_p50": statistics.median(latencies),
        "request_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": (attempted - failed) / attempted,
        "time_to_accuracy_s": sum(t * accuracy[name] for name, t in latency.items()),
    }
    layers = {}
    if traced:
        for name in traced[0][2]:
            layers[name] = statistics.median(p[2][name] for p in traced)
        layers["trace.overhead_s"] = sum(_latency(traced).values()) - e2e["wall_s"]
    return {
        "attempted": attempted,
        "failed": failed,
        "gate_failures": sum(n for (_, kind), n in failures.items() if kind == "gate"),
        "passes": len(plain),
        "traced_passes": len(traced),
        "requests_per_pass": len(passes[0][1]),
        "pass_walls_s": [_pass_wall(recs) for _, recs, _ in plain],
        "deadline_cut_s": statistics.median(sum(r["seconds"] for r in recs if r["cut"]) for _, recs, _ in passes),
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        "e2e": e2e,
        "layers": layers,
        "ledger": [
            {"workload": workload, "request": req, "error": kind, "count": n, "detail": details[(req, kind)]}
            for (req, kind), n in sorted(failures.items())
        ],
    }


# -- report -------------------------------------------------------------


def _git_commit():
    """HEAD of the checkout, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_block(seed):
    import numpy
    import scipy
    from expbounds.simulator import BLOCK

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
        "BLOCK": BLOCK,
        "deadline_s": {"analytic": workloads.ANALYTIC_DEADLINE_S, "monte_carlo": workloads.MC_DEADLINE_S},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="expbounds benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one set-up probe (self-test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "expbounds", "cli.py")):
        print("error: no expbounds sources under %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick, tmpdir,
                               setup_probes=1 if args.quick else SETUP_REPEATS)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_ROOT)
    if args.trace:
        values = dict(summary["layers"], import_s=statistics.median(summary["import_samples_s"]))
    else:
        values = dict(summary["e2e"], setup_s=statistics.median(summary["setup_samples_s"]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report = {k: v for k, v in summary.items() if k not in ("e2e", "layers")}
    report.update(
        workload=args.workload,
        trace=args.trace,
        quick=args.quick,
        failed_frac=summary["failed"] / summary["attempted"],
        machine=machine_block(args.seed),
    )
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": summary["gate_failures"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
