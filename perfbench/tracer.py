"""Per-layer spans around calls into the expbounds modules, from outside.

`Tracer.install()` replaces every public function of the layer modules, and
the public `Lattice` methods, with a wrapper that records a span; it patches
each name in every `expbounds` module namespace that holds the function, so
calls between modules (`from .awgn import theta_of_rate`) are seen too.
`uninstall()` puts the originals back, so untraced passes run the program
unchanged.  No file under `src/` is touched.

Spans are aggregated as they close:
  * a layer's busy time is the sum of its spans' self time (duration minus
    the time of the child spans they enclose), so time is counted once, in
    the innermost traced layer;
  * a layer's call count is the number of spans entered from another layer
    (or from the benchmark);
  * per-function inclusive time is kept for the functions the report names;
  * a request cut off by its deadline is left out of all of them.
Functions of `numerics` are not wrapped: their time counts in the caller.
"""

import copy
import functools
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "awgn", "regions", "modlam", "simulator", "lattices")
ENSEMBLES = ("spherical", "spherical-expurgated", "lattice-coset")
LATTICE_METHODS = ("nearest", "nearest_enumerated", "reduce", "sample_voronoi")


class _Pass:
    """Aggregates of one traced pass."""

    def __init__(self):
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.fn_time = {}
        self.sims = []  # (ensemble, n, M, trials, seconds, errors, ci95, pe)
        self.fast_points = 0
        self.fast_s = 0.0
        self.enum_points = 0
        self.enum_s = 0.0
        self.voronoi_samples = 0
        self.voronoi_s = 0.0


class Tracer:
    """Installs the span wrappers and holds the aggregates of the current pass."""

    def __init__(self):
        self._stack = []  # open spans: [layer, child_seconds]
        self._patched = []  # (namespace, attribute, original)
        self.current = None
        self._before = None  # aggregates before the request in flight

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the layer functions and start a fresh pass of aggregates."""
        from expbounds import lattices

        self.current = _Pass()
        originals = {}
        for layer in LAYERS:
            module = sys.modules["expbounds." + layer]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    originals[obj] = self._wrap(layer, "%s.%s" % (layer, name), obj)
        for space in [m for n, m in sys.modules.items() if n == "expbounds" or n.startswith("expbounds.")]:
            for attr, obj in list(vars(space).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patched.append((space, attr, obj))
                    setattr(space, attr, originals[obj])
        for name in LATTICE_METHODS:
            orig = vars(lattices.Lattice)[name]
            self._patched.append((lattices.Lattice, name, orig))
            setattr(lattices.Lattice, name, self._wrap("lattices", "lattices.Lattice." + name, orig))

    def uninstall(self):
        for space, attr, orig in reversed(self._patched):
            setattr(space, attr, orig)
        self._patched.clear()
        self._stack.clear()

    def begin_request(self):
        self._before = copy.deepcopy(self.current)

    def end_request(self, cut):
        """Close the request; a request cut off by its deadline leaves no trace.

        Its time is the deadline, not the program's, so the aggregates go
        back to what they were before it and its open spans are dropped.
        """
        if cut:
            self.current = self._before
        self._stack.clear()

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        observe = _OBSERVERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            t0 = perf_counter()
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                agg = self.current
                agg.busy[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[0] != layer:
                    agg.calls[layer] += 1
                agg.fn_time[name] = agg.fn_time.get(name, 0.0) + dur
            if observe is not None:
                observe(agg, args, kwargs, result, dur)
            return result

        return traced


def _observe_simulate(agg, args, kwargs, result, dur):
    config = args[0] if args else kwargs["config"]
    agg.sims.append((config.ensemble, config.n, config.codebook_size, config.trials, dur,
                     result.errors, tuple(result.ci95), result.pe))


def _observe_nearest(agg, args, kwargs, result, dur):
    lattice = args[0]
    if lattice.decoder:  # fast rule; enumeration is counted by nearest_enumerated
        agg.fast_points += len(result)
        agg.fast_s += dur


def _observe_enumerated(agg, args, kwargs, result, dur):
    agg.enum_points += len(result)
    agg.enum_s += dur


def _observe_voronoi(agg, args, kwargs, result, dur):
    agg.voronoi_samples += len(result)
    agg.voronoi_s += dur


_OBSERVERS = {
    "simulator.simulate": _observe_simulate,
    "lattices.Lattice.nearest": _observe_nearest,
    "lattices.Lattice.nearest_enumerated": _observe_enumerated,
    "lattices.Lattice.sample_voronoi": _observe_voronoi,
}

# Inclusive time of the optimizer entry points that each layer's report names.
_ENTRY_POINTS = (
    ("awgn", "awgn.rate_x", "awgn.rate_x_s"),
    ("regions", "regions.k_zeta", "regions.k_zeta_s"),
    ("modlam", "modlam.maximizers_lattice", "modlam.maximizers_s"),
)


def _per(total, count, scale=1.0):
    return scale * total / count if count else 0.0


def pass_metrics(agg, block, cli_requests, cli_failed):
    """Per-layer metrics of one traced pass (counts, seconds and rates)."""
    m = {
        "cli.requests": cli_requests,
        "cli.failed": cli_failed,
        # CLI request time minus the library time inside it.
        "cli.format_s": agg.busy["cli"],
    }
    for layer, fn, metric in _ENTRY_POINTS:
        m[layer + ".calls"] = agg.calls[layer]
        m[layer + ".busy_s"] = agg.busy[layer]
        m[metric] = agg.fn_time.get(fn, 0.0)
    for ens in ENSEMBLES:
        runs = [s for s in agg.sims if s[0] == ens]
        seconds = sum(s[4] for s in runs)
        trials = sum(s[3] for s in runs)
        m["simulator.%s.calls" % ens] = len(runs)
        m["simulator.%s.busy_s" % ens] = seconds
        m["simulator.%s.trials" % ens] = trials
        m["simulator.%s.trials_per_s" % ens] = _per(trials, seconds)
    m["simulator.normalize_s"] = agg.fn_time.get("simulator.normalized_lattice", 0.0)
    # Computed from the configs, not measured: the codebook ensembles draw
    # trials*M*n normals, and the distance kernel reads them once as float64.
    books = [s for s in agg.sims if s[0] != "lattice-coset"]
    m["simulator.codebook_draws"] = sum(s[3] * s[2] * s[1] for s in books)
    m["simulator.kernel_bytes"] = 8 * m["simulator.codebook_draws"]
    m["simulator.block_mb"] = max((min(block, s[3]) * s[2] * s[1] * 8 / 1e6 for s in books), default=0.0)
    rel = [(s[6][1] - s[6][0]) / 2.0 / s[7] for s in agg.sims if s[5] > 0]
    m["simulator.ci_rel_halfwidth"] = statistics.median(rel) if rel else 0.0
    m["lattices.calls"] = agg.calls["lattices"]
    m["lattices.busy_s"] = agg.busy["lattices"]
    m["lattices.nearest_points"] = agg.fast_points
    m["lattices.nearest_us_per_point"] = _per(agg.fast_s, agg.fast_points, 1e6)
    m["lattices.enum_points"] = agg.enum_points
    m["lattices.enum_us_per_point"] = _per(agg.enum_s, agg.enum_points, 1e6)
    m["lattices.voronoi_samples"] = agg.voronoi_samples
    m["lattices.voronoi_us_per_sample"] = _per(agg.voronoi_s, agg.voronoi_samples, 1e6)
    m["lattices.figures_s"] = agg.fn_time.get("lattices.lattice_figures", 0.0)
    return m
