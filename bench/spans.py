"""Spans around the calls into each whprecode layer, and the per-layer metrics.

``install`` runs only in a traced worker.  It replaces every public
function of the layer modules, as bound in each caller's module namespace
(``whprecode.cli.solve_fidelity``, ``whprecode.mc.channel_fidelity``, ...),
with a wrapper that records a span: job id, name, start, end, parent span
and a few attributes.  Spans stay in memory until the worker exits.  The
untraced run leaves the package untouched.

``layer_metrics`` turns the spans of a run into the per-layer metrics; a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import weakref

LAYERS = ("cli", "bloch", "multiplex", "mc", "optimize", "wssus", "heisenberg")

# Attributes recorded on a span, from (args, kwargs, result) of the call.
_ATTRS = {
    "cli.main": lambda a, k, r: {"exit": r},
    "mc.estimate_expectations": lambda a, k, r: {"n": k.get("trials", a[5] if len(a) > 5 else None)},
    "optimize.brute_force_bloch_oracle": lambda a, k, r: {"n": a[1]},
    "optimize.fidelity_lower_bound_search": lambda a, k, r: {"n": a[2]},
    "optimize.alternating_fidelity_max": lambda a, k, r: {
        "half_steps": len(r.objective_history),
        "converged": r.converged,
    },
}


class Tracer:
    """In-memory span recorder; ``job`` tags every span it records."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._built = weakref.WeakSet()

    def reset(self) -> None:
        self.spans.clear()
        self._built = weakref.WeakSet()

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [tracer.job, name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return traced

    def _kraus_attrs(self, args, kwargs, result):
        # The operators are cached on the instance: only the first call builds.
        owner = args[0]
        built = owner not in self._built
        self._built.add(owner)
        return {"build": built}


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions wherever a layer module binds them."""
    modules = [importlib.import_module(f"whprecode.{name}") for name in LAYERS]
    wrapped = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if home not in LAYERS:
                continue  # linalg and errors are leaf helpers without spans
            name = f"{home}.{obj.__name__}"
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(name, obj, _ATTRS.get(name))
            setattr(module, attr, wrapped[obj])

    cli = importlib.import_module("whprecode.cli")
    renderers = cli._RENDERERS
    for fmt, fn in list(renderers.items()):
        renderers[fmt] = tracer.wrap("cli.render", fn)

    wssus = importlib.import_module("whprecode.wssus")
    bloch = importlib.import_module("whprecode.bloch")
    cls = wssus.ScatteringFunction
    cls.__post_init__ = tracer.wrap("wssus.ScatteringFunction.init", cls.__post_init__)
    cls.kraus_operators = tracer.wrap(
        "wssus.kraus_operators", cls.kraus_operators, tracer._kraus_attrs
    )
    quad = bloch.ScatteringQuad
    quad.__post_init__ = tracer.wrap("bloch.ScatteringQuad.init", quad.__post_init__)


# ---------------------------------------------------------------------------
# Per-layer metrics (computed by run.py from the recorded spans).

SWEEP_L = (2, 4, 8, 16, 32)
SWEEP_STAGES = (
    ("wssus.apply_A", "us"),
    ("wssus.apply_adjoint_A", "us"),
    ("wssus.apply_interference", "us"),
    ("wssus.kraus_operators", "ms"),
    ("heisenberg.shift_operator", "us"),
)

# (metric name, unit, better)
PER_LAYER = [
    ("cli.parse_config.self_ms", "ms", "lower"),
    ("cli.dispatch.self_ms", "ms", "lower"),
    ("cli.render.self_ms", "ms", "lower"),
    ("cli.rejected", "count", "higher"),
    ("bloch.solve_fidelity.self_us", "us", "lower"),
    ("bloch.classify_channel.self_us", "us", "lower"),
    ("multiplex.select_schemes.self_us", "us", "lower"),
    ("multiplex.best_scheme.self_us", "us", "lower"),
    ("wssus.ScatteringFunction.init_us", "us", "lower"),
    ("wssus.channel_fidelity.self_us", "us", "lower"),
    ("wssus.apply_interference.self_us", "us", "lower"),
    ("wssus.kraus_operators.ms", "ms", "lower"),
    ("mc.estimate_expectations.self_ms", "ms", "lower"),
    ("mc.estimate_expectations.fixed_ms", "ms", "lower"),
    ("mc.estimate_expectations.ns_per_trial", "ns", "lower"),
    ("optimize.brute_force_bloch_oracle.ns_per_sample", "ns", "lower"),
    ("optimize.alternating_fidelity_max.self_ms", "ms", "lower"),
    ("optimize.alternating_fidelity_max.half_steps", "count", "lower"),
    ("optimize.alternating_fidelity_max.ms_per_half_step", "ms", "lower"),
    ("optimize.alternating_fidelity_max.converged_frac", "1", "higher"),
    ("optimize.fidelity_lower_bound_search.us_per_sample", "us", "lower"),
    *[
        (f"{stage}.L{L}_{unit}", unit, "lower")
        for stage, unit in SWEEP_STAGES
        for L in SWEEP_L
    ],
    ("trace_overhead_frac", "1", "lower"),
]

_SCALE = {"ms": 1e-6, "us": 1e-3, "ns": 1.0}


def _span_table(chunks: list[list[list]]) -> dict[str, list[tuple[int, int, dict]]]:
    """name -> [(inclusive ns, self ns, attrs)] over the spans of every chunk."""
    table: dict[str, list] = {}
    for spans in chunks:
        child_ns = [0] * len(spans)
        for job, name, t0, t1, parent, attrs in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (job, name, t0, t1, parent, attrs) in enumerate(spans):
            if job < 0:
                continue  # hole probes run after the timed jobs
            table.setdefault(name, []).append((t1 - t0, t1 - t0 - child_ns[i], attrs or {}))
    return table


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _fit(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares (intercept, slope) of y against x; zeros without spread."""
    if len(points) < 2 or len({x for x, _ in points}) < 2:
        return 0.0, 0.0
    slope, intercept = statistics.linear_regression([x for x, _ in points], [y for _, y in points])
    return intercept, slope


def layer_metrics(chunks: list[list[list]]) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics of one traced run and the per-name call counts.

    A layer the workload never calls reports 0 for its metrics.
    """
    table = _span_table(chunks)
    m: dict[str, float] = {}

    def self_mean(name: str, unit: str) -> float:
        return _mean(s for _, s, _ in table.get(name, [])) * _SCALE[unit]

    m["cli.parse_config.self_ms"] = self_mean("cli.parse_config", "ms")
    m["cli.dispatch.self_ms"] = self_mean("cli.dispatch", "ms")
    m["cli.render.self_ms"] = self_mean("cli.render", "ms")
    for name in ("bloch.solve_fidelity", "bloch.classify_channel", "multiplex.select_schemes",
                 "multiplex.best_scheme", "wssus.channel_fidelity", "wssus.apply_interference"):
        m[f"{name}.self_us"] = self_mean(name, "us")
    m["wssus.ScatteringFunction.init_us"] = _mean(
        t for t, _, _ in table.get("wssus.ScatteringFunction.init", [])
    ) * _SCALE["us"]
    m["wssus.kraus_operators.ms"] = _mean(
        t for t, _, a in table.get("wssus.kraus_operators", []) if a.get("build")
    ) * _SCALE["ms"]

    mc = table.get("mc.estimate_expectations", [])
    m["mc.estimate_expectations.self_ms"] = self_mean("mc.estimate_expectations", "ms")
    fixed, per_trial = _fit([(a["n"], t) for t, _, a in mc])
    m["mc.estimate_expectations.fixed_ms"] = fixed * _SCALE["ms"]
    m["mc.estimate_expectations.ns_per_trial"] = per_trial

    oracle = table.get("optimize.brute_force_bloch_oracle", [])
    m["optimize.brute_force_bloch_oracle.ns_per_sample"] = _fit([(a["n"], t) for t, _, a in oracle])[1]

    alt = table.get("optimize.alternating_fidelity_max", [])
    half_steps = sum(a["half_steps"] for _, _, a in alt)
    m["optimize.alternating_fidelity_max.self_ms"] = self_mean("optimize.alternating_fidelity_max", "ms")
    m["optimize.alternating_fidelity_max.half_steps"] = half_steps
    m["optimize.alternating_fidelity_max.ms_per_half_step"] = (
        sum(t for t, _, _ in alt) * _SCALE["ms"] / half_steps if half_steps else 0.0
    )
    m["optimize.alternating_fidelity_max.converged_frac"] = _mean(
        1.0 if a["converged"] else 0.0 for _, _, a in alt
    )

    lower = table.get("optimize.fidelity_lower_bound_search", [])
    samples = sum(a["n"] for _, _, a in lower)
    m["optimize.fidelity_lower_bound_search.us_per_sample"] = (
        sum(t for t, _, _ in lower) * _SCALE["us"] / samples if samples else 0.0
    )
    calls = {
        name: {"calls": len(rows), "total_ms": sum(t for t, _, _ in rows) * 1e-6,
               "self_ms": sum(s for _, s, _ in rows) * 1e-6}
        for name, rows in sorted(table.items())
    }
    return m, calls
