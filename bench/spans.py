"""Outside-in tracing: spans around the calls between gibbs_qaoa's layers.

The package's modules import each other's functions by name, so a function
is wrapped in the namespace where its caller looks it up (for example
`operators.eigh` or `variational.powell_minimize`), not where it is defined.
Spans are aggregated in memory per name: call count, inclusive time, self
time (inclusive time minus the time of child spans) and per-call notes such
as the matrix dimension of an eigendecomposition.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import dataclass, field
from statistics import median

LAYERS = (
    "ising", "operators", "eigensolver", "evolution",
    "powell", "variational", "metrics", "harness",
)

# Which end-to-end metric each per-layer metric should move, per workload.
MOVES = {
    "eigensolver.eigh.*": {"toy-sweep": ["build_rel", "wall_rel"], "qaoa-prop-n14": []},
    "evolution.objective.*, evolution.layer_us": {
        "qaoa-prop-n14": ["eval_rel", "eval_ms_tail", "wall_rel"],
        "toy-sweep": ["eval_rel", "wall_rel"],
    },
    "evolution.build.self_s": {"*": ["build_rel", "peak_rss_mb"]},
    "evolution.run.self_s": {"toy-sweep": ["wall_rel"]},
    "powell.*": {"toy-sweep": ["wall_rel", "tvd_mean", "pgs_min"]},
    "variational.*": {"toy-sweep": ["wall_rel"]},
    "operators.build_sbo.self_s, ising.self_s, metrics.self_s, harness.*": {
        "toy-sweep": ["wall_rel", "setup_s"],
    },
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    notes: dict[str, list[float]] = field(default_factory=dict)


class Tracer:
    """Span stack plus per-name aggregates; one per traced repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child time]
        self.stats: dict[str, SpanStats] = {}
        self.root_s = 0.0  # time covered by spans without a parent

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> SpanStats:
        name, start, child_s = self.stack.pop()
        dur = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s
        st.durations.append(dur)
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.root_s += dur
        return st

    def wrap(self, fn, name: str, note=None):
        """`fn` recording a span `name`; `note(args, kwargs, result)` may
        return numbers to keep per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = self.exit()
            if note is not None:
                for key, value in note(args, kwargs, result).items():
                    st.notes.setdefault(key, []).append(value)
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(st.self_s for name, st in self.stats.items()
                   if name.split(".", 1)[0] == layer)


def _emitted_bytes(args, kwargs, result):
    paths = result if isinstance(result, list) else [args[1]]
    return {"bytes": float(sum(os.path.getsize(p) for p in paths))}


NOTES = {
    "eigensolver.eigh": lambda a, k, r: {"dim": float(a[0].shape[0])},
    "evolution.objective": lambda a, k, r: {"layers": float(len(a[1]))},
    "powell.powell_minimize": lambda a, k, r: {
        "evals": float(r.n_evaluations), "converged": float(r.converged)},
    "variational.optimize_qaoa": lambda a, k, r: {
        "starts": float(r.n_starts), "evals": float(r.total_evaluations),
        "winning_evals": float(r.result.n_evaluations)},
    "harness.emit": _emitted_bytes,
}


def targets(gq):
    """(owner, attribute, span name) for every wrapped callable.

    Every function a layer module imports from another layer module is
    wrapped in the importer's namespace; the harness entry points and the
    simulator/problem methods are listed explicitly.
    """
    modules = {layer: getattr(gq, layer) for layer in LAYERS}
    by_module = {m.__name__: layer for layer, m in modules.items()}
    out = []
    for module in modules.values():
        for attr, obj in sorted(vars(module).items()):
            home = by_module.get(getattr(obj, "__module__", None))
            if inspect.isfunction(obj) and home and obj.__module__ != module.__name__:
                out.append((module, attr, f"{home}.{obj.__name__}"))
    harness, evolution, variational = gq.harness, gq.evolution, gq.variational
    out += [
        (harness, "run_sweep", "harness.run_sweep"),
        (harness, "run_point", "harness.run_point"),
        (harness, "emit_csv", "harness.emit"),
        (harness, "emit_json", "harness.emit"),
        (harness, "emit_fig_data", "harness.emit"),
        (evolution.CircuitSimulator, "__init__", "evolution.build"),
        (evolution.CircuitSimulator, "objective_angles", "evolution.objective"),
        (evolution.CircuitSimulator, "run_angles", "evolution.run"),
        (variational.QaoaProblem, "__init__", "variational.problem"),
        (variational.QaoaProblem, "objective", "variational.objective"),
    ]
    return out


class Instrumented:
    """Context manager installing a tracer's wrappers and restoring them."""

    def __init__(self, gq, tracer: Tracer):
        self.tracer = tracer
        self.plan = targets(gq)
        self.saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        for owner, attr, name in self.plan:
            original = owner.__dict__.get(attr)
            if original is None:  # gone from the program; its must-fire check reports it
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(original, name, NOTES.get(name)))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


PER_LAYER_UNITS = {
    "eigensolver.eigh.calls": "count",
    "eigensolver.eigh.self_s": "s",
    "eigensolver.eigh.ms_p50": "ms",
    "eigensolver.eigh.dim": "count",
    "evolution.objective.calls": "count",
    "evolution.objective.self_s": "s",
    "evolution.layer_us": "us",
    "evolution.build.self_s": "s",
    "evolution.run.self_s": "s",
    "powell.calls": "count",
    "powell.self_s": "s",
    "powell.self_us_per_eval": "us",
    "powell.evals": "count",
    "powell.converged_frac": "fraction",
    "variational.optimize.self_s": "s",
    "variational.starts": "count",
    "variational.winning_eval_frac": "fraction",
    "operators.build_sbo.self_s": "s",
    "ising.self_s": "s",
    "metrics.self_s": "s",
    "harness.run_point.self_s": "s",
    "harness.emit.self_s": "s",
    "harness.emit.bytes": "bytes",
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
    "trace.uncovered_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[Tracer], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics per traced repetition (totals divided by their count)."""
    reps = len(tracers)

    def span(name) -> SpanStats:
        merged = SpanStats()
        for tr in tracers:
            st = tr.stats.get(name)
            if st is None:
                continue
            merged.calls += st.calls
            merged.total_s += st.total_s
            merged.self_s += st.self_s
            merged.durations += st.durations
            for key, values in st.notes.items():
                merged.notes.setdefault(key, []).extend(values)
        return merged

    def note_sum(st: SpanStats, key: str) -> float:
        return float(sum(st.notes.get(key, ())))

    eigh = span("eigensolver.eigh")
    objective = span("evolution.objective")
    powell = span("powell.powell_minimize")
    optimize = span("variational.optimize_qaoa")
    emit = span("harness.emit")
    wall = sum(traced_walls)
    layer_self = {layer: sum(tr.layer_self_s(layer) for tr in tracers) for layer in LAYERS}

    m = {
        "eigensolver.eigh.calls": eigh.calls / reps,
        "eigensolver.eigh.self_s": eigh.self_s / reps,
        "eigensolver.eigh.ms_p50": 1e3 * median(eigh.durations) if eigh.calls else 0.0,
        "eigensolver.eigh.dim": median(eigh.notes["dim"]) if eigh.calls else 0.0,
        "evolution.objective.calls": objective.calls / reps,
        "evolution.objective.self_s": objective.self_s / reps,
        "evolution.layer_us": 1e6 * _ratio(objective.self_s, note_sum(objective, "layers")),
        "evolution.build.self_s": span("evolution.build").self_s / reps,
        "evolution.run.self_s": span("evolution.run").self_s / reps,
        "powell.calls": powell.calls / reps,
        "powell.self_s": layer_self["powell"] / reps,
        "powell.self_us_per_eval": 1e6 * _ratio(layer_self["powell"], note_sum(powell, "evals")),
        "powell.evals": note_sum(powell, "evals") / reps,
        "powell.converged_frac": _ratio(note_sum(powell, "converged"), powell.calls),
        "variational.optimize.self_s": optimize.self_s / reps,
        "variational.starts": note_sum(optimize, "starts") / reps,
        "variational.winning_eval_frac": _ratio(
            note_sum(optimize, "winning_evals"), note_sum(optimize, "evals")),
        "operators.build_sbo.self_s": span("operators.build_sbo").self_s / reps,
        "ising.self_s": layer_self["ising"] / reps,
        "metrics.self_s": layer_self["metrics"] / reps,
        "harness.run_point.self_s": span("harness.run_point").self_s / reps,
        "harness.emit.self_s": emit.self_s / reps,
        "harness.emit.bytes": note_sum(emit, "bytes") / reps,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(layer_self[layer], wall)
    m["trace.overhead_frac"] = median(
        t / u for t, u in zip(traced_walls, untraced_walls)) - 1.0
    m["trace.uncovered_s"] = (wall - sum(tr.root_s for tr in tracers)) / reps
    return m
