"""Experiment harness: sweep configuration, per-point runs, persistence,
and figure-data emission.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .evolution import CostKind
from .ising import IsingInstance, gibbs_distribution, ground_set
from .metrics import (
    fairness_gap,
    ground_state_probability,
    orbit_probabilities,
    total_variation_distance,
)
from .powell import PowellOptions
from .variational import SCHEMES, optimize_qaoa

DEFAULT_DEPTHS = (1, 2, 3, 5, 7, 10, 15, 22, 32, 46, 68, 100)
DEFAULT_TEMPERATURES = (0.5, 1.0, 2.0)
METHODS = ("qaoa", "sbo")

CSV_BASE_COLUMNS = (
    "method", "scheme", "p", "T", "objective", "p_gs",
    "p_orbit1", "p_orbit2", "p_orbit3", "fairness_gap", "tvd",
    "n_eval", "converged", "wall_time_s",
)


@dataclass(frozen=True)
class SweepConfig:
    instance: IsingInstance
    methods: tuple[str, ...] = METHODS
    schemes: tuple[str, ...] = SCHEMES
    depths: tuple[int, ...] = DEFAULT_DEPTHS
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES
    optimizer: PowellOptions = field(default_factory=PowellOptions)
    point_budget_s: float | None = None  # wall-clock safety net per point
    workers: int | None = None

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if not all(p >= 1 for p in self.depths):
            raise ValueError("depths must be >= 1")
        if list(self.depths) != sorted(set(self.depths)):
            raise ValueError("depths must be strictly increasing")
        if not all(t > 0 for t in self.temperatures):
            raise ValueError("temperatures must be positive")
        if self.point_budget_s is not None and not self.point_budget_s >= 0.0:
            raise ValueError(f"point budget must be >= 0 seconds, got {self.point_budget_s!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")


@dataclass(frozen=True)
class PointSpec:
    method: str
    scheme: str
    p: int
    temperature: float | None  # None for the classical method


@dataclass(frozen=True)
class SweepRecord:
    method: str
    scheme: str
    p: int
    temperature: float | None
    objective: float
    p_gs: float
    orbit_probs: tuple[float, ...]
    fairness_gap: float
    tvd: float | None                       # to Gibbs at this record's T (sbo)
    tvd_by_temperature: tuple[tuple[float, float], ...]  # classical rows: per configured T
    n_evaluations: int
    converged: bool
    wall_time_s: float


def grid_points(cfg: SweepConfig) -> list[PointSpec]:
    """Deterministic evaluation order: method, scheme, temperature, depth."""
    if not cfg.methods:
        raise ValueError("nothing to run: empty methods set")
    if not cfg.schemes:
        raise ValueError("nothing to run: empty schemes set")
    points = []
    for method in sorted(set(cfg.methods)):
        for scheme in sorted(set(cfg.schemes)):
            if method == "qaoa":
                for p in cfg.depths:
                    points.append(PointSpec("qaoa", scheme, p, None))
            else:
                for t in sorted(set(cfg.temperatures)):
                    for p in cfg.depths:
                        points.append(PointSpec("sbo", scheme, p, t))
    return points


def run_point(cfg: SweepConfig, point: PointSpec) -> SweepRecord:
    """Optimize one grid point and evaluate every metric on its output."""
    t0 = time.perf_counter()
    outcome = optimize_qaoa(
        cfg.instance, CostKind(point.temperature), point.scheme, point.p,
        options=cfg.optimizer, time_budget=cfg.point_budget_s,
    )
    gs = ground_set(cfg.instance)
    dist = outcome.distribution
    orbit_probs = orbit_probabilities(dist, gs) if gs.orbits is not None else ()
    if point.method == "sbo":
        reference = gibbs_distribution(cfg.instance, point.temperature).probabilities
        tvd = total_variation_distance(dist, reference)
        tvd_by_t: tuple[tuple[float, float], ...] = ()
    else:
        tvd = None
        tvd_by_t = tuple(
            (t, total_variation_distance(
                dist, gibbs_distribution(cfg.instance, t).probabilities))
            for t in sorted(set(cfg.temperatures))
        )
    return SweepRecord(
        method=point.method,
        scheme=point.scheme,
        p=point.p,
        temperature=point.temperature,
        objective=outcome.result.best_value,
        p_gs=ground_state_probability(dist, gs),
        orbit_probs=orbit_probs,
        fairness_gap=fairness_gap(orbit_probs) if orbit_probs else 0.0,
        tvd=tvd,
        tvd_by_temperature=tvd_by_t,
        n_evaluations=outcome.total_evaluations,
        converged=outcome.result.converged,
        wall_time_s=time.perf_counter() - t0,
    )


@dataclass
class SweepFailure:
    point: PointSpec
    error: str


def resolve_workers(requested: int | None) -> int:
    """Worker processes of a sweep: `requested`, or one per core."""
    return requested if requested is not None else os.cpu_count() or 1


def run_sweep(cfg: SweepConfig) -> tuple[list[SweepRecord], list[SweepFailure]]:
    """Evaluate every grid point; failures are collected, not fatal.

    Records come back in the deterministic grid order regardless of the
    concurrency degree.
    """
    points = grid_points(cfg)
    workers = resolve_workers(cfg.workers)
    records: dict[PointSpec, SweepRecord] = {}
    failures: list[SweepFailure] = []
    if workers <= 1 or len(points) == 1:
        for point in points:
            try:
                records[point] = run_point(cfg, point)
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                failures.append(SweepFailure(point, f"{type(exc).__name__}: {exc}"))
    else:
        # imported here: the pool module costs 12-19 ms, which a one-worker sweep never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(run_point, cfg, point): point for point in points}
            for future, point in futures.items():
                try:
                    records[point] = future.result()
                except Exception as exc:  # noqa: BLE001
                    failures.append(SweepFailure(point, f"{type(exc).__name__}: {exc}"))
    ordered = [records[point] for point in points if point in records]
    return ordered, failures


# --- serialization -----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12g}"


def emit_csv(records: list[SweepRecord], path) -> None:
    """One row per record: the `record_to_dict` values under CSV_BASE_COLUMNS,
    then every other key of the records (orbits past the third, the
    classical rows' distance per temperature) in first-seen order; a value
    a record lacks is a blank cell."""
    rows = [record_to_dict(r) for r in records]
    columns = list(dict.fromkeys([*CSV_BASE_COLUMNS, *(k for d in rows for k in d)]))
    lines = [",".join(columns)]
    for d in rows:
        lines.append(",".join(_fmt(d.get(c)) for c in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def record_to_dict(record: SweepRecord) -> dict:
    d = {
        "method": record.method,
        "scheme": record.scheme,
        "p": record.p,
        "T": record.temperature,
        "objective": record.objective,
        "p_gs": record.p_gs,
    }
    for i, v in enumerate(record.orbit_probs, start=1):
        d[f"p_orbit{i}"] = v
    d.update({
        "fairness_gap": record.fairness_gap,
        "tvd": record.tvd,
        "n_eval": record.n_evaluations,
        "converged": record.converged,
        "wall_time_s": record.wall_time_s,
    })
    for (t, v) in record.tvd_by_temperature:
        d[f"tvd_T{t!r}"] = v
    return d


def emit_json(records: list[SweepRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([record_to_dict(r) for r in records], fh, indent=1)
        fh.write("\n")


# --- figure data -------------------------------------------------------------

FIG2_PANELS = (
    ("a", "qaoa", "full"),
    ("b", "qaoa", "linearized"),
    ("c", "sbo", "full"),
    ("d", "sbo", "linearized"),
)
FIG2_SBO_TEMPERATURE = 1.0
FIG3_PANELS = (("a", "full"), ("b", "linearized"))


class MissingPanelData(ValueError):
    pass


def _fig2_rows(records, method, scheme):
    rows = []
    for r in records:
        if r.method != method or r.scheme != scheme:
            continue
        if method == "sbo" and r.temperature != FIG2_SBO_TEMPERATURE:
            continue
        if len(r.orbit_probs) != 3:
            raise MissingPanelData("ground-probability panels need exactly 3 orbits")
        rows.append((r.p, *r.orbit_probs, r.p_gs))
    rows.sort()
    return rows


def _fig3_rows(records, scheme, temps):
    by_p: dict[int, dict[float, float]] = {}
    for r in records:
        if r.method != "sbo" or r.scheme != scheme or r.tvd is None:
            continue
        by_p.setdefault(r.p, {})[r.temperature] = r.tvd
    rows = []
    for p in sorted(by_p):
        vals = by_p[p]
        if set(temps) - set(vals):
            raise MissingPanelData(
                f"depth {p}: missing temperatures {sorted(set(temps) - set(vals))}"
            )
        rows.append((p, *[vals[t] for t in temps]))
    return rows


def emit_fig_data(records: list[SweepRecord], figure: str, out_dir, svg: bool = False) -> list[str]:
    """Write one whitespace-separated data file per panel; returns the paths.

    figure "fig2": ground-manifold probabilities vs depth, panels (a)-(d).
    figure "fig3": distance to the target Gibbs distribution vs depth for
    each temperature, panels (a)-(b). With svg=True a simple poly-line plot
    accompanies each data file. Raises MissingPanelData, before writing
    any file, when the records cannot fill every panel.
    """
    panels = []  # (file stem, header, rows, series labels, title)
    if figure == "fig2":
        for panel, method, scheme in FIG2_PANELS:
            rows = _fig2_rows(records, method, scheme)
            if not rows:
                raise MissingPanelData(f"fig2({panel}): no records for {method}/{scheme}")
            panels.append((f"fig2{panel}", "# p P_1 P_2 P_3 P_GS", rows,
                           ["P_1", "P_2", "P_3", "P_GS"], f"fig2({panel}) {method} {scheme}"))
    elif figure == "fig3":
        temps = sorted({r.temperature for r in records
                        if r.method == "sbo" and r.tvd is not None})
        if not temps:
            raise MissingPanelData("no sbo records with a reference distance")
        for panel, scheme in FIG3_PANELS:
            rows = _fig3_rows(records, scheme, temps)
            if not rows:
                raise MissingPanelData(f"fig3({panel}): no records for sbo/{scheme}")
            panels.append((f"fig3{panel}", "# p " + " ".join(f"D_TVD_T{t!r}" for t in temps),
                           rows, [f"T={t!r}" for t in temps], f"fig3({panel}) sbo {scheme}"))
    else:
        raise ValueError(f"unknown figure {figure!r} (expected fig2 or fig3)")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for stem, header, rows, labels, title in panels:
        path = os.path.join(out_dir, f"{stem}.dat")
        _write_table(path, header, rows)
        paths.append(path)
        if svg:
            paths.append(_write_svg(os.path.join(out_dir, f"{stem}.svg"), rows, labels,
                                    title=title))
    return paths


def _write_table(path, header, rows) -> None:
    lines = [header]
    for row in rows:
        cells = [str(row[0])] + [f"{v:.12g}" for v in row[1:]]
        lines.append(" ".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_svg(path, rows, labels, title="") -> str:
    from .svgplot import line_plot

    xs = [row[0] for row in rows]
    series = [[row[1 + i] for row in rows] for i in range(len(labels))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line_plot(xs, series, labels, title=title))
    return path
