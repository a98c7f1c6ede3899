"""The benchmark's workloads, each a closed loop of back-to-back calls
into gibbs_qaoa's public API from one process.

A workload makes all of its inputs from the seed when it is constructed
(that is part of set-up), then runs one fixed unit of work per repetition.
`run` is the timed part; `check` compares a repetition's outputs against
independent references and runs untimed, right after the repetition, so
that memory does not grow with the number of repetitions.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
import xml.etree.ElementTree as ET
from collections.abc import Callable
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import gibbs_qaoa as gq
import gibbs_qaoa.harness  # noqa: F401 - the package does not import it itself
import reference

P = 100  # circuit depth of every bench-timed objective evaluation
MAX_REPS = 96  # size of the per-seed input pools


@dataclass
class Rep:
    """One timed repetition: its samples and the outputs its check needs."""

    builds: list[float] = field(default_factory=list)  # seconds per problem build
    evals: list[float] = field(default_factory=list)  # seconds per objective call
    parts: dict = field(default_factory=dict)  # seconds per named part of the repetition
    part_yards: dict = field(default_factory=dict)  # median yardstick right after a part
    yardstick: Callable[[], object] | None = None  # timed after every build and objective
    # Seconds per yardstick, paired with builds and evals; not timed work.
    build_yards: list[float] = field(default_factory=list)
    eval_yards: list[float] = field(default_factory=list)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def yards_s(self) -> float:
        return sum(self.build_yards) + sum(self.eval_yards)

    def _measure_yardstick(self, into: list[float]) -> None:
        if self.yardstick is not None:
            t = time.perf_counter()
            self.yardstick()
            into.append(time.perf_counter() - t)

    def attempt(self, fn, *args):
        """Run one operation; an exception counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.errors.append(f"{getattr(fn, '__qualname__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def build(self, inst, kind):
        t = time.perf_counter()
        problem = self.attempt(gq.variational.QaoaProblem, inst, kind, "full", P)
        if problem is not None:
            self.builds.append(time.perf_counter() - t)
            self._measure_yardstick(self.build_yards)
        return problem

    def evaluate(self, problem, params) -> float | None:
        t = time.perf_counter()
        value = self.attempt(problem.objective, params)
        if value is not None:
            self.evals.append(time.perf_counter() - t)
            self._measure_yardstick(self.eval_yards)
        return value


def random_instance(rng, n: int):
    """Complete graph with couplings drawn uniformly from {-1, +1}."""
    couplings = {(i, j): float(rng.choice((-1.0, 1.0)))
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return gq.IsingInstance(n=n, couplings=couplings)


def random_angles(rng, count: int) -> np.ndarray:
    """`count` full-scheme parameter vectors (gammas then betas) at depth P."""
    return np.concatenate(
        [rng.uniform(0.0, 1.0, (count, P)), rng.uniform(0.0, np.pi / 2, (count, P))],
        axis=1)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


class Workload:
    name = ""
    min_reps = 3
    tail_samples = 0  # the tail is taken over this many first evaluation samples
    must_fire: tuple[str, ...] = ()
    yardsticks = True  # off in traced runs, where they would count as harness time

    def __init__(self, seed: int, scratch: str):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.scratch = scratch

    def run(self, k: int) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> list[str]:
        raise NotImplementedError

    def yardstick(self) -> None:
        """A fixed computation from reference.py, timed after each sample.

        It shares no code with gibbs_qaoa and does the same kind of work as
        the workload, so its time follows the host's speed at that moment
        and not the program's.
        """
        raise NotImplementedError

    def new_rep(self) -> Rep:
        return Rep(yardstick=self.yardstick if self.yardsticks else None)

    def quality(self) -> dict:
        """Quality reached, for workloads that optimize."""
        return {}

    def quality_errors(self) -> list[str]:
        return []


def relabel(inst, perm):
    """The same instance with spin i renamed perm[i-1] + 1."""
    couplings = {}
    for (i, j), v in inst.couplings.items():
        a, b = sorted((int(perm[i - 1]) + 1, int(perm[j - 1]) + 1))
        couplings[(a, b)] = v
    fields = [0.0] * inst.n
    for i, h in enumerate(inst.fields):
        fields[int(perm[i])] = h
    return gq.IsingInstance(n=inst.n, couplings=couplings, fields=tuple(fields))


class ToySweep(Workload):
    name = "toy-sweep"
    # Reduced grid: both methods and schemes, T in {0.5, 1, 2}, two depths,
    # capped only by evaluations per start (no wall-clock budget anywhere).
    depths = (5, 15)
    temperatures = (0.5, 1.0, 2.0)
    max_evaluations = 100
    probe_evals = 30  # sbo objective calls at p=100 per temperature, timed by the bench
    tail_samples = 200
    must_fire = (
        "harness.run_sweep", "harness.run_point", "harness.emit",
        "variational.optimize_qaoa", "powell.powell_minimize",
        "variational.problem", "variational.objective",
        "evolution.build", "evolution.objective", "evolution.run",
        "operators.build_sbo", "operators.sbo_eigendecomposition", "operators.alpha",
        "eigensolver.eigh",
        "ising.energy_table", "ising.ground_set", "ising.gibbs_distribution",
        "metrics.total_variation_distance", "metrics.ground_state_probability",
    )
    # Quality reached at this budget must not fall behind these limits; the
    # evaluation budget is fixed, so only the program can move them. Over all
    # 120 relabellings, tvd_mean lies in [0.386, 0.391] and pgs_min in
    # [0.337, 0.407]; the limits leave 10% on top of the worst.
    tvd_mean_max = 0.43
    pgs_min_min = 0.30

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        # The seed picks a relabelling of the spins: an isomorphic instance,
        # so the physics is fixed while the program sees different inputs.
        self.inst = relabel(gq.toy_instance(), self.rng.permutation(5))
        self.cfg = gq.harness.SweepConfig(
            instance=self.inst, depths=self.depths, temperatures=self.temperatures,
            optimizer=gq.PowellOptions(max_evaluations=self.max_evaluations),
            point_budget_s=None, workers=1,
        )
        self.kinds = [gq.CostKind.sbo(t) for t in self.temperatures]
        self.angles = [random_angles(self.rng, self.probe_evals) for _ in self.kinds]
        self.yard_cost = reference.sbo_dense(self.inst, self.temperatures[1])
        self.yard_angles = self.angles[1][0]
        self.first: dict | None = None  # repetition 0's outputs, to compare against

    def yardstick(self) -> None:
        reference.dense_final_state(self.yard_cost, self.yard_angles[:P], self.yard_angles[P:])

    def run(self, k: int) -> Rep:
        rep = self.new_rep()
        out_dir = os.path.join(self.scratch, f"rep{k}")
        harness = gq.harness
        problems = [rep.build(self.inst, kind) for kind in self.kinds]
        values = [[] for _ in self.kinds]
        # Probe objectives alternate between temperatures and run a few after
        # each grid point, so that they and their yardsticks sample the whole
        # repetition.
        pending = iter([(i, problems[i], x) for xs in zip(*self.angles)
                        for i, x in enumerate(xs) if problems[i] is not None])
        per_point = -(-len(self.kinds) * self.probe_evals // len(harness.grid_points(self.cfg)))

        def probe(count=None):
            for i, problem, x in itertools.islice(pending, count):
                values[i].append(rep.evaluate(problem, x))

        # Time each grid point where run_sweep looks run_point up, so that
        # wall_rel can take every point at its own median.
        original = harness.run_point

        def run_point(cfg, point):
            t = time.perf_counter()
            try:
                return original(cfg, point)
            finally:
                rep.parts[point] = time.perf_counter() - t
                start = len(rep.eval_yards)
                probe(per_point)
                if rep.eval_yards[start:]:
                    rep.part_yards[point] = median(rep.eval_yards[start:])

        harness.run_point = run_point
        try:
            records, failures = rep.attempt(harness.run_sweep, self.cfg) or ([], [])
        finally:
            harness.run_point = original
        probe()  # what is left if run_sweep did not reach every point
        if records or failures:  # one operation per point, not one per sweep
            rep.attempted += len(records) + len(failures) - 1
        rep.errors += [f"{f.point}: {f.error}" for f in failures]
        if records:
            os.makedirs(out_dir, exist_ok=True)
            rep.attempt(harness.emit_csv, records, os.path.join(out_dir, "sweep.csv"))
            rep.attempt(harness.emit_json, records, os.path.join(out_dir, "sweep.json"))
            rep.attempt(harness.emit_fig_data, records, "fig2", out_dir, True)
            rep.attempt(harness.emit_fig_data, records, "fig3", out_dir, True)
        rep.outputs = {"records": records, "out_dir": out_dir, "values": values}
        return rep

    def check(self, rep: Rep) -> list[str]:
        records, values = rep.outputs["records"], rep.outputs["values"]
        errs = []
        n_points = len(gq.harness.grid_points(self.cfg))
        if len(records) != n_points:
            return [f"sweep returned {len(records)} of {n_points} points"]
        for r in records:
            if not (-1e-12 <= r.p_gs <= 1 + 1e-12 and close(sum(r.orbit_probs), r.p_gs)):
                errs.append(f"{r.method}/{r.scheme}/p={r.p}: P_GS {r.p_gs} vs orbits {r.orbit_probs}")
            if r.tvd is not None and not 0.0 <= r.tvd <= 1.0:
                errs.append(f"{r.method}/{r.scheme}/p={r.p}: TVD {r.tvd} outside [0, 1]")
        errs += self._check_files(records, rep.outputs["out_dir"])
        counts = [r.n_evaluations for r in records]
        if self.first is None:
            self.first = {"records": records, "counts": counts, "values": values}
            errs += self._check_probe(values)
        else:
            if counts != self.first["counts"]:
                errs.append(f"evaluation counts differ between repetitions: "
                            f"{counts} vs {self.first['counts']}")
            if values != self.first["values"]:
                errs.append("probe objective values differ between repetitions")
        return errs

    def _check_probe(self, values) -> list[str]:
        """Probe outputs against dense exponentials from numpy.linalg.eigh."""
        errs = []
        for kind, angles, vals in zip(self.kinds, self.angles, values):
            t = kind.temperature
            cost = reference.sbo_dense(self.inst, t)
            problem = gq.variational.QaoaProblem(self.inst, kind, "full", P)
            # At low T the gap above the kernel can fall below machine
            # precision (numpy.linalg.eigh mixes those vectors too), so the
            # Gibbs amplitudes are checked against the numerically zero
            # eigenspace; with a resolvable gap that is the ground vector.
            eig = problem.simulator.eig
            lowest = eig.eigenvalues <= eig.eigenvalues[0] + 1e-10 * np.abs(eig.eigenvalues).max()
            ground = gq.gibbs_amplitudes(self.inst, t)
            overlap = float(np.linalg.norm(eig.eigenvectors[:, lowest].T @ ground))
            if not (close(overlap, 1.0, 1e-8) and abs(eig.eigenvalues[0]) <= 1e-10):
                errs.append(f"T={t}: lowest eigenvalue {eig.eigenvalues[0]!r}, Gibbs amplitudes "
                            f"{overlap!r} inside its eigenspace")
            for x, v in zip(angles, vals):
                psi = problem.simulator.run_angles(x[:P], x[P:])
                ref = reference.dense_final_state(cost, x[:P], x[P:])
                ref_value = float(np.real(np.vdot(ref, cost @ ref)))
                if np.abs(psi - ref).max() > 1e-9 or v is None or not close(v, ref_value):
                    errs.append(f"T={t}: final state or objective {v} disagrees with the "
                                f"dense exponential reference ({ref_value})")
            dist = problem.simulator.probabilities(problem.schedule(angles[0]))
            if not close(float(dist.sum()), 1.0, 1e-12):
                errs.append(f"T={t}: distribution sums to {dist.sum()!r}")
        return errs

    def _check_files(self, records, out_dir) -> list[str]:
        """The emitted CSV, JSON and figure files parse back to the records."""
        errs = []
        try:
            with open(os.path.join(out_dir, "sweep.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(out_dir, "sweep.json"), encoding="utf-8") as fh:
                items = json.load(fh)
            for r, row, item in zip(records, rows, items, strict=True):
                if int(row["n_eval"]) != r.n_evaluations or item["n_eval"] != r.n_evaluations:
                    errs.append(f"evaluation count of {r.method}/{r.scheme}/p={r.p} not written back")
                if not close(float(row["p_gs"]), r.p_gs) or item["p_gs"] != r.p_gs:
                    errs.append(f"P_GS of {r.method}/{r.scheme}/p={r.p} not written back")
            for panel, method, scheme in gq.harness.FIG2_PANELS:
                expect = {r.p: r.p_gs for r in records if r.method == method and r.scheme == scheme
                          and (method == "qaoa" or r.temperature == gq.harness.FIG2_SBO_TEMPERATURE)}
                table = np.loadtxt(os.path.join(out_dir, f"fig2{panel}.dat"), ndmin=2)
                for p, p1, p2, p3, pgs in table:
                    if not (close(p1 + p2 + p3, pgs) and close(pgs, expect[int(p)])):
                        errs.append(f"fig2{panel} row p={p:g} disagrees with the records")
                ET.parse(os.path.join(out_dir, f"fig2{panel}.svg"))
            for panel, scheme in gq.harness.FIG3_PANELS:
                expect = {(r.p, r.temperature): r.tvd for r in records
                          if r.method == "sbo" and r.scheme == scheme}
                table = np.loadtxt(os.path.join(out_dir, f"fig3{panel}.dat"), ndmin=2)
                for row in table:
                    for t, tvd in zip(self.temperatures, row[1:], strict=True):
                        if not close(tvd, expect[(int(row[0]), t)]):
                            errs.append(f"fig3{panel} p={row[0]:g} T={t} disagrees with the records")
                ET.parse(os.path.join(out_dir, f"fig3{panel}.svg"))
        except (OSError, ValueError, KeyError, ET.ParseError) as exc:
            errs.append(f"emitted files do not parse back: {type(exc).__name__}: {exc}")
        return errs

    def quality(self) -> dict:
        if self.first is None:
            return {}
        records = self.first["records"]
        tvds = [r.tvd for r in records if r.method == "sbo"]
        pgs = [r.p_gs for r in records if r.method == "qaoa"]
        return {
            "tvd_mean": float(np.mean(tvds)),
            "pgs_min": float(min(pgs)),
            "points": [
                {"method": r.method, "scheme": r.scheme, "T": r.temperature, "p": r.p,
                 "n_evaluations": r.n_evaluations,
                 "stop": "tolerance" if r.converged else "cap"}
                for r in records
            ],
        }

    def quality_errors(self) -> list[str]:
        q = self.quality()
        if not q:
            return []
        errs = []
        if not q["tvd_mean"] <= self.tvd_mean_max:
            errs.append(f"tvd_mean {q['tvd_mean']} above {self.tvd_mean_max}")
        if not q["pgs_min"] >= self.pgs_min_min:
            errs.append(f"pgs_min {q['pgs_min']} below {self.pgs_min_min}")
        return errs


class QaoaPropN14(Workload):
    name = "qaoa-prop-n14"
    n = 14
    evals_per_build = 4  # short repetitions: many samples per run
    yard_layers = 16  # depth of the tensordot propagation that is the yardstick
    check_every = 4  # one objective of every fourth repetition against the
    # tensordot reference, which costs about an evaluation
    tail_samples = 60
    must_fire = (
        "variational.problem", "evolution.build", "ising.energy_table",
        "variational.objective", "evolution.objective",
    )

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.instances = [random_instance(self.rng, self.n) for _ in range(MAX_REPS)]
        self.angles = [random_angles(self.rng, self.evals_per_build) for _ in range(MAX_REPS)]
        self.reps_checked = 0

    def yardstick(self) -> None:
        x, d = self.angles[0][0], self.yard_layers
        reference.tensordot_objective(self.instances[0], x[:d], x[P:P + d])

    def run(self, k: int) -> Rep:
        rep = self.new_rep()
        inst = self.instances[k]
        problem = rep.build(inst, gq.CostKind.classical())
        values = [] if problem is None else [rep.evaluate(problem, x) for x in self.angles[k]]
        rep.outputs = {"inst": inst, "angles": self.angles[k], "values": values}
        return rep

    def check(self, rep: Rep) -> list[str]:
        k, self.reps_checked = self.reps_checked, self.reps_checked + 1
        values = rep.outputs["values"]
        if not values or k % self.check_every:  # a failed build is counted already
            return []
        x, v = rep.outputs["angles"][0], values[0]
        ref = reference.tensordot_objective(rep.outputs["inst"], x[:P], x[P:])
        if v is None or not close(v, ref):
            return [f"objective {v} disagrees with the tensordot reference {ref}"]
        return []


WORKLOADS = {w.name: w for w in (ToySweep, QaoaPropN14)}
