"""Every call shape the benchmark (bench/workloads.py, bench/run.py and
bench/spans.py) makes into the package.

The benchmark lies outside these tests, so without this file a rename there
would show up only as a failed benchmark run.
"""

import csv
import inspect
import json

import numpy as np
import pytest

import gibbs_qaoa as gq
import gibbs_qaoa.harness  # noqa: F401 - the package does not import it itself

P = 100


def angles(rng, count):
    """`count` full-scheme parameter vectors (gammas then betas) at depth P."""
    return np.concatenate(
        [rng.uniform(0.0, 1.0, (count, P)), rng.uniform(0.0, np.pi / 2, (count, P))], axis=1)


@pytest.mark.parametrize("kind", [gq.CostKind.classical(), gq.CostKind.sbo(1.0)])
def test_problem_and_simulator(kind):
    inst = gq.toy_instance()
    problem = gq.variational.QaoaProblem(inst, kind, "full", P)
    x = angles(np.random.default_rng(0), 3)
    values = problem.objective(x)
    assert values.shape == (3,)
    assert problem.objective(x[0]) == values[0]
    # the benchmark's probe shape against a one-start round
    assert problem.objective(x[:1])[0] == problem.objective(x[0])
    psi = problem.simulator.run_angles(x[0][:P], x[0][P:])
    assert psi.shape == (inst.dim,)
    dist = problem.simulator.probabilities(problem.schedule(x[0]))
    assert abs(float(dist.sum()) - 1.0) <= 1e-12
    assert np.allclose(dist, np.abs(psi) ** 2, atol=1e-14)
    eig = problem.simulator.eig
    if kind.temperature is None:
        assert eig is None
    else:
        lowest = eig.eigenvalues <= eig.eigenvalues[0] + 1e-10
        ground = gq.gibbs_amplitudes(inst, kind.temperature)
        assert np.linalg.norm(eig.eigenvectors[:, lowest].T @ ground) == pytest.approx(1.0)


def test_objective_passes_angles_positionally(monkeypatch):
    # The evolution.objective span counts layers as len(args[1]).
    calls = []
    original = gq.evolution.CircuitSimulator.objective_angles

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(gq.evolution.CircuitSimulator, "objective_angles", recording)
    for scheme, p, params in (("full", 2, [0.1, 0.2, 0.3, 0.4]),
                              ("linearized", 5, [0.1, 0.2, 0.3, 0.4])):
        problem = gq.variational.QaoaProblem(gq.toy_instance(), gq.CostKind.classical(), scheme, p)
        problem.objective(params)
        [(args, kwargs)] = calls
        assert len(args[1]) == p and not kwargs
        calls.clear()


def test_optimizer_results():
    inst = gq.IsingInstance(n=3, couplings={(1, 2): 1.0, (2, 3): -1.0})
    out = gq.optimize_qaoa(inst, gq.CostKind.sbo(1.0), "linearized", 2,
                           options=gq.PowellOptions(max_evaluations=30))
    assert out.n_starts == len(out.result.starts) > 1
    assert out.total_evaluations == sum(r.n_evaluations for r in out.result.starts)
    assert 0 < out.result.n_evaluations <= out.total_evaluations


def test_sweep_through_the_harness(monkeypatch, tmp_path):
    harness = gq.harness
    cfg = harness.SweepConfig(
        instance=gq.toy_instance(), depths=(1,), temperatures=(0.5, 1.0),
        optimizer=gq.PowellOptions(max_evaluations=20), point_budget_s=None, workers=1,
    )
    points = harness.grid_points(cfg)
    # The bench times each point by replacing run_point in the module.
    seen = []
    original = harness.run_point

    def run_point(cfg_, point):
        seen.append(point)
        return original(cfg_, point)

    monkeypatch.setattr(harness, "run_point", run_point)
    records, failures = harness.run_sweep(cfg)
    assert seen == points and len(records) == len(points) and failures == []
    for r in records:
        assert r.method in ("qaoa", "sbo") and r.scheme in ("full", "linearized") and r.p == 1
        assert sum(r.orbit_probs) == pytest.approx(r.p_gs)
        assert (r.tvd is None) == (r.temperature is None)
        assert r.n_evaluations > 0 and isinstance(r.converged, bool)

    harness.emit_csv(records, tmp_path / "sweep.csv")
    harness.emit_json(records, tmp_path / "sweep.json")
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    items = json.loads((tmp_path / "sweep.json").read_text())
    assert [int(row["n_eval"]) for row in rows] == [r.n_evaluations for r in records]
    assert [item["p_gs"] for item in items] == [r.p_gs for r in records]
    for figure, panels in (("fig2", harness.FIG2_PANELS), ("fig3", harness.FIG3_PANELS)):
        paths = harness.emit_fig_data(records, figure, tmp_path, True)
        assert len(paths) == 2 * len(panels)
        assert all((tmp_path / f"{figure}{panel[0]}.svg").exists() for panel in panels)
    assert harness.FIG2_SBO_TEMPERATURE == 1.0


# Attributes spans.targets replaces on their owner, looked up in its __dict__.
WRAPPED = [
    ("harness", "run_sweep"), ("harness", "run_point"), ("harness", "emit_csv"),
    ("harness", "emit_json"), ("harness", "emit_fig_data"),
    ("evolution.CircuitSimulator", "__init__"),
    ("evolution.CircuitSimulator", "objective_angles"),
    ("evolution.CircuitSimulator", "run_angles"),
    ("variational.QaoaProblem", "__init__"), ("variational.QaoaProblem", "objective"),
]


@pytest.mark.parametrize("owner, attr", WRAPPED)
def test_wrapped_attributes(owner, attr):
    obj = gq
    for part in owner.split("."):
        obj = getattr(obj, part)
    assert inspect.isfunction(vars(obj)[attr])


# Functions one layer imports from another by name, where spans.targets
# wraps them; the workloads' must-fire lists name the spans.
IMPORTED = [
    ("harness", "optimize_qaoa", "variational"),
    ("harness", "ground_set", "ising"),
    ("harness", "gibbs_distribution", "ising"),
    ("harness", "total_variation_distance", "metrics"),
    ("harness", "ground_state_probability", "metrics"),
    ("variational", "powell_minimize", "powell"),
    ("variational", "alpha", "operators"),
    ("evolution", "build_sbo", "operators"),
    ("evolution", "sbo_eigendecomposition", "operators"),
    ("evolution", "energy_table", "ising"),
    ("operators", "eigh", "eigensolver"),
]


@pytest.mark.parametrize("importer, name, home", IMPORTED)
def test_layer_imports_by_name(importer, name, home):
    fn = vars(getattr(gq, importer))[name]
    assert inspect.isfunction(fn) and fn.__module__ == f"gibbs_qaoa.{home}"
