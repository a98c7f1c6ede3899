import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbs_qaoa.evolution import CostKind
from gibbs_qaoa.ising import IsingInstance, toy_instance
from gibbs_qaoa.operators import alpha
from gibbs_qaoa.powell import PowellOptions, powell_minimize
from gibbs_qaoa.variational import QaoaProblem, optimize_qaoa


def linearized(params, p):
    """(gammas, betas) of a linearized parameter vector at depth p, as tuples."""
    problem = QaoaProblem(toy_instance(), CostKind.classical(), "linearized", p)
    return tuple(map(tuple, problem._ramp(np.asarray(params))))


def battery(kind, inst=None):
    """The linearized starts of `kind` on `inst` (the toy by default)."""
    return QaoaProblem(inst or toy_instance(), kind, "linearized", 1).starts()


def scale(kind, inst):
    """The cost-angle scale of the first full-scheme start."""
    return QaoaProblem(inst, kind, "full", 1).starts()[0][0]


def annealing_ramp(p):
    """(gammas, betas) of the plain annealing ramp, the last full-scheme
    start at depth p, as tuples."""
    problem = QaoaProblem(toy_instance(), CostKind.classical(), "full", p)
    return tuple(map(tuple, problem.schedule(problem.starts()[-1])))


class TestSchedules:
    def test_tqa_p2(self):
        gamma, beta = annealing_ramp(2)
        assert gamma == (0.5, 1.0)
        assert beta == (0.5, 0.0)

    def test_tqa_p1(self):
        gamma, beta = annealing_ramp(1)
        assert gamma == (1.0,)
        assert beta == (0.0,)

    def test_linear_reproduces_tqa(self):
        gamma, beta = linearized([1.0, 0.0, -1.0, 1.0], 2)
        assert gamma == (0.5, 1.0)
        assert beta == (0.5, 0.0)

    def test_linear_constant(self):
        gamma, beta = linearized([0.0, 0.4, 0.0, -0.2], 3)
        assert gamma == (0.4, 0.4, 0.4)
        assert beta == (-0.2, -0.2, -0.2)

    def test_linear_ramp(self):
        gamma, _ = linearized([2.0, 1.0, 0.0, 0.0], 4)
        assert gamma == (1.5, 2.0, 2.5, 3.0)

    def test_init_equivalence_exact(self):
        for p in (1, 2, 5, 17, 100):
            # the battery's first start is the annealing ramp's image
            image = linearized(battery(CostKind.classical())[0], p)
            direct = annealing_ramp(p)
            assert image[0] == direct[0]
            assert image[1] == direct[1]

    def test_schedule_validation(self):
        sim = QaoaProblem(toy_instance(), CostKind.classical(), "full", 1).simulator
        with pytest.raises(ValueError):
            sim.run_angles([1.0], [])
        with pytest.raises(ValueError):
            QaoaProblem(toy_instance(), CostKind.classical(), "full", 0)

    def test_schedule_from_params(self):
        gammas, betas = QaoaProblem(toy_instance(), CostKind.classical(), "full", 2).schedule(
            [0.1, 0.2, 0.3, 0.4])
        assert tuple(gammas) == (0.1, 0.2)
        assert tuple(betas) == (0.3, 0.4)
        assert linearized([1.0, 0.0, -1.0, 1.0], 2) == annealing_ramp(2)
        # the linearized scheme runs Ramps: layer k = 0 .. p - 1 takes first + k step
        ramps = QaoaProblem(toy_instance(), CostKind.classical(), "linearized", 4).schedule(
            [2.0, 1.0, 0.0, -0.2])
        assert [(r.first, r.step, r.layers) for r in ramps] == [(1.5, 0.5, 4), (-0.2, 0.0, 4)]

    # On the toy (alpha = 4), T = 0.5, 1, 2 give the scales e^8, e^4 and e^2.
    @pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 15, 100])
    def test_full_scheme_starts_are_ramp_images(self, temperature, p):
        # The scaled start is the plain ramp with its cost angles scaled,
        # bit for bit, and both are ramp images under the linearized map.
        kind = CostKind.sbo(temperature)
        full = QaoaProblem(toy_instance(), kind, "full", p)
        kappa = np.exp(alpha(toy_instance()) / temperature)
        ramp = np.concatenate([np.arange(1, p + 1) / p, 1.0 - np.arange(1, p + 1) / p])
        scaled = np.concatenate([kappa * ramp[:p], ramp[p:]])
        assert np.array_equal(full.starts(), [scaled, ramp])
        lin = QaoaProblem(toy_instance(), kind, "linearized", p)
        for start, image in zip(full.starts(), [(kappa, 0.0, -1.0, 1.0), (1.0, 0.0, -1.0, 1.0)]):
            assert np.array_equal(np.concatenate(lin._ramp(np.array(image))), start)


class TestObjective:
    def test_plus_state_value(self):
        val = QaoaProblem(toy_instance(), CostKind.classical(), "full", 1).objective([0.0, 0.0])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_sbo_objective_bounded_below(self):
        rng = np.random.default_rng(0)
        problem = QaoaProblem(toy_instance(), CostKind.sbo(1.0), "full", 3)
        for _ in range(10):
            assert problem.objective(rng.uniform(-3, 3, 6)) >= -1e-10

    def test_wrong_length_rejected(self):
        problem = QaoaProblem(toy_instance(), CostKind.classical(), "full", 3)
        with pytest.raises(ValueError):
            problem.objective(np.zeros(5))
        lin = QaoaProblem(toy_instance(), CostKind.classical(), "linearized", 3)
        for params in (np.zeros(6), np.zeros((2, 3)), np.zeros((2, 5)), 0.0):
            with pytest.raises(ValueError, match="4 parameters"):
                lin.objective(params)
            with pytest.raises(ValueError, match="4 parameters"):
                lin.probabilities(params)

    def test_classical_phase_periodicity(self):
        # toy energies are integers: gamma -> gamma + 2 pi leaves the
        # distribution (hence the objective) unchanged
        problem = QaoaProblem(toy_instance(), CostKind.classical(), "full", 2)
        rng = np.random.default_rng(1)
        params = rng.uniform(-1, 1, 4)
        shifted = params.copy()
        shifted[0] += 2 * np.pi
        assert problem.objective(shifted) == pytest.approx(
            problem.objective(params), abs=1e-10
        )


# n runs across FUSED_MAX_SPINS on both sides of the even sector, so the
# batch meets the classical cost's transform and block mixer steps and the
# sbo cost's transform step, each in the full space and in the even sector.
@pytest.mark.parametrize("n", range(2, 11))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batched_objective_equals_rows(n, data):
    unit = st.sampled_from([-1.0, 0.0, 1.0])
    couplings = {pair: value for pair in itertools.combinations(range(1, n + 1), 2)
                 if (value := data.draw(unit))}
    fields = (tuple(data.draw(unit) for _ in range(n))
              if data.draw(st.booleans(), label="fields") else ())
    inst = IsingInstance(n=n, couplings=couplings, fields=fields)
    kind = (CostKind.sbo(data.draw(st.sampled_from([0.5, 1.0, 2.0])))
            if data.draw(st.booleans(), label="sbo") else CostKind.classical())
    scheme = data.draw(st.sampled_from(["full", "linearized"]))
    p = data.draw(st.integers(1, 5), label="p")
    k = data.draw(st.sampled_from([1, 2, 5]), label="K")
    problem = QaoaProblem(inst, kind, scheme, p)
    dims = 2 * p if scheme == "full" else 4
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    params = np.random.default_rng(seed).uniform(-2.0, 2.0, (k, dims))
    values = problem.objective(params)
    assert values.shape == (k,)
    assert list(values) == [problem.objective(x) for x in params]


class TestOptimizeQaoa:
    def test_descent_and_psd_floor(self):
        out = optimize_qaoa(toy_instance(), CostKind.sbo(1.0), "linearized", 2)
        values = [v for _, v in out.result.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert out.result.best_value >= -1e-10
        assert abs(out.distribution.sum() - 1.0) <= 1e-12

    def test_scheme_nesting(self):
        # warm-starting the full scheme from the linearized optimum can
        # only improve the objective
        inst = toy_instance()
        kind = CostKind.classical()
        lin = optimize_qaoa(inst, kind, "linearized", 3)
        schedule = QaoaProblem(inst, kind, "linearized", 3)._ramp(lin.result.best_params)
        problem = QaoaProblem(inst, kind, "full", 3)
        warm = powell_minimize(problem.objective, np.concatenate(schedule)[None], PowellOptions())
        assert warm.best_value <= lin.result.best_value + 1e-9

    @pytest.mark.parametrize("scheme", ["full", "linearized"])
    def test_distribution_comes_from_the_objective_propagation(self, scheme):
        # A linearized record's objective and distribution both come from
        # the Ramps; they agree with the angle path to rounding.
        inst, kind = toy_instance(), CostKind.sbo(1.0)
        out = optimize_qaoa(inst, kind, scheme, 3, options=PowellOptions(max_evaluations=60))
        problem = QaoaProblem(inst, kind, scheme, 3)
        best = out.result.best_params
        assert problem.objective(best) == out.result.best_value
        assert np.array_equal(problem.probabilities(best), out.distribution)
        angles = problem.schedule(best) if scheme == "full" else problem._ramp(best)
        by_angles = problem.simulator.probabilities(angles)
        assert np.abs(out.distribution - by_angles).max() <= 1e-12

    def test_full_battery_is_single_start(self):
        out = optimize_qaoa(toy_instance(), CostKind.classical(), "full", 2)
        assert out.n_starts == 1

    def test_sbo_full_tries_scaled_then_plain_ramp(self):
        # the scaled ramp reaches the Gibbs target at depth, but at p = 1 the
        # plain ramp finds the lower objective; keeping both loses neither
        inst = toy_instance()
        kind = CostKind.sbo(0.5)
        out = optimize_qaoa(inst, kind, "full", 1)
        assert out.n_starts == 2
        problem = QaoaProblem(inst, kind, "full", 1)
        plain = powell_minimize(problem.objective, problem.starts()[-1:])
        assert out.result.best_value <= plain.best_value
        assert scale(kind, inst) == pytest.approx(np.exp(8.0))

    def test_linearized_battery_deterministic(self):
        # the toy has alpha = 4, so kappa_max = e^4 at T = 1
        starts = battery(CostKind.sbo(1.0))
        assert np.array_equal(starts, battery(CostKind.sbo(1.0)))
        assert np.array_equal(starts[0], [1.0, 0.0, -1.0, 1.0])
        assert set(starts[:, 0]) == {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}
        assert starts.shape == (24, 4)

    def test_classical_battery_is_small(self):
        starts = battery(CostKind.classical())
        assert len(starts) == 4
        assert all(starts[:, 0] == 1.0)

    @pytest.mark.parametrize("scheme", ["full", "linearized"])
    def test_starts_match_standalone_runs(self, scheme):
        # The lockstep batch changes no start's path: each start's record
        # equals a run of that start alone (a batch of one), bit for bit.
        inst, kind, p = toy_instance(), CostKind.sbo(0.5), 3
        opts = PowellOptions(max_evaluations=300)
        out = optimize_qaoa(inst, kind, scheme, p, options=opts)
        problem = QaoaProblem(inst, kind, scheme, p)
        if scheme == "full":
            ramp = problem.starts()[-1]
            scaled = np.concatenate([scale(kind, inst) * ramp[:p], ramp[p:]])
            starts = [scaled, ramp]
        else:
            starts = battery(kind, inst)
        assert out.n_starts == len(starts)
        for x0, got in zip(starts, out.result.starts):
            want = powell_minimize(problem.objective, np.array([x0]), opts)
            assert np.array_equal(got.best_params, want.best_params)
            assert got.best_value == want.best_value
            assert got.n_evaluations == want.n_evaluations
            assert got.trace == want.trace and got.stop == want.stop
        assert out.result.best_value == min(r.best_value for r in out.result.starts)
        assert out.result.best_value == out.result.starts[out.result.winner].best_value
        assert out.result.n_evaluations == out.result.starts[out.result.winner].n_evaluations
        assert out.total_evaluations == sum(r.n_evaluations for r in out.result.starts)

    def test_time_budget_truncates_battery(self):
        # The starts run in lockstep, so one deadline cuts every start of the
        # battery short together (each needs hundreds of rounds to converge).
        args = (toy_instance(), CostKind.sbo(1.0), "linearized", 2)
        out = optimize_qaoa(*args, time_budget=0.01)
        assert out.n_starts == 24
        assert [r.stop for r in out.result.starts] == ["time_budget"] * 24
        assert out.total_evaluations < optimize_qaoa(*args).total_evaluations
        assert np.isfinite(out.result.best_value)
