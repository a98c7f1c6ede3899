import numpy as np
import pytest

from gibbs_qaoa.evolution import CostKind
from gibbs_qaoa.ising import toy_instance
from gibbs_qaoa.operators import alpha
from gibbs_qaoa.powell import PowellOptions, powell_minimize
from gibbs_qaoa.variational import (
    AngleSchedule,
    QaoaProblem,
    init_scale,
    linearized_init_battery,
    optimize_qaoa,
    tqa_schedule,
)


def linearized(params, p):
    """Schedule of a linearized parameter vector at depth p."""
    return QaoaProblem(toy_instance(), CostKind.classical(), "linearized", p).schedule(params)


class TestSchedules:
    def test_tqa_p2(self):
        s = tqa_schedule(2, 1.0)
        assert s.gamma == (0.5, 1.0)
        assert s.beta == (0.5, 0.0)

    def test_tqa_p1(self):
        s = tqa_schedule(1, 1.0)
        assert s.gamma == (1.0,)
        assert s.beta == (0.0,)

    def test_tqa_p4_dt2(self):
        s = tqa_schedule(4, 2.0)
        assert s.gamma == (0.5, 1.0, 1.5, 2.0)
        assert s.beta == (1.5, 1.0, 0.5, 0.0)

    def test_linear_reproduces_tqa(self):
        s = linearized([1.0, 0.0, -1.0, 1.0], 2)
        assert s.gamma == (0.5, 1.0)
        assert s.beta == (0.5, 0.0)

    def test_linear_constant(self):
        s = linearized([0.0, 0.4, 0.0, -0.2], 3)
        assert s.gamma == (0.4, 0.4, 0.4)
        assert s.beta == (-0.2, -0.2, -0.2)

    def test_linear_ramp(self):
        s = linearized([2.0, 1.0, 0.0, 0.0], 4)
        assert s.gamma == (1.5, 2.0, 2.5, 3.0)

    def test_init_equivalence_exact(self):
        for p in (1, 2, 5, 17, 100):
            for dt in (1.0, 0.5, 2.0):
                # the battery's first start is the annealing ramp's image
                image = linearized(linearized_init_battery(CostKind.classical(), dt)[0], p)
                direct = tqa_schedule(p, dt)
                assert image.gamma == direct.gamma
                assert image.beta == direct.beta

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AngleSchedule(gamma=(1.0,), beta=())
        with pytest.raises(ValueError):
            AngleSchedule(gamma=(), beta=())
        with pytest.raises(ValueError):
            tqa_schedule(0)
        with pytest.raises(ValueError):
            tqa_schedule(3, dt=0.0)
        with pytest.raises(ValueError):
            tqa_schedule(3, dt=float("nan"))

    def test_schedule_from_params(self):
        s = QaoaProblem(toy_instance(), CostKind.classical(), "full", 2).schedule(
            [0.1, 0.2, 0.3, 0.4])
        assert s.gamma == (0.1, 0.2)
        assert s.beta == (0.3, 0.4)
        lin = QaoaProblem(toy_instance(), CostKind.classical(), "linearized", 2)
        assert lin.schedule([1.0, 0.0, -1.0, 1.0]) == tqa_schedule(2)


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
        with pytest.raises(ValueError):
            lin.objective(np.zeros(6))

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
        problem = QaoaProblem(inst, kind, "full", 3)
        warm = powell_minimize(
            problem.objective, lin.schedule.to_params(), PowellOptions()
        )
        assert warm.best_value <= lin.result.best_value + 1e-9

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
        plain = powell_minimize(problem.objective, tqa_schedule(1).to_params())
        assert out.result.best_value <= plain.best_value
        assert init_scale(kind, alpha(inst)) == pytest.approx(np.exp(8.0))

    def test_linearized_battery_deterministic(self):
        battery = linearized_init_battery(CostKind.sbo(1.0), alpha_value=4.0)
        assert np.array_equal(
            battery, linearized_init_battery(CostKind.sbo(1.0), alpha_value=4.0))
        assert np.array_equal(battery[0], [1.0, 0.0, -1.0, 1.0])
        assert set(battery[:, 0]) == {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}
        assert battery.shape == (24, 4)

    def test_classical_battery_is_small(self):
        battery = linearized_init_battery(CostKind.classical())
        assert len(battery) == 4
        assert all(battery[:, 0] == 1.0)

    def test_restarts_are_deterministic(self):
        a = optimize_qaoa(toy_instance(), CostKind.classical(), "full", 1,
                          restarts=2, seed=3)
        b = optimize_qaoa(toy_instance(), CostKind.classical(), "full", 1,
                          restarts=2, seed=3)
        assert a.result.best_value == b.result.best_value
        assert a.n_starts == b.n_starts == 3

    def test_time_budget_truncates_battery(self):
        out = optimize_qaoa(
            toy_instance(), CostKind.sbo(1.0), "linearized", 2,
            options=PowellOptions(time_budget=0.05),
        )
        assert out.n_starts < 24
        assert np.isfinite(out.result.best_value)
