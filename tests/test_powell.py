import math

import numpy as np
import pytest

from gibbs_qaoa import powell
from gibbs_qaoa.powell import ObjectiveError, PowellOptions, _bracket, _brent, powell_minimize


def rosenbrock(v):
    x, y = v
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def drive(search, f):
    """Run a line-search generator to its end, evaluating each point with f."""
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


def rows(f):
    """Row-wise form of a one-point objective."""
    return lambda points: [f(x) for x in points]


class TestLineSearchPieces:
    def test_bracket_surrounds_a_minimum(self):
        f = lambda x: (x - 2.0) ** 2
        xa, xb, xc, fa, fb, fc = drive(_bracket(0.0, 0.1), f)
        assert xa < xb < xc or xc < xb < xa
        assert fb <= fa and fb <= fc
        assert min(xa, xc) <= 2.0 <= max(xa, xc)

    def test_bracket_reverses_direction(self):
        f = lambda x: (x + 3.0) ** 2
        xa, xb, xc, fa, fb, fc = drive(_bracket(0.0, 0.1), f)
        assert min(xa, xc) <= -3.0 <= max(xa, xc)

    def test_brent_refines_to_tolerance(self, monkeypatch):
        monkeypatch.setattr(powell, "XTOL", 1e-10)
        f = lambda x: np.cos(x)
        xa, xb, xc, fa, fb, fc = drive(_bracket(1.0, 1.1), f)
        x, fx = drive(_brent(xa, xb, xc, fb), f)
        assert x == pytest.approx(np.pi, abs=1e-6)
        assert fx == pytest.approx(-1.0, abs=1e-12)

    def test_abscissae_are_python_floats(self):
        # np.copysign would hand back np.float64 steps, and every later
        # step of the search would run on numpy scalars
        seen = []

        def f(x):
            seen.append(x)
            return math.cos(x)

        xa, xb, xc, fa, fb, fc = drive(_bracket(1.0, 1.1), f)
        drive(_brent(xa, xb, xc, fb), f)
        assert len(seen) > 10
        assert all(type(x) is float for x in seen)


class TestPowell:
    def test_quadratic(self):
        r = powell_minimize(rows(lambda v: (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 2),
                            np.array([[0.0, 0.0]]))
        assert r.converged
        assert np.abs(r.best_params - [1.0, -2.0]).max() <= 1e-8
        assert r.best_value <= 1e-8

    def test_rosenbrock(self):
        r = powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0]]))
        assert r.converged
        assert np.abs(r.best_params - [1.0, 1.0]).max() <= 1e-5

    def test_one_dimensional_cosine(self):
        r = powell_minimize(rows(lambda v: np.cos(v[0])), np.array([[1.0]]))
        assert r.best_params[0] == pytest.approx(np.pi, abs=1e-6)

    def test_trace_non_increasing_and_final(self):
        r = powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0]]))
        values = [v for _, v in r.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == r.best_value
        assert [i for i, _ in r.trace] == list(range(len(values)))

    def test_non_finite_objective_reports_point(self):
        def bad(v):
            return np.inf if v[0] > 0.5 else (v[0] - 1.0) ** 2

        with pytest.raises(ObjectiveError) as err:
            powell_minimize(rows(bad), np.array([[0.0]]))
        assert err.value.point.shape == (1,)

    def test_evaluation_cap(self):
        calls = 0

        def f(v):
            nonlocal calls
            calls += 1
            return float(np.sum(v * v))

        opts = PowellOptions(max_evaluations=50)
        r = powell_minimize(rows(f), np.ones((1, 30)), opts)
        assert not r.converged
        assert calls <= 50 + 40  # cap checked between line searches

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(powell, "MAX_ITERATIONS", 2)
        monkeypatch.setattr(powell, "FTOL", 0.0)
        r = powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0]]))
        assert not r.converged
        assert r.trace[-1][0] == 2

    def test_already_at_minimum(self):
        r = powell_minimize(rows(lambda v: float(np.sum(v * v))), np.array([[0.0, 0.0]]))
        assert r.converged
        assert r.best_value == 0.0

    def test_high_dimensional_quadratic(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=12)

        def f(v):
            return float(np.sum((v - target) ** 2))

        r = powell_minimize(rows(f), np.zeros((1, 12)))
        assert np.abs(r.best_params - target).max() <= 1e-7


class TestLockstep:
    @pytest.mark.parametrize("f", [rosenbrock, lambda v: (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 2])
    @pytest.mark.parametrize("cap", [200_000, 40])
    def test_each_start_matches_its_standalone_run(self, f, cap):
        # The first start begins at the quadratic's minimum and converges
        # within a few rounds; the others run longer, and under the small
        # cap some of them stop at it. Alone, a start runs as a batch of one.
        starts = np.array([[1.0, -2.0], [-1.2, 1.0], [2.0, 2.0], [0.3, -0.7], [-3.0, 4.0]])
        opts = PowellOptions(max_evaluations=cap)
        batch = powell_minimize(rows(f), starts, opts)
        alone = [powell_minimize(rows(f), x0[None], opts) for x0 in starts]
        assert len(batch.starts) == len(starts)
        for got, want in zip(batch.starts, alone):
            assert np.array_equal(got.best_params, want.best_params)
            assert got.best_value == want.best_value
            assert got.n_evaluations == want.n_evaluations
            assert got.trace == want.trace
            assert got.stop == want.stop
            assert got.converged == want.converged
        assert len({r.n_evaluations for r in alone}) > 1  # finished in different rounds
        if cap < 200_000:
            assert "max_evaluations" in {r.stop for r in alone}
        best = min(range(len(alone)), key=lambda i: alone[i].best_value)
        assert batch.winner == best
        assert batch.best_value == alone[best].best_value
        assert batch.n_evaluations == alone[best].n_evaluations

    def test_one_call_per_round_on_pending_points(self):
        sizes = []

        def f(points):
            sizes.append(points.shape)
            return [rosenbrock(x) for x in points]

        r = powell_minimize(f, np.array([[0.0, 0.0], [-1.2, 1.0], [2.0, 2.0]]))
        assert sizes[0] == (3, 2) and all(s[1] == 2 for s in sizes)
        assert [s[0] for s in sizes] == sorted((s[0] for s in sizes), reverse=True)
        # each start evaluates once per round until it finishes
        assert sum(s[0] for s in sizes) == sum(s.n_evaluations for s in r.starts)
        assert len(sizes) == max(s.n_evaluations for s in r.starts)

    def test_ties_go_to_the_earliest_start(self):
        r = powell_minimize(rows(rosenbrock), np.array([[0.5, 0.5], [-1.2, 1.0], [0.5, 0.5]]))
        assert r.starts[0].best_value == r.starts[2].best_value == r.best_value
        assert r.winner == 0

    def test_non_finite_value_names_its_row(self):
        def f(points):
            values = [(x[0] - 1.0) ** 2 for x in points]
            values[1] = np.nan  # the second pending point
            return values

        with pytest.raises(ObjectiveError) as err:
            powell_minimize(f, np.array([[0.0], [3.0], [5.0]]))
        assert np.array_equal(err.value.point, [3.0])
        assert np.isnan(err.value.value)

    def test_stop_reasons(self, monkeypatch):
        assert powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0]])).stop == "ftol"
        capped = powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0]]),
                                 PowellOptions(max_evaluations=30))
        assert capped.stop == "max_evaluations"
        with monkeypatch.context() as m:
            m.setattr(powell, "MAX_ITERATIONS", 2)
            m.setattr(powell, "FTOL", 0.0)
            cycles = powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0]]))
        assert cycles.stop == "max_iterations"
        late = powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0], [2.0, 2.0]]),
                               time_budget=0.0)
        assert [s.stop for s in late.starts] == ["time_budget"] * 2

    def test_cut_cycle_is_not_converged(self):
        # The cap cuts the first cycle after its first line search: the
        # second direction, where the minimum lies, was never searched.
        r = powell_minimize(rows(lambda v: (v[1] - 1) ** 2), np.array([[0.0, 0.0]]),
                           PowellOptions(max_evaluations=5))
        assert (r.best_value, r.n_evaluations) == (1.0, 40)
        assert r.stop == "max_evaluations"
        assert not r.converged

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match=str(cap)):
            PowellOptions(max_evaluations=cap)

    def test_fractional_cap_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            PowellOptions(max_evaluations=2.5)

    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_bad_time_budget_rejected(self, budget):
        with pytest.raises(ValueError, match=str(budget)):
            powell_minimize(rows(rosenbrock), np.array([[-1.2, 1.0]]), time_budget=budget)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], 0.5, [[[0.0]]], np.empty((0, 2))])
    def test_starts_must_be_rows(self, x0):
        with pytest.raises(ValueError, match="2-D"):
            powell_minimize(rows(rosenbrock), x0)
