import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gibbs_qaoa.evolution import CircuitSimulator, CostKind
from gibbs_qaoa.ising import (
    IsingInstance,
    gibbs_distribution,
    ground_set,
    toy_instance,
)
from gibbs_qaoa.metrics import (
    fairness_gap,
    ground_state_probability,
    orbit_probabilities,
    total_variation_distance,
)

GIBBS_PGS_T1 = 0.83591216711007
GIBBS_ORBIT_T1 = 0.27863738903669
TVD_UNIFORM_GIBBS_T1 = 0.64841216711007  # over levels (-4,-2,0,2,4) x (6,8,4,8,6)


@pytest.fixture(scope="module")
def toy_gs():
    return ground_set(toy_instance())


def one_hot(index, dim=32):
    d = np.zeros(dim)
    d[index] = 1.0
    return d


class TestGroundStateProbability:
    def test_uniform(self, toy_gs):
        assert ground_state_probability(np.full(32, 1 / 32), toy_gs) == pytest.approx(6 / 32)

    def test_gibbs(self, toy_gs):
        dist = gibbs_distribution(toy_instance(), 1.0).probabilities
        assert ground_state_probability(dist, toy_gs) == pytest.approx(GIBBS_PGS_T1, abs=1e-12)

    def test_one_hot_on_ground_state(self, toy_gs):
        assert ground_state_probability(one_hot(31), toy_gs) == 1.0


class TestOrbitProbabilities:
    def test_uniform(self, toy_gs):
        assert orbit_probabilities(np.full(32, 1 / 32), toy_gs) == pytest.approx(
            (1 / 16, 1 / 16, 1 / 16)
        )

    def test_gibbs_equal_by_degeneracy(self, toy_gs):
        dist = gibbs_distribution(toy_instance(), 1.0).probabilities
        probs = orbit_probabilities(dist, toy_gs)
        assert probs == pytest.approx((GIBBS_ORBIT_T1,) * 3, abs=1e-12)
        assert max(probs) - min(probs) <= 1e-15

    def test_one_hot_all_up(self, toy_gs):
        assert orbit_probabilities(one_hot(31), toy_gs) == (1.0, 0.0, 0.0)

    def test_requires_orbits(self):
        gs = ground_set(IsingInstance(n=1, fields=(1.0,)))
        with pytest.raises(ValueError):
            orbit_probabilities(np.array([0.5, 0.5]), gs)

    def test_orbit_sums_plus_rest_is_one(self, toy_gs):
        rng = np.random.default_rng(0)
        d = rng.random(32)
        d /= d.sum()
        probs = orbit_probabilities(d, toy_gs)
        non_ground = d.sum() - ground_state_probability(d, toy_gs)
        assert sum(probs) + non_ground == pytest.approx(1.0, abs=1e-12)


class TestTotalVariationDistance:
    def test_identical(self):
        d = np.full(32, 1 / 32)
        assert total_variation_distance(d, d) == 0.0

    def test_disjoint_one_hots(self):
        assert total_variation_distance(one_hot(3), one_hot(4)) == 1.0

    def test_uniform_vs_gibbs(self):
        dist = gibbs_distribution(toy_instance(), 1.0).probabilities
        assert total_variation_distance(np.full(32, 1 / 32), dist) == pytest.approx(
            TVD_UNIFORM_GIBBS_T1, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            total_variation_distance(np.ones(4) / 4, np.ones(8) / 8)


@st.composite
def distributions(draw, dim=16):
    raw = draw(
        hnp.arrays(
            np.float64,
            dim,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    total = raw.sum()
    if total == 0:
        return np.full(dim, 1.0 / dim)
    return raw / total


@settings(max_examples=60, deadline=None)
@given(distributions(), distributions(), distributions())
def test_tvd_symmetry_and_triangle(a, b, c):
    ab = total_variation_distance(a, b)
    ba = total_variation_distance(b, a)
    assert ab == ba
    assert 0.0 <= ab <= 1.0
    assert ab <= total_variation_distance(a, c) + total_variation_distance(c, b) + 1e-12


def test_tvd_of_disjoint_supports_is_exactly_one():
    # the summed differences round to 2 + 4.4e-16 here
    a = np.array([0.041, 0.732, 0, 0, 0, 0, 0]) / 0.773
    tail = np.array([0.614, 0.028, 0.719, 0.016, 0.758])
    b = np.concatenate([np.zeros(2), tail / tail.sum()])
    assert total_variation_distance(a, b) == 1.0
    assert total_variation_distance(b, a) == 1.0


def test_orbit_members_carry_equal_probability(toy_gs):
    # circuit outputs inherit the global flip symmetry exactly
    rng = np.random.default_rng(9)
    sched = rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6)
    for kind in (CostKind.classical(), CostKind.sbo(1.0)):
        probs = CircuitSimulator(toy_instance(), kind).probabilities(sched)
        for (a, b) in toy_gs.orbits:
            assert probs[a] == pytest.approx(probs[b], abs=1e-10)
            pair = orbit_probabilities(probs, toy_gs)[
                [o for o in toy_gs.orbits].index((a, b))
            ]
            assert pair == pytest.approx(2 * probs[a], abs=1e-10)


def test_fairness_report(toy_gs):
    dist = gibbs_distribution(toy_instance(), 1.0).probabilities
    p_gs = ground_state_probability(dist, toy_gs)
    orbit_probs = orbit_probabilities(dist, toy_gs)
    assert p_gs == pytest.approx(GIBBS_PGS_T1, abs=1e-12)
    assert sum(orbit_probs) == pytest.approx(p_gs, abs=1e-12)
    assert fairness_gap(orbit_probs) <= 1e-15
    assert total_variation_distance(dist, np.full(32, 1 / 32)) == pytest.approx(
        TVD_UNIFORM_GIBBS_T1, abs=1e-12)
    assert max(abs(p - p_gs / 3) for p in orbit_probs) <= 1e-15


def test_fairness_gap_convention():
    assert fairness_gap((0.5, 0.2, 0.3)) == pytest.approx(0.3)
