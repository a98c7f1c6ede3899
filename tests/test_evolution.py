import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbs_qaoa.eigensolver import eigh
from gibbs_qaoa.evolution import (
    FUSED_MAX_SPINS,
    CircuitSimulator,
    CostKind,
    apply_diagonal_phase,
    apply_mixer,
    apply_sbo_phase,
    densified_mixer,
    hadamard_matrix,
    mixer_eigenvalues,
    plus_state,
    probabilities,
    run_circuit,
)
from gibbs_qaoa.ising import IsingInstance, energy_table, gibbs_amplitudes, toy_instance
from gibbs_qaoa.operators import build_sbo, densify, ising_diagonal, sbo_eigendecomposition
from gibbs_qaoa.variational import AngleSchedule, tqa_schedule

# objective of the unoptimized annealing ramp at p=10, frozen from an
# independent dense matrix-product simulation
TQA_P10_OBJECTIVE = 3.540405391219373
TQA_P10_PGS = 0.02319043539397997


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestPlusState:
    def test_single_spin(self):
        assert np.allclose(plus_state(1), [2 ** -0.5, 2 ** -0.5])

    def test_five_spins(self):
        psi = plus_state(5)
        assert psi.shape == (32,)
        assert np.allclose(psi, 32 ** -0.5)

    def test_uniform_probabilities(self):
        assert np.allclose(probabilities(plus_state(5)), 1 / 32)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            plus_state(0)


class TestDiagonalPhase:
    def test_zero_angle_is_identity(self):
        psi = plus_state(5)
        out = apply_diagonal_phase(psi, ising_diagonal(toy_instance()), 0.0)
        assert np.array_equal(out, psi)

    def test_pure_phase_on_basis_state(self):
        psi = np.zeros(32, dtype=complex)
        psi[13] = 1.0
        out = apply_diagonal_phase(psi, ising_diagonal(toy_instance()), 0.73)
        assert np.allclose(probabilities(out), probabilities(psi))

    def test_pi_angle_flips_odd_energy_amplitudes(self):
        inst = IsingInstance(n=2, couplings={(1, 2): 1.0})  # energies all odd
        op = ising_diagonal(inst)
        psi = plus_state(2)
        out = apply_diagonal_phase(psi, op, np.pi)
        signs = np.where(np.rint(op.diag).astype(int) % 2 == 0, 1.0, -1.0)
        assert np.allclose(out, psi * signs, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_diagonal_phase(plus_state(2), ising_diagonal(toy_instance()), 0.1)


class TestMixer:
    def test_zero_angle_is_identity(self):
        psi = random_state(np.random.default_rng(0), 8)
        assert np.allclose(apply_mixer(psi, 0.0), psi)

    def test_plus_state_is_eigenstate(self):
        psi = plus_state(1)
        out = apply_mixer(psi, 0.9)
        assert np.allclose(out, np.exp(-1j * 0.9) * psi)
        assert np.allclose(probabilities(out), probabilities(psi))

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            dense = densified_mixer(n)
            decomp = eigh(dense)
            for _ in range(10):
                beta = float(rng.uniform(-2, 2))
                psi = random_state(rng, 1 << n)
                expected = decomp.eigenvectors @ (
                    np.exp(-1j * beta * decomp.eigenvalues)
                    * (decomp.eigenvectors.T @ psi)
                )
                assert np.abs(apply_mixer(psi, beta) - expected).max() <= 1e-12

    def test_hadamard_diagonalization(self):
        for n in (1, 2, 3, 5):
            w = hadamard_matrix(n)
            d = mixer_eigenvalues(n)
            assert np.allclose(w @ np.diag(d) @ w, densified_mixer(n), atol=1e-12)


class TestSboPhase:
    def test_zero_angle_is_identity(self):
        eig = sbo_eigendecomposition(build_sbo(toy_instance(), 1.0))
        psi = random_state(np.random.default_rng(2), 32)
        assert np.abs(apply_sbo_phase(psi, eig, 0.0) - psi).max() <= 1e-12

    def test_kernel_state_probabilities_unchanged(self):
        inst = toy_instance()
        eig = sbo_eigendecomposition(build_sbo(inst, 1.0))
        psi = gibbs_amplitudes(inst, 1.0).astype(complex)
        out = apply_sbo_phase(psi, eig, 1.234)
        assert np.abs(probabilities(out) - probabilities(psi)).max() <= 1e-12

    def test_single_spin_hand_computation(self):
        # H = [[1,-1],[-1,1]]: exp(-i (pi/2) H)|up> = |down> up to phase
        op = build_sbo(IsingInstance(n=1), 1.0)
        eig = sbo_eigendecomposition(op)
        psi = np.array([0.0, 1.0], dtype=complex)
        out = apply_sbo_phase(psi, eig, np.pi / 2)
        assert np.allclose(probabilities(out), [1.0, 0.0], atol=1e-12)
        # direct 2x2 check at a generic angle
        gamma = 0.37
        lam, v = np.linalg.eigh(densify(op))
        expected = v @ np.diag(np.exp(-1j * gamma * lam)) @ v.conj().T @ psi
        got = apply_sbo_phase(psi, eig, gamma)
        assert np.abs(got - expected).max() <= 1e-12

    def test_unitarity(self):
        eig = sbo_eigendecomposition(build_sbo(toy_instance(), 0.5))
        psi = random_state(np.random.default_rng(3), 32)
        out = apply_sbo_phase(psi, eig, 2.5)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


class TestRunCircuit:
    def test_zero_angles_give_plus_state(self):
        sched = AngleSchedule(gamma=(0.0,), beta=(0.0,))
        psi = run_circuit(toy_instance(), CostKind.classical(), sched)
        assert np.allclose(psi, plus_state(5), atol=1e-14)

    def test_tqa_p10_matches_dense_oracle(self):
        sim = CircuitSimulator(toy_instance(), CostKind.classical())
        sched = tqa_schedule(10)
        assert sim.objective(sched) == pytest.approx(TQA_P10_OBJECTIVE, abs=1e-10)
        probs = sim.probabilities(sched)
        pgs = sum(probs[s] for s in (0, 3, 7, 24, 28, 31))
        assert pgs == pytest.approx(TQA_P10_PGS, abs=1e-10)

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    def test_norm_preserved_at_depth_100(self, kind):
        rng = np.random.default_rng(4)
        sched = AngleSchedule(
            gamma=tuple(rng.uniform(-2, 2, 100)), beta=tuple(rng.uniform(-2, 2, 100))
        )
        psi = run_circuit(toy_instance(), kind, sched)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-8

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(0.7)])
    def test_global_flip_symmetry(self, kind):
        rng = np.random.default_rng(5)
        sched = AngleSchedule(
            gamma=tuple(rng.uniform(-2, 2, 7)), beta=tuple(rng.uniform(-2, 2, 7))
        )
        probs = CircuitSimulator(toy_instance(), kind).probabilities(sched)
        flipped = probs[np.arange(32) ^ 31]
        assert np.abs(probs - flipped).max() <= 1e-10

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    def test_composition(self, kind):
        rng = np.random.default_rng(6)
        g = rng.uniform(-1, 1, 6)
        b = rng.uniform(-1, 1, 6)
        sim = CircuitSimulator(toy_instance(), kind)
        once = sim.run(AngleSchedule(gamma=tuple(g), beta=tuple(b)))
        first = sim.run(AngleSchedule(gamma=tuple(g[:3]), beta=tuple(b[:3])))
        # continue from `first` by applying the remaining layers manually
        second = first
        if kind.method == "classical":
            op = ising_diagonal(toy_instance())
            for gamma, beta in zip(g[3:], b[3:]):
                second = apply_mixer(apply_diagonal_phase(second, op, gamma), beta)
        else:
            for gamma, beta in zip(g[3:], b[3:]):
                second = apply_mixer(apply_sbo_phase(second, sim.eig, gamma), beta)
        assert np.abs(once - second).max() <= 1e-12

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    def test_fused_path_matches_primitives(self, kind):
        rng = np.random.default_rng(7)
        sched = AngleSchedule(
            gamma=tuple(rng.uniform(-2, 2, 5)), beta=tuple(rng.uniform(-2, 2, 5))
        )
        sim = CircuitSimulator(toy_instance(), kind)
        fused = sim.run(sched)
        primitive = sim._run_primitive(np.array(sched.gamma), np.array(sched.beta))
        assert np.abs(fused - primitive).max() <= 1e-12
        obj_direct = sim.objective(sched)
        if kind.method == "classical":
            obj_ref = float(np.sum(sim.cost_eigs * probabilities(primitive)))
        else:
            c = sim.eig.eigenvectors.T @ primitive
            obj_ref = float(np.sum(sim.cost_eigs * np.abs(c) ** 2))
        assert obj_direct == pytest.approx(obj_ref, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        sched = AngleSchedule(gamma=tuple(rng.uniform(-1, 1, 4)), beta=tuple(rng.uniform(-1, 1, 4)))
        probs = CircuitSimulator(toy_instance(), CostKind.sbo(2.0)).probabilities(sched)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_one_hot_distribution(self):
        psi = np.zeros(8, dtype=complex)
        psi[5] = 1.0
        probs = probabilities(psi)
        assert probs[5] == 1.0 and probs.sum() == 1.0


class TestCostKind:
    def test_sbo_requires_temperature(self):
        with pytest.raises(ValueError):
            CostKind(method="sbo")
        with pytest.raises(ValueError):
            CostKind.sbo(-1.0)

    def test_classical_takes_no_temperature(self):
        with pytest.raises(ValueError):
            CostKind(method="classical", temperature=1.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            CostKind(method="other")


@lru_cache(maxsize=None)
def dense_mixer_eigh(n):
    return np.linalg.eigh(densified_mixer(n))


def dense_reference(h_cost, n, gammas, betas):
    """Final state and objective from numpy.linalg.eigh of the dense operators."""
    wc, vc = np.linalg.eigh(h_cost)
    wm, vm = dense_mixer_eigh(n)
    psi = plus_state(n)
    for g, b in zip(gammas, betas):
        psi = vc @ (np.exp(-1j * g * wc) * (vc.T @ psi))
        psi = vm @ (np.exp(-1j * b * wm) * (vm.T @ psi))
    return psi, float(np.vdot(psi, h_cost @ psi).real)


# n runs across FUSED_MAX_SPINS, so both the dense-transform path and the
# butterfly path (with its real-matrix sbo phase) meet the reference.
@pytest.mark.parametrize("n", range(2, 11))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_fast_paths_match_dense_reference(n, data):
    assert 2 <= FUSED_MAX_SPINS < 10
    unit = st.sampled_from([-1.0, 0.0, 1.0])
    couplings = {}
    for pair in itertools.combinations(range(1, n + 1), 2):
        value = data.draw(unit)
        if value:
            couplings[pair] = value
    inst = IsingInstance(n=n, couplings=couplings,
                         fields=tuple(data.draw(unit) for _ in range(n)))
    if data.draw(st.booleans(), label="sbo"):
        kind = CostKind.sbo(data.draw(st.sampled_from([0.5, 1.0, 2.0])))
        h_cost = densify(build_sbo(inst, kind.temperature))
    else:
        kind = CostKind.classical()
        h_cost = np.diag(energy_table(inst))
    p = data.draw(st.integers(1, 6), label="p")
    angle = st.floats(-2.0, 2.0, allow_nan=False)
    gammas = np.array([data.draw(angle) for _ in range(p)])
    betas = np.array([data.draw(angle) for _ in range(p)])

    psi_ref, obj_ref = dense_reference(h_cost, n, gammas, betas)
    sim = CircuitSimulator(inst, kind)
    assert np.abs(sim.run_angles(gammas, betas) - psi_ref).max() <= 1e-10
    assert abs(sim.objective_angles(gammas, betas) - obj_ref) <= 1e-10
