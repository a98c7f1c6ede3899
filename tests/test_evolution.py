import dataclasses
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
    _apply_even_mixer,
    _embed,
    _hadamard_rows,
    apply_mixer,
    plus_state,
)
from gibbs_qaoa.ising import IsingInstance, energy_table, toy_instance
from gibbs_qaoa.operators import build_sbo, densify
from gibbs_qaoa.variational import QaoaProblem

from dense_operators import densified_mixer

# objective of the unoptimized annealing ramp at p=10, frozen from an
# independent dense matrix-product simulation
TQA_P10_OBJECTIVE = 3.540405391219373
TQA_P10_PGS = 0.02319043539397997


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def per_spin_mixer(psi, beta):
    """exp(-i beta sum_i sigma_x^i), one 2x2 rotation per spin: the pair
    (a, b) of amplitudes differing in one spin's bit maps to
    (a cos(beta) - i b sin(beta), b cos(beta) - i a sin(beta))."""
    n = psi.shape[0].bit_length() - 1
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    out = psi.copy()
    for b in range(n):
        view = out.reshape(-1, 2, 1 << b)
        lo = view[:, 0, :].copy()
        hi = view[:, 1, :]
        view[:, 0, :] = c * lo + s * hi
        view[:, 1, :] = c * hi + s * lo
    return out


class TestPlusState:
    def test_single_spin(self):
        assert np.allclose(plus_state(1), [2 ** -0.5, 2 ** -0.5])

    def test_five_spins(self):
        psi = plus_state(5)
        assert psi.shape == (32,)
        assert np.allclose(psi, 32 ** -0.5)

    def test_uniform_probabilities(self):
        assert np.allclose(np.abs(plus_state(5)) ** 2, 1 / 32)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            plus_state(0)


class TestMixer:
    def test_zero_angle_is_identity(self):
        psi = random_state(np.random.default_rng(0), 8)
        assert np.allclose(apply_mixer(psi, 0.0), psi)

    def test_plus_state_is_eigenstate(self):
        psi = plus_state(1)
        out = apply_mixer(psi, 0.9)
        assert np.allclose(out, np.exp(-1j * 0.9) * psi)
        assert np.allclose(np.abs(out) ** 2, np.abs(psi) ** 2)

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

    # n = 0..13 covers one to three spin blocks, even and uneven splits.
    @pytest.mark.parametrize("n", range(14))
    def test_matches_per_spin_reference(self, n):
        rng = np.random.default_rng(100 + n)
        psi = random_state(rng, 1 << n)
        kept = psi.copy()
        for beta in (0.0, -0.3, 0.7, -1.9, np.pi / 2, 2.6):
            out = apply_mixer(psi, beta)
            assert out.shape == psi.shape
            assert np.abs(out - per_spin_mixer(psi, beta)).max() <= 1e-12
        assert np.array_equal(psi, kept)

    # A stack of states, one angle each: every row as the state alone.
    @pytest.mark.parametrize("n", range(14))
    def test_stack_rows_equal_single_states(self, n):
        rng = np.random.default_rng(200 + n)
        psi = np.array([random_state(rng, 1 << n) for _ in range(3)])
        betas = np.array([-0.3, 0.7, 2.6])
        out = apply_mixer(psi, betas)
        assert out.shape == psi.shape
        for row, state, beta in zip(out, psi, betas):
            assert np.array_equal(row, apply_mixer(state, beta))

    # The top-spin step, against the formula it implements, bit for bit.
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_even_mixer_top_spin_step(self, n):
        rng = np.random.default_rng(300 + n)
        u = np.array([random_state(rng, 1 << n) for _ in range(2)])
        betas = np.array([0.4, -1.3])
        out = _apply_even_mixer(u, betas)
        for row, state, beta in zip(out, u, betas):
            low = apply_mixer(state, beta)
            assert np.array_equal(row, np.cos(beta) * low - 1j * np.sin(beta) * low[::-1])

    # W^T diag(d) W is the mixer Hamiltonian on the carried amplitudes: all
    # of them, or the even sector's basis e_x = (|x> + |~x>)/sqrt(2).
    def test_hadamard_diagonalization(self):
        for n in (1, 2, 3, 5):
            w, d = _hadamard_rows(n, even=False)
            assert np.allclose(w.T @ np.diag(d) @ w, densified_mixer(n), atol=1e-12)
            w, d = _hadamard_rows(n, even=True)
            e = _embed(np.eye(1 << (n - 1)), axis=0)  # columns e_x
            assert np.allclose(w.T @ np.diag(d) @ w, e.T @ densified_mixer(n) @ e, atol=1e-12)


class TestRunCircuit:
    def test_zero_angles_give_plus_state(self):
        psi = CircuitSimulator(toy_instance(), CostKind.classical()).run_angles([0.0], [0.0])
        assert np.allclose(psi, plus_state(5), atol=1e-14)

    def test_tqa_p10_matches_dense_oracle(self):
        problem = QaoaProblem(toy_instance(), CostKind.classical(), "full", 10)
        sim = problem.simulator
        sched = problem.schedule(problem.starts()[-1])  # the annealing ramp
        assert sim.objective_angles(*sched) == pytest.approx(TQA_P10_OBJECTIVE, abs=1e-10)
        probs = sim.probabilities(sched)
        pgs = sum(probs[s] for s in (0, 3, 7, 24, 28, 31))
        assert pgs == pytest.approx(TQA_P10_PGS, abs=1e-10)

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    def test_norm_preserved_at_depth_100(self, kind):
        rng = np.random.default_rng(4)
        gammas, betas = rng.uniform(-2, 2, 100), rng.uniform(-2, 2, 100)
        psi = CircuitSimulator(toy_instance(), kind).run_angles(gammas, betas)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-8

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(0.7)])
    def test_global_flip_symmetry(self, kind):
        rng = np.random.default_rng(5)
        sched = rng.uniform(-2, 2, 7), rng.uniform(-2, 2, 7)
        probs = CircuitSimulator(toy_instance(), kind).probabilities(sched)
        flipped = probs[np.arange(32) ^ 31]
        assert np.abs(probs - flipped).max() <= 1e-10

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    def test_composition(self, kind):
        rng = np.random.default_rng(6)
        g = rng.uniform(-1, 1, 6)
        b = rng.uniform(-1, 1, 6)
        sim = CircuitSimulator(toy_instance(), kind)
        once = sim.run_angles(g, b)
        first = sim.run_angles(g[:3], b[:3])
        # continue from `first` by applying the remaining layers manually
        if kind.temperature is None:
            lam, v = energy_table(toy_instance()), np.eye(32)
        else:
            lam, v = sim.eig.eigenvalues, sim.eig.eigenvectors
        second = first
        for gamma, beta in zip(g[3:], b[3:]):
            second = apply_mixer(v @ (np.exp(-1j * gamma * lam) * (v.T @ second)), beta)
        assert np.abs(once - second).max() <= 1e-12

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    @pytest.mark.parametrize("entry", ["run_angles", "objective_angles"])
    def test_length_mismatch_rejected(self, entry, kind):
        sim = CircuitSimulator(toy_instance(), kind)
        with pytest.raises(ValueError, match="lengths differ"):
            getattr(sim, entry)([0.1, 0.2, 0.3], [0.4])

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    @pytest.mark.parametrize("inst", [
        toy_instance(),  # no fields: the even sector, transform mixer step
        IsingInstance(n=4, couplings={(1, 2): 1.0, (2, 3): -1.0, (3, 4): 1.0},
                      fields=(0.5, 0.0, -0.3, 0.2)),
        # no fields, 2^8 carried amplitudes: the transform step on the sbo
        # cost, the block step on the classical one
        IsingInstance(n=9, couplings={(i, i + 1): 1.0 for i in range(1, 9)}),
    ], ids=["toy", "fields", "chain9"])
    def test_batch_rows_equal_single_runs(self, inst, kind):
        rng = np.random.default_rng(9)
        gammas, betas = rng.uniform(-1, 1, (2, 4, 3))  # p = 4, K = 3
        sim = CircuitSimulator(inst, kind)
        states = sim.run_angles(gammas, betas)
        probs = sim.probabilities((gammas, betas))
        assert states.shape == probs.shape == (3, inst.dim)
        for k in range(3):
            assert np.array_equal(states[k], sim.run_angles(gammas[:, k], betas[:, k]))
            assert np.array_equal(probs[k], sim.probabilities((gammas[:, k], betas[:, k])))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        sched = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        probs = CircuitSimulator(toy_instance(), CostKind.sbo(2.0)).probabilities(sched)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_one_hot_distribution(self):
        psi = np.zeros(8, dtype=complex)
        psi[5] = 1.0
        probs = np.abs(psi) ** 2
        assert probs[5] == 1.0 and probs.sum() == 1.0


class TestSboPhase:
    """The sbo cost phase exp(-i gamma H_S(T)), seen through the simulator."""

    def test_zero_angle_is_identity(self):
        # A layer with gamma = 0 must leave the state to the mixer alone. The
        # sbo cost takes the transform step on both instances; the classical
        # cost on the chain, above FUSED_MAX_SPINS, takes the block step.
        chain = IsingInstance(
            n=FUSED_MAX_SPINS + 1,
            couplings={(i, i + 1): 1.0 for i in range(1, FUSED_MAX_SPINS + 1)},
            fields=tuple(0.3 * (-1) ** i for i in range(FUSED_MAX_SPINS + 1)),
        )
        for inst, kind in ((toy_instance(), CostKind.sbo(0.8)), (chain, CostKind.sbo(0.8)),
                           (chain, CostKind.classical())):
            sim = CircuitSimulator(inst, kind)
            first = sim.run_angles([0.9], [0.4])
            both = sim.run_angles([0.9, 0.0], [0.4, -0.6])
            assert np.abs(both - apply_mixer(first, -0.6)).max() <= 1e-12

    def test_kernel_state_probabilities_unchanged(self):
        # With no couplings or fields, |+> spans the kernel of H_S(T) (and
        # has zero classical energy) and is an eigenstate of the mixer. The
        # sbo cost takes the transform step at both sizes; the classical cost
        # at FUSED_MAX_SPINS + 2 spins takes the block step (a field-free
        # instance carries half the amplitudes).
        for n, kind in ((1, CostKind.sbo(1.0)), (FUSED_MAX_SPINS + 2, CostKind.sbo(1.0)),
                        (FUSED_MAX_SPINS + 2, CostKind.classical())):
            sim = CircuitSimulator(IsingInstance(n=n), kind)
            psi = sim.run_angles([0.0, 1.234], [0.0, 0.7])
            assert np.abs(np.abs(psi) ** 2 - 2.0 ** -n).max() <= 1e-12

    # The sbo simulator keeps V and B = W V as its only width x width
    # matrices, both real: no complex copy of B and no stored transpose.
    @pytest.mark.parametrize("inst", [
        toy_instance(),
        IsingInstance(n=4, couplings={(1, 2): 1.0, (2, 3): -1.0, (3, 4): 1.0},
                      fields=(0.5, 0.0, -0.3, 0.2)),
        IsingInstance(n=9, couplings={(i, i + 1): 1.0 for i in range(1, 9)}),  # 256 carried
    ], ids=["toy", "fields", "chain9"])
    def test_transform_memory(self, inst):
        def held(obj):
            for value in vars(obj).values():
                if isinstance(value, np.ndarray):
                    yield value
                elif dataclasses.is_dataclass(value):  # the eigendecomposition
                    yield from held(value)

        sim = CircuitSimulator(inst, CostKind.sbo(1.0))
        width = sim.cost_eigs.size
        square = [a for a in held(sim) if a.shape == (width, width)]
        assert len(square) <= 2
        assert not any(np.iscomplexobj(a) for a in square)


class TestCostKind:
    def test_sbo_requires_temperature(self):
        with pytest.raises(ValueError):
            CostKind(0.0)
        with pytest.raises(ValueError):
            CostKind.sbo(-1.0)
        with pytest.raises(ValueError):
            CostKind.sbo(float("nan"))


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


# n runs across FUSED_MAX_SPINS, so the classical cost meets the reference
# on both its transform and its block mixer step, and the sbo cost on its
# transform step at every width up to 2^10 amplitudes.
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


# The field-free case, which the simulator propagates in the even
# global-flip sector of 2^(n-1) amplitudes, against the same full-space
# dense reference; the classical cost takes the transform mixer step up to
# n = FUSED_MAX_SPINS + 1 and the block step above, the sbo cost the
# transform step at every n.
@pytest.mark.parametrize("n", range(2, 11))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_even_sector_matches_dense_reference(n, data):
    assert 1 <= FUSED_MAX_SPINS < 9
    couplings = {}
    for pair in itertools.combinations(range(1, n + 1), 2):
        value = data.draw(st.sampled_from([-1.0, 0.0, 1.0]))
        if value:
            couplings[pair] = value
    inst = IsingInstance(n=n, couplings=couplings)
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
    assert sim.sector
    assert np.abs(sim.run_angles(gammas, betas) - psi_ref).max() <= 1e-10
    assert abs(sim.objective_angles(gammas, betas) - obj_ref) <= 1e-10


def test_even_sector_three_blocks_matches_full_space():
    # Field-free n = 12 carries 2^11 amplitudes, which apply_mixer splits
    # into three blocks (4, 4, 3); the reference propagates all 2^12
    # amplitudes with the per-spin mixer.
    n = 12
    rng = np.random.default_rng(12)
    couplings = {pair: float(rng.choice([-1.0, 1.0]))
                 for pair in itertools.combinations(range(1, n + 1), 2)}
    inst = IsingInstance(n=n, couplings=couplings)
    gammas = rng.uniform(-1.5, 1.5, 5)
    betas = rng.uniform(-1.5, 1.5, 5)
    energies = energy_table(inst)
    psi = plus_state(n)
    for g, b in zip(gammas, betas):
        psi = per_spin_mixer(np.exp(-1j * g * energies) * psi, b)

    sim = CircuitSimulator(inst, CostKind.classical())
    assert sim.sector and n - 1 > FUSED_MAX_SPINS
    assert np.abs(sim.run_angles(gammas, betas) - psi).max() <= 1e-10
    assert abs(sim.objective_angles(gammas, betas) - float(energies @ np.abs(psi) ** 2)) <= 1e-10
