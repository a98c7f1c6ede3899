import dataclasses
import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbs_qaoa.eigensolver import eigh
from gibbs_qaoa.evolution import (
    _PHASE_TABLE_BYTES,
    FUSED_MAX_SPINS,
    CircuitSimulator,
    CostKind,
    Ramp,
    _embed,
    _hadamard_rows,
    _real_blocks,
    _top_spin_factors,
    plus_state,
)
from gibbs_qaoa.ising import IsingInstance, energy_table, toy_instance
from gibbs_qaoa.operators import build_sbo, densify
from gibbs_qaoa.variational import MAX_INIT_SCALE, QaoaProblem

from dense_operators import densified_mixer, rotated_mixer, top_spin_signs

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
        assert np.allclose(rotated_mixer(psi, 0.0), psi)

    def test_plus_state_is_eigenstate(self):
        psi = plus_state(1)
        out = rotated_mixer(psi, 0.9)
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
                assert np.abs(rotated_mixer(psi, beta) - expected).max() <= 1e-12

    # n = 0..13 covers the pair block alone (n <= 3) and with up to three
    # groups above it, even and uneven splits.
    @pytest.mark.parametrize("n", range(14))
    def test_matches_per_spin_reference(self, n):
        rng = np.random.default_rng(100 + n)
        psi = random_state(rng, 1 << n)
        kept = psi.copy()
        for beta in (0.0, -0.3, 0.7, -1.9, np.pi / 2, 2.6):
            out = rotated_mixer(psi, beta)
            assert out.shape == psi.shape
            assert np.abs(out - per_spin_mixer(psi, beta)).max() <= 1e-12
        assert np.array_equal(psi, kept)

    # A stack of states, one angle each: every row as the state alone.
    @pytest.mark.parametrize("n", range(14))
    def test_stack_rows_equal_single_states(self, n):
        rng = np.random.default_rng(200 + n)
        psi = np.array([random_state(rng, 1 << n) for _ in range(3)])
        betas = np.array([-0.3, 0.7, 2.6])
        out = rotated_mixer(psi, betas)
        assert out.shape == psi.shape
        for row, state, beta in zip(out, psi, betas):
            assert np.array_equal(row, rotated_mixer(state, beta))

    # The top-spin step, bit for bit against the formula it implements: the
    # fold g before the blocks, then low + (sin(beta) / g) (-i) reversed(low)
    # in the unrotated frame; and within 1e-15 of the exact step.
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_even_mixer_top_spin_step(self, n):
        rng = np.random.default_rng(300 + n)
        u = np.array([random_state(rng, 1 << n) for _ in range(2)])
        betas = np.array([0.4, -1.3])
        out = rotated_mixer(u, betas, even=True)
        for row, state, beta in zip(out, u, betas):
            fold, tan_b = _top_spin_factors(np.cos(beta), np.sin(beta))
            low = rotated_mixer(fold * state, beta)
            assert np.array_equal(row, low + tan_b * (-1j * low[::-1]))
            low = rotated_mixer(state, beta)
            assert np.abs(row - (np.cos(beta) * low - 1j * np.sin(beta) * low[::-1])).max() <= 1e-15

    # cos beta = +-0.0, which a Ramp's products could give: the factors stay
    # finite, and the fold with the three passes is the top-spin mixer
    # u -> -i sin(beta) reversed(u) (S is -i in the unrotated frame).
    @pytest.mark.parametrize("cos_b", [0.0, -0.0])
    @pytest.mark.parametrize("sin_b", [1.0, -1.0])
    def test_top_spin_factors_at_zero_cosine(self, cos_b, sin_b):
        fold, tan_b = _top_spin_factors(np.array([cos_b]), np.array([sin_b]))
        assert np.isfinite(fold).all() and np.isfinite(tan_b).all()
        assert 0 < abs(fold[0]) <= 1e-150 and np.signbit(fold[0]) == np.signbit(cos_b)
        u = random_state(np.random.default_rng(5), 1 << 9)
        phi = fold * u
        phi += tan_b * (-1j * phi[::-1])
        assert np.abs(phi - -1j * sin_b * u[::-1]).max() <= 1e-15

    # The block step's real block R(beta)^(x)k, R the rotation
    # [[cos, sin], [-sin, cos]], is orthogonal with transpose R(-beta)^(x)k,
    # and U R U^H with U = diag(i^popcount) is the complex block
    # cos^(k-d) (-i sin)^d, d = popcount(i ^ j). The orthogonality bound
    # sits above the 1.8e-15 that 2000 random angles read at k = 5.
    @pytest.mark.parametrize("k", range(1, 6))
    def test_real_block_is_the_rotated_spin_mixer(self, k):
        rng = np.random.default_rng(400 + k)
        idx = np.arange(1 << k)
        d = np.bitwise_count(idx[:, None] ^ idx)
        u = np.diag(np.array([1, 1j, -1, -1j])[np.bitwise_count(idx) % 4])
        for beta in [*rng.uniform(-np.pi, np.pi, 5), 0.7]:
            a = _real_blocks(k, np.cos(beta), np.sin(beta))
            assert a.shape == (1 << k, 1 << k) and a.dtype == float
            assert np.abs(_real_blocks(k, np.cos(-beta), np.sin(-beta)) - a.T).max() <= 1e-15
            assert np.abs(a @ a.T - np.eye(1 << k)).max() <= 2e-15
            complex_block = np.cos(beta) ** (k - d) * (-1j * np.sin(beta)) ** d
            assert np.abs(u @ a @ u.conj().T - complex_block).max() <= 1e-15

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
            second = per_spin_mixer(v @ (np.exp(-1j * gamma * lam) * (v.T @ second)), beta)
        assert np.abs(once - second).max() <= 1e-12

    @pytest.mark.parametrize("kind", [CostKind.classical(), CostKind.sbo(1.0)])
    @pytest.mark.parametrize("entry", ["run_angles", "objective_angles"])
    def test_length_mismatch_rejected(self, entry, kind):
        sim = CircuitSimulator(toy_instance(), kind)
        with pytest.raises(ValueError, match="lengths differ"):
            getattr(sim, entry)([0.1, 0.2, 0.3], [0.4])

    @pytest.mark.parametrize(("inst", "kind"), [
        *(pytest.param(inst, kind, id=f"{name}-kind{i}")
          for name, inst in [
              ("toy", toy_instance()),  # no fields: the even sector, transform mixer step
              ("fields", IsingInstance(n=4, couplings={(1, 2): 1.0, (2, 3): -1.0, (3, 4): 1.0},
                                       fields=(0.5, 0.0, -0.3, 0.2))),
              # no fields, 2^8 carried amplitudes: the transform step on the
              # sbo cost, the block step on the classical one; 8 carried bits,
              # so the top-spin coefficient is -i times the signs
              ("chain9", IsingInstance(n=9, couplings={(i, i + 1): 1.0 for i in range(1, 9)})),
              # the classical block step outside the sector (2^8 amplitudes)
              ("fields8", IsingInstance(n=8, couplings={(i, i + 1): 1.0 for i in range(1, 8)},
                                        fields=tuple(0.3 * (-1) ** i for i in range(8)))),
              # 9 carried bits: a real top-spin coefficient
              ("chain10", IsingInstance(n=10, couplings={(i, i + 1): 1.0 for i in range(1, 10)})),
              # 11 carried bits: the pair block and two spin groups
              ("chain12", IsingInstance(n=12, couplings={(i, i + 1): -1.0 for i in range(1, 12)})),
          ]
          for i, kind in enumerate([CostKind.classical(), CostKind.sbo(1.0)])),
        # 13 carried bits, odd: the pair block and three spin groups, the
        # block step of the qaoa-prop-n14 benchmark (classical only: an n = 14
        # sbo build takes minutes)
        pytest.param(IsingInstance(n=14, couplings={(i, i + 1): 1.0 for i in range(1, 14)}),
                     CostKind.classical(), id="chain14-kind0"),
    ])
    def test_batch_rows_equal_single_runs(self, inst, kind):
        rng = np.random.default_rng(9)
        schedules = [rng.uniform(-1, 1, (2, 4, 3))]  # p = 4, K = 3
        if inst == toy_instance():
            # the shape of the toy's linearized battery: p = 15, K = 48, cost
            # angles at the largest start scale
            gammas, betas = rng.uniform(-1, 1, (2, 15, 48))
            schedules.append((MAX_INIT_SCALE * gammas, betas))
        sim = CircuitSimulator(inst, kind)

        def outputs(gammas, betas):
            """States, probabilities and objective values, one row per schedule."""
            return (np.atleast_2d(sim.run_angles(gammas, betas)),
                    np.atleast_2d(sim.probabilities((gammas, betas))),
                    np.atleast_1d(sim.objective_angles(gammas, betas)))

        def assert_row_equal(batch, k, single):
            for rows, row in zip(batch, single):
                assert np.array_equal(rows[k], row[0])

        for gammas, betas in schedules:
            batch = outputs(gammas, betas)
            assert batch[0].shape == batch[1].shape == (gammas.shape[1], inst.dim)
            for k in range(gammas.shape[1]):
                assert_row_equal(batch, k, outputs(gammas[:, k], betas[:, k]))
            # A one-row batch, like a solo run, takes its products by np.dot,
            # where K rows take np.matmul.
            assert_row_equal(batch, 0, outputs(gammas[:, :1], betas[:, :1]))
        # The ramp entry at the linearized battery's shape, p = 15 and K = 48
        # (K = 4 for the sbo cost at 2^11 carried amplitudes, where 48 rows
        # take half a minute), cost angles at the largest start scale.
        size = 4 if kind.temperature and sim.cost_eigs.size > 1024 else 48
        (g1, dg), (b1, db) = rng.uniform(-1, 1, (2, 2, size))
        ramps = Ramp(MAX_INIT_SCALE * g1, MAX_INIT_SCALE * dg / 15, 15), Ramp(b1, db / 15, 15)
        batch = outputs(*ramps)
        assert batch[0].shape == (size, inst.dim) and batch[2].shape == (size,)
        for k in range(size):
            assert_row_equal(batch, k, outputs(*[Ramp(r.first[k], r.step[k], 15) for r in ramps]))
        assert_row_equal(batch, 0, outputs(*[Ramp(r.first[:1], r.step[:1], 15) for r in ramps]))

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
            assert np.abs(both - per_spin_mixer(first, -0.6)).max() <= 1e-12

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

    def test_phase_tables_stay_within_their_byte_budget(self):
        # 1024 amplitudes, K = 48, p = 25: tables for the whole schedule
        # would take 39 MB; chunks of eight layers keep them under the budget.
        # A linearized problem runs Ramps, whose batched rows keep the bits
        # of their solo runs although a solo run takes one chunk.
        inst = IsingInstance(n=10, couplings={(i, i + 1): 1.0 for i in range(1, 10)},
                             fields=tuple(0.3 * (-1) ** i for i in range(10)))
        sim = CircuitSimulator(inst, CostKind.sbo(1.0))
        rng = np.random.default_rng(3)
        gammas, betas = rng.uniform(-1, 1, (2, 25, 48))
        problem = QaoaProblem(inst, CostKind.sbo(1.0), "linearized", 25)
        lines = rng.uniform(-1, 1, (48, 4))
        for run, solo in [(lambda: sim.run_angles(gammas, betas),
                           lambda k: sim.run_angles(gammas[:, k], betas[:, k])),
                          (lambda: problem.objective(lines), lambda k: problem.objective(lines[k]))]:
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            state_buffers = 2 * 48 * sim.cost_eigs.size * 16  # the pairs x and y of _run
            assert peak <= _PHASE_TABLE_BYTES + state_buffers
            for k in (0, 23, 47):
                assert np.array_equal(out[k], solo(k))


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


# Linearized problems hand the simulator Ramps, whose phase tables come from
# two exponentials per row and level instead of one per layer. Against the
# angle path and a dense exponential from numpy.linalg.eigh, at n = 2..10
# (both mixer steps of the classical cost, both sectors) and depths up to
# 100, with |gamma| up to MAX_INIT_SCALE (slope and intercept up to half of
# it each). The worst differences read: 5.3e-11 from the angle path and 4.1e-11 from the
# reference objective (classical cost, p = 100), 6.8e-12 in a probability;
# the angle path itself reads up to 2.2e-11 from the reference.
@pytest.mark.parametrize("n", range(2, 11))
def test_ramps_match_angle_path_and_dense_reference(n):
    rng = np.random.default_rng(100 + n)
    couplings = {pair: float(rng.choice([-1.0, 1.0]))
                 for pair in itertools.combinations(range(1, n + 1), 2)}
    for fields in ((), tuple(rng.choice([-1.0, 1.0], n))):
        inst = IsingInstance(n=n, couplings=couplings, fields=fields)
        for kind in (CostKind.classical(), CostKind.sbo(1.0)):
            if kind.temperature is None:
                h_cost = np.diag(energy_table(inst))
                wc, vc = energy_table(inst), None
            else:
                h_cost = densify(build_sbo(inst, kind.temperature))
                wc, vc = np.linalg.eigh(h_cost)
                vc = vc.astype(complex)
            for p in (1, 2, 3, 15, 100):
                problem = QaoaProblem(inst, kind, "linearized", p)
                # (gamma slope, gamma intercept, beta slope, beta intercept)
                lines = np.column_stack([rng.uniform(-0.5, 0.5, (3, 2)) * MAX_INIT_SCALE,
                                         rng.uniform(-np.pi, np.pi, (3, 2))])
                values = problem.objective(lines)
                by_angles = problem.simulator.objective_angles(*problem.schedule(lines))
                assert np.abs(values - by_angles).max() <= 1e-10
                psi = plus_state(n)
                for g, b in zip(*problem.schedule(lines[0])):
                    if vc is None:
                        psi = np.exp(-1j * g * wc) * psi
                    else:
                        psi = vc @ (np.exp(-1j * g * wc) * (vc.T @ psi))
                    psi = per_spin_mixer(psi, b)
                assert abs(values[0] - np.vdot(psi, h_cost @ psi).real) <= 1e-10
                assert np.abs(problem.probabilities(lines[0]) - np.abs(psi) ** 2).max() <= 1e-10


# Mixer layers at beta in {0, pi/2, -pi/2, pi}, where cos beta or sin beta
# is zero to rounding, on the block step's even sector with an even and an
# odd number of carried bits (n = 9 and 10), as angle arrays and as a Ramp,
# against numpy.linalg.eigh; and the simulator's top-spin signs, derived from
# its frame, against their closed form.
@pytest.mark.parametrize("n", [9, 10])
def test_block_step_at_quarter_turns_matches_dense_reference(n):
    rng = np.random.default_rng(50 + n)
    couplings = {pair: float(rng.choice([-1.0, 1.0]))
                 for pair in itertools.combinations(range(1, n + 1), 2)}
    inst = IsingInstance(n=n, couplings=couplings)
    sim = CircuitSimulator(inst, CostKind.classical())
    assert sim.sector and sim._b is None
    assert np.array_equal(sim._top, top_spin_signs(n - 1))
    h_cost = np.diag(energy_table(inst))
    gammas = rng.uniform(-1, 1, 6)
    betas = np.array([0.0, np.pi / 2, 0.7, -np.pi / 2, np.pi, -0.4])
    psi_ref, _ = dense_reference(h_cost, n, gammas, betas)
    assert np.abs(sim.run_angles(gammas, betas) - psi_ref).max() <= 1e-10
    ramp = Ramp(np.pi / 2, -np.pi / 2, 4)  # pi/2, 0, -pi/2, -pi
    psi_ref, _ = dense_reference(h_cost, n, gammas[:4], np.pi / 2 - np.pi / 2 * np.arange(4))
    assert np.abs(sim.run_angles(gammas[:4], ramp) - psi_ref).max() <= 1e-10


def test_even_sector_three_blocks_matches_full_space():
    # Field-free n = 12 carries 2^11 amplitudes, which the block step splits
    # into the 3-spin pair block and two groups (4, 4); the reference
    # propagates all 2^12 amplitudes with the per-spin mixer.
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


def test_four_blocks_match_per_spin_reference():
    # n = 16 with fields carries 2^16 amplitudes, which the block step
    # splits into the 3-spin pair block and four groups (4, 3, 3, 3); the
    # reference applies the per-spin mixer to the same amplitudes.
    n = 16
    rng = np.random.default_rng(16)
    couplings = {pair: float(rng.choice([-1.0, 1.0]))
                 for pair in itertools.combinations(range(1, n + 1), 2)}
    inst = IsingInstance(n=n, couplings=couplings, fields=tuple(rng.uniform(-1, 1, n)))
    gammas = rng.uniform(-1.5, 1.5, 3)
    betas = rng.uniform(-1.5, 1.5, 3)
    energies = energy_table(inst)
    psi = plus_state(n)
    for g, b in zip(gammas, betas):
        psi = per_spin_mixer(np.exp(-1j * g * energies) * psi, b)

    sim = CircuitSimulator(inst, CostKind.classical())
    assert not sim.sector and sim._groups == [3, 4, 3, 3, 3]
    assert np.abs(sim.run_angles(gammas, betas) - psi).max() <= 1e-10
    assert abs(sim.objective_angles(gammas, betas) - float(energies @ np.abs(psi) ** 2)) <= 1e-10
