import itertools

import numpy as np
import pytest

from gibbs_qaoa.eigensolver import eigh
from gibbs_qaoa.ising import IsingInstance, energy_table, gibbs_amplitudes, toy_instance
from gibbs_qaoa.operators import (
    alpha,
    apply_operator,
    build_sbo,
    densify,
    densify_even,
    local_terms,
)

ALL_UP = 0b11111


def random_instance(rng, n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    couplings = {}
    for p in pairs:
        if rng.random() < 0.7:
            couplings[p] = float(rng.choice([-1.0, 1.0]))
    return IsingInstance(n=n, couplings=couplings)


class TestLocalDiagonal:
    def test_toy_center_spin_all_up(self):
        # spin 3 touches four ferromagnetic bonds
        assert local_terms(toy_instance())[2][ALL_UP] == -4.0

    def test_toy_spin_one_all_up(self):
        # neighbors 2, 3 ferro and 5 antiferro: -(1 + 1 - 1)
        assert local_terms(toy_instance())[0][ALL_UP] == -1.0

    def test_single_spin_no_field(self):
        assert np.array_equal(local_terms(IsingInstance(n=1))[0], [0.0, 0.0])

    def test_sum_rule(self):
        # summing H_i double counts every bond and counts each field once
        inst = toy_instance()
        total = local_terms(inst).sum(axis=0)
        assert np.allclose(total, 2.0 * energy_table(inst))

    def test_rows_are_per_spin_sums_in_coupling_order(self):
        # bit for bit on non-integer values: bonds in sorted order, then the field
        rng = np.random.default_rng(3)
        n = 6
        couplings = {pair: float(rng.normal()) for pair in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.7}
        inst = IsingInstance(n=n, couplings=couplings, fields=tuple(rng.normal(size=n)))
        s = np.array([[1.0 if x >> b & 1 else -1.0 for b in range(n)] for x in range(inst.dim)])
        for i, row in enumerate(local_terms(inst)):
            want = np.zeros(inst.dim)
            for (a, b), v in sorted(couplings.items()):
                if i + 1 in (a, b):
                    want -= v * s[:, a - 1] * s[:, b - 1]
            want -= inst.fields[i] * s[:, i]
            assert np.array_equal(row, want)


class TestAlpha:
    def test_toy(self):
        assert alpha(toy_instance()) == 4.0

    def test_single_spin(self):
        assert alpha(IsingInstance(n=1)) == 0.0

    def test_single_bond(self):
        assert alpha(IsingInstance(n=2, couplings={(1, 2): 1.0})) == 1.0

    def test_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            expected = max(
                sum(abs(v) for (a, b), v in inst.couplings.items() if i in (a, b))
                + abs(inst.fields[i - 1])
                for i in range(1, inst.n + 1)
            )
            assert alpha(inst) == pytest.approx(expected, abs=0)


class TestBuildSbo:
    def test_single_spin_dense_form(self):
        op = build_sbo(IsingInstance(n=1), 0.7)
        assert np.array_equal(densify(op), [[1.0, -1.0], [-1.0, 1.0]])
        d = eigh(densify(op))
        assert np.allclose(d.eigenvalues, [0.0, 2.0], atol=1e-15)
        ground = d.eigenvectors[:, 0]
        assert np.allclose(np.abs(ground), 2 ** -0.5)
        assert np.sign(ground[0]) == np.sign(ground[1])

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            build_sbo(toy_instance(), 0.0)
        with pytest.raises(ValueError):
            build_sbo(toy_instance(), float("nan"))

    def test_diag_and_offdiag_ranges(self):
        for t in (0.5, 1.0, 2.0):
            op = build_sbo(toy_instance(), t)
            assert (op.diag > 0).all()
            assert (op.diag <= op.n).all()
            assert -1.0 <= op.offdiag < 0.0
        limit = build_sbo(toy_instance(), np.inf)  # H_S = n - sum_i X_i
        assert (limit.diag == limit.n).all() and limit.offdiag == -1.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_gibbs_state_in_kernel(self, t):
        inst = toy_instance()
        op = build_sbo(inst, t)
        psi = gibbs_amplitudes(inst, t)
        assert np.linalg.norm(apply_operator(op, psi)) <= 1e-10

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_positive_semidefinite_with_unique_kernel(self, t):
        d = eigh(densify(build_sbo(toy_instance(), t)))
        assert -1e-10 <= d.eigenvalues[0] <= 1e-10
        assert d.eigenvalues[1] > 0.0

    def test_kernel_property_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(24):
            n = int(rng.integers(2, 9))
            inst = random_instance(rng, n)
            t = float(rng.uniform(0.4, 3.0))
            op = build_sbo(inst, t)
            psi = gibbs_amplitudes(inst, t)
            residual = np.linalg.norm(apply_operator(op, psi))
            assert residual <= 1e-9 * np.abs(densify(op)).max()

    def test_termwise_blocks(self):
        # each single-spin term has 2x2 blocks with eigenvalues
        # {0, 2 exp(-alpha/T) cosh(a/T)} where a is the local diagonal value
        inst = toy_instance()
        t = 1.3
        a = alpha(inst)
        i = 2
        loc = local_terms(inst)[i - 1]
        dim = inst.dim
        term = np.diag(np.exp((loc - a) / t))
        idx = np.arange(dim)
        term[idx, idx ^ (1 << (i - 1))] = -np.exp(-a / t)
        lam = np.linalg.eigvalsh(term)
        assert lam.min() >= -1e-12
        for sigma in (0, 7, 21):
            partner = sigma ^ (1 << (i - 1))
            block = term[np.ix_([sigma, partner], [sigma, partner])]
            w = np.linalg.eigvalsh(block)
            expected_top = 2.0 * np.exp(-a / t) * np.cosh(loc[sigma] / t)
            assert w[0] == pytest.approx(0.0, abs=1e-14)
            assert w[1] == pytest.approx(expected_top, rel=1e-12)

    def test_global_flip_commutation(self):
        op = densify(build_sbo(toy_instance(), 1.0))
        dim = op.shape[0]
        perm = np.zeros_like(op)
        perm[np.arange(dim), np.arange(dim) ^ (dim - 1)] = 1.0
        assert np.abs(op @ perm - perm @ op).max() <= 1e-12


class TestDensifyEven:
    @pytest.mark.parametrize("inst", [
        IsingInstance(n=1), IsingInstance(n=2, couplings={(1, 2): -1.0}), toy_instance()])
    def test_matches_projected_dense_form(self, inst):
        # columns e_x = (|x> + |~x>)/sqrt(2) for x < 2^(n-1)
        cols = np.arange(inst.dim // 2)
        e = np.zeros((inst.dim, cols.size))
        e[cols, cols] = e[cols ^ (inst.dim - 1), cols] = 0.5 ** 0.5
        op = build_sbo(inst, 0.8)
        assert np.abs(densify_even(op) - e.T @ densify(op) @ e).max() <= 1e-14

    def test_rejects_fields(self):
        inst = IsingInstance(n=3, couplings={(1, 2): 1.0}, fields=(0.0, 0.5, 0.0))
        with pytest.raises(ValueError, match="global flip"):
            densify_even(build_sbo(inst, 1.0))


class TestDensifyAndExpectation:
    def test_densify_symmetric_exactly(self):
        m = densify(build_sbo(toy_instance(), 0.8))
        assert np.array_equal(m, m.T)

    def test_structure_matches_dense(self):
        op = build_sbo(toy_instance(), 1.0)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(apply_operator(op, psi), densify(op) @ psi, atol=1e-14)

    def test_expectation_ground_energy(self):
        psi = np.zeros(32, dtype=complex)
        psi[ALL_UP] = 1.0
        assert np.vdot(psi, energy_table(toy_instance()) * psi).real == -4.0

    def test_expectation_kernel_state(self):
        inst = toy_instance()
        op = build_sbo(inst, 1.0)
        psi = gibbs_amplitudes(inst, 1.0).astype(complex)
        assert abs(np.vdot(psi, apply_operator(op, psi))) <= 1e-10

    def test_expectation_plus_state(self):
        psi = np.full(32, 32 ** -0.5, dtype=complex)
        assert np.vdot(psi, energy_table(toy_instance()) * psi).real == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_operator(build_sbo(toy_instance(), 1.0), np.ones(8, dtype=complex))
