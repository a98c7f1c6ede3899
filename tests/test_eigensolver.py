import numpy as np
import pytest

from gibbs_qaoa.eigensolver import EigenSolverError, eigh
from gibbs_qaoa.operators import build_sbo, densify
from gibbs_qaoa.ising import toy_instance


def test_diagonal_matrix():
    d = eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(d.eigenvalues, [1.0, 2.0, 3.0], atol=0)


def test_two_by_two_exchange():
    d = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-15)
    minus, plus = d.eigenvectors[:, 0], d.eigenvectors[:, 1]
    r = 2 ** -0.5
    assert np.allclose(np.abs(minus), [r, r], atol=1e-14)
    assert np.sign(minus[0]) != np.sign(minus[1])
    assert np.sign(plus[0]) == np.sign(plus[1])


def test_dimension_one():
    d = eigh(np.array([[4.0]]))
    assert d.eigenvalues[0] == 4.0
    assert d.eigenvectors[0, 0] == 1.0


def test_rejects_non_symmetric():
    with pytest.raises(EigenSolverError):
        eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_rejects_non_square():
    with pytest.raises(EigenSolverError):
        eigh(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite(bad):
    a = np.eye(3)
    a[1, 1] = bad
    with pytest.raises(EigenSolverError, match="non-finite"):
        eigh(a)


def test_lapack_failure_is_eigensolver_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenSolverError, match="did not converge"):
        eigh(np.eye(2))


def test_eigenvector_columns_are_c_contiguous():
    a = densify(build_sbo(toy_instance(), 0.5))
    assert eigh(a).eigenvectors.flags.c_contiguous


def test_zero_matrix():
    d = eigh(np.zeros((4, 4)))
    assert np.array_equal(d.eigenvalues, np.zeros(4))
    assert np.array_equal(d.eigenvectors, np.eye(4))


def test_random_matrices_meet_reconstruction_bounds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(2, 65))
        a = rng.normal(size=(dim, dim))
        a = (a + a.T) / 2.0
        d = eigh(a)
        v, lam = d.eigenvectors, d.eigenvalues
        assert np.abs(v @ v.T - np.eye(dim)).max() <= 1e-12
        assert np.abs(a - v @ np.diag(lam) @ v.T).max() <= 1e-10 * np.abs(a).max()
        assert (np.diff(lam) >= 0).all()


def test_cross_check_against_independent_solver():
    """Spectrum of the structured cost operator vs numpy's LAPACK wrapper."""
    a = densify(build_sbo(toy_instance(), 1.0))
    ours = eigh(a).eigenvalues
    reference = np.linalg.eigvalsh(a)
    assert np.abs(ours - reference).max() < 1e-9
