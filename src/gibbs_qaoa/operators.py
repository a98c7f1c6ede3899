"""Cost operators: the single-spin local energy table of the Ising energy
and the structured Gibbs-encoding cost operator (scaled diagonal plus a
constant coupling on every single-flip pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import EigenDecomposition, eigh
from .ising import IsingInstance, spin_table

DENSE_LIMIT = 1 << 14


@dataclass(frozen=True)
class SboOperator:
    """Structured cost operator whose kernel is the square-root Gibbs state.

    Dense form: diag(sigma) on the diagonal and `offdiag` on every pair of
    basis states differing in exactly one bit; zero elsewhere. The
    diagonal entries are sums of non-positive exponentials, so nothing
    overflows as T -> 0.
    """

    n: int
    temperature: float
    diag: np.ndarray
    offdiag: float

    @property
    def dim(self) -> int:
        return 1 << self.n


def local_terms(inst: IsingInstance) -> np.ndarray:
    """Diagonals of the single-spin local terms, one row per spin: row
    i - 1 is -s_i (sum_j J_ij s_j + h_i). Each row takes its bonds in the
    instance's (sorted) coupling order, then its field."""
    s = spin_table(inst.n)
    terms = np.zeros((inst.n, inst.dim))
    for (a, b), v in inst.couplings.items():
        bond = v * s[:, a - 1] * s[:, b - 1]
        terms[a - 1] -= bond
        terms[b - 1] -= bond
    for i, h in enumerate(inst.fields):
        if h != 0:
            terms[i] -= h * s[:, i]
    return terms


def alpha(inst: IsingInstance) -> float:
    """Largest absolute eigenvalue over all single-spin local terms.

    The local terms are diagonal, so this is a max over spins and basis
    states.
    """
    return float(np.abs(local_terms(inst)).max())


def build_sbo(inst: IsingInstance, temperature: float) -> SboOperator:
    """Assemble the Gibbs-encoding cost operator at the given temperature.

    diag(sigma) = sum_i exp((H_i(sigma) - alpha)/T), summed in spin order;
    every single-flip pair carries -exp(-alpha/T). All exponents are <= 0
    by construction.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    terms = local_terms(inst)
    a = float(np.abs(terms).max())  # alpha(inst), from the same table
    with np.errstate(over="ignore"):  # an overflowed exponent is a term of 0
        return SboOperator(
            n=inst.n,
            temperature=float(temperature),
            diag=sum(np.exp((terms - a) / temperature)),
            offdiag=float(-np.exp(-a / temperature)),
        )


def densify(op: SboOperator) -> np.ndarray:
    """Dense symmetric matrix form, for eigendecomposition and oracles."""
    return _dense(op.diag, op.offdiag, [1 << b for b in range(op.n)])


def densify_even(op: SboOperator) -> np.ndarray:
    """Dense block on the even global-flip sector, built without the full
    matrix.

    The block is taken in the basis e_x = (|x> + |~x>)/sqrt(2), x < 2^(n-1),
    where ~x reverses every spin. It holds the flip-symmetric eigenvectors,
    the kernel among them, when the diagonal is flip-symmetric (every field
    zero); otherwise the operator leaves the sector and this raises.
    """
    half = op.dim >> 1
    if not np.array_equal(op.diag[:half], op.diag[::-1][:half]):
        raise ValueError("operator diagonal is not symmetric under the global flip")
    # Flipping the top spin maps e_x to e_{x ^ (half - 1)}: for n = 1 that is
    # the diagonal, for n = 2 the flip of the low spin.
    masks = [1 << b for b in range(op.n - 1)] + [half - 1]
    return _dense(op.diag[:half], op.offdiag, masks)


def _dense(diag: np.ndarray, offdiag: float, masks) -> np.ndarray:
    """diag on the diagonal plus offdiag at (x, x ^ mask) for each mask."""
    if diag.size > DENSE_LIMIT:
        raise ValueError(f"dimension {diag.size} exceeds the dense limit {DENSE_LIMIT}")
    m = np.diag(diag)
    idx = np.arange(diag.size)
    for mask in masks:
        m[idx, idx ^ mask] += offdiag
    return m


def apply_operator(op: SboOperator, psi: np.ndarray) -> np.ndarray:
    """Matrix-vector product using the structure, no densification."""
    if psi.shape[0] != op.dim:
        raise ValueError(f"state dimension {psi.shape[0]} != operator dimension {op.dim}")
    out = op.diag * psi
    for b in range(op.n):
        flipped = psi.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(psi.shape)
        out = out + op.offdiag * flipped
    return out


def sbo_eigendecomposition(op: SboOperator, even: bool) -> EigenDecomposition:
    """Eigendecomposition of the dense operator or, with `even`, of its
    block on the even global-flip sector (`densify_even`)."""
    return eigh(densify_even(op) if even else densify(op))
