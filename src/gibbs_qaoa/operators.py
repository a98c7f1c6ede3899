"""Cost operators: the diagonal Ising operator, its single-spin local terms,
and the structured Gibbs-encoding cost operator (scaled diagonal plus a
constant coupling on every single-flip pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import EigenDecomposition, eigh
from .ising import IsingInstance, energy_table, spin_table

DENSE_LIMIT = 1 << 14


@dataclass(frozen=True)
class DiagonalOperator:
    """Operator diagonal in the computational basis."""

    diag: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag.size


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
    alpha: float
    diag: np.ndarray
    offdiag: float

    @property
    def dim(self) -> int:
        return 1 << self.n


def ising_diagonal(inst: IsingInstance) -> DiagonalOperator:
    """The full classical energy as a diagonal operator."""
    return DiagonalOperator(diag=energy_table(inst))


def local_diagonal(inst: IsingInstance, i: int) -> DiagonalOperator:
    """Diagonal of the terms involving spin i:
    -s_i (sum_j J_ij s_j + h_i)."""
    if not (1 <= i <= inst.n):
        raise ValueError(f"spin index {i} out of range for n={inst.n}")
    s = spin_table(inst.n)
    acc = np.zeros(inst.dim)
    for (a, b), v in inst.couplings.items():
        if i in (a, b):
            acc -= v * s[:, a - 1] * s[:, b - 1]
    h = inst.fields[i - 1]
    if h != 0:
        acc -= h * s[:, i - 1]
    return DiagonalOperator(diag=acc)


def alpha(inst: IsingInstance) -> float:
    """Largest absolute eigenvalue over all single-spin local terms.

    The local terms are diagonal, so this is a max over spins and basis
    states.
    """
    return max(
        float(np.abs(local_diagonal(inst, i).diag).max()) for i in range(1, inst.n + 1)
    )


def build_sbo(inst: IsingInstance, temperature: float) -> SboOperator:
    """Assemble the Gibbs-encoding cost operator at the given temperature.

    diag(sigma) = sum_i exp((H_i(sigma) - alpha)/T); every single-flip pair
    carries -exp(-alpha/T). All exponents are <= 0 by construction.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    a = alpha(inst)
    diag = np.zeros(inst.dim)
    for i in range(1, inst.n + 1):
        diag += np.exp((local_diagonal(inst, i).diag - a) / temperature)
    return SboOperator(
        n=inst.n,
        temperature=float(temperature),
        alpha=a,
        diag=diag,
        offdiag=float(-np.exp(-a / temperature)),
    )


def densify(op: SboOperator | DiagonalOperator) -> np.ndarray:
    """Dense symmetric matrix form, for eigendecomposition and oracles."""
    dim = op.dim
    if dim > DENSE_LIMIT:
        raise ValueError(f"dimension {dim} exceeds the dense limit {DENSE_LIMIT}")
    if isinstance(op, DiagonalOperator):
        return np.diag(op.diag)
    m = np.diag(op.diag)
    idx = np.arange(dim)
    for b in range(op.n):
        m[idx, idx ^ (1 << b)] = op.offdiag
    return m


def apply_operator(op: SboOperator | DiagonalOperator, psi: np.ndarray) -> np.ndarray:
    """Matrix-vector product using the structure, no densification."""
    if psi.shape[0] != op.dim:
        raise ValueError(f"state dimension {psi.shape[0]} != operator dimension {op.dim}")
    out = op.diag * psi
    if isinstance(op, SboOperator):
        for b in range(op.n):
            flipped = psi.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(psi.shape)
            out = out + op.offdiag * flipped
    return out


def expectation(op: SboOperator | DiagonalOperator, psi: np.ndarray) -> float:
    """Real quadratic form <psi|op|psi> for a normalized state."""
    if psi.shape[0] != op.dim:
        raise ValueError(f"state dimension {psi.shape[0]} != operator dimension {op.dim}")
    val = np.vdot(psi, apply_operator(op, psi))
    if abs(val.imag) > 1e-10:
        raise AssertionError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def sbo_eigendecomposition(op: SboOperator) -> EigenDecomposition:
    return eigh(densify(op))
