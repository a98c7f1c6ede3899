"""Exact state-vector propagation of the alternating cost/mixer circuit.

Layer k applies the cost phase exp(-i gamma_k H_C) and then the mixer
exp(-i beta_k H_X) with H_X = sum_i sigma_x^i. The cost operator is either
the classical Ising diagonal or the Gibbs-encoding structured operator at a
chosen temperature; the latter is propagated through its cached dense
eigendecomposition, never Trotterized.

The state is carried in the eigenbasis of the cost operator (for the
classical cost, the computational basis), so every cost phase is a diagonal
multiply and the objective is a dot product with the eigenvalues. Only the
mixer step leaves that basis. Instances without fields carry only the
even global-flip sector, half the amplitudes (see CircuitSimulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .eigensolver import EigenDecomposition
from .ising import IsingInstance, energy_table
from .operators import build_sbo, sbo_eigendecomposition

# Up to 2^FUSED_MAX_SPINS carried amplitudes (this many spins, one more in
# the even sector) the mixer step is two dense products with the
# cost-eigenbasis -> Hadamard transform; above, the dense spin blocks of
# apply_mixer in the computational basis. Per layer at p = 100 (one BLAS
# thread), fused vs blocks at 2^7 and 2^8 carried amplitudes: with fields,
# 18 vs 30 and 68 vs 25 us on the classical cost, 22 vs 52 and 74 vs 69 us
# on the sbo cost; without fields, 14 vs 28 and 76 vs 40 us on the
# classical cost, 17 vs 56 and 64 vs 59 us on the sbo cost.
FUSED_MAX_SPINS = 7

# Widest spin group apply_mixer treats as one dense block (32 x 32).
_BLOCK_SPINS = 5


@dataclass(frozen=True)
class CostKind:
    """Which operator the phase layers (and the objective) use: the
    Gibbs-encoding operator H_S(T) at `temperature`, or the classical Ising
    diagonal when it is None."""

    temperature: float | None = None

    def __post_init__(self):
        if self.temperature is not None and not self.temperature > 0:
            raise ValueError("sbo cost requires a positive temperature")

    @classmethod
    def classical(cls) -> "CostKind":
        return cls()

    @classmethod
    def sbo(cls, temperature: float) -> "CostKind":
        return cls(float(temperature))


def plus_state(n: int) -> np.ndarray:
    """Uniform real superposition |+>^n."""
    if n < 1:
        raise ValueError(f"need at least one spin, got {n}")
    dim = 1 << n
    return np.full(dim, dim ** -0.5, dtype=complex)


def apply_mixer(psi: np.ndarray, beta) -> np.ndarray:
    """exp(-i beta sum_i sigma_x^i), as dense blocks of at most 5 spins.

    The operator is R^{(x)n} with R = exp(-i beta sigma_x). The n bits are
    split into ceil(n / 5) near-equal groups (13 -> 5, 4, 4, the larger
    ones lowest), and each group's R^{(x)k} is applied as one matrix
    product over its k bits. Entry (i, j) of R^{(x)k} is
    cos(beta)^(k - d) (-i sin(beta))^d with d = popcount(i ^ j); the block
    is symmetric, so it multiplies from either side untransposed.

    psi may be a stack of states (..., 2^n) with one angle each in beta
    (shape ...); every state gets its own products, so each row is exactly
    what it would be alone.
    """
    lead = psi.shape[:-1]
    n = psi.shape[-1].bit_length() - 1
    if n == 0:
        return psi.copy()
    groups = -(-n // _BLOCK_SPINS)
    q, extra = divmod(n, groups)
    beta = np.asarray(beta, dtype=float)[..., None]
    x = psi
    below = 0  # bits under the current group
    for k in [q + 1] * extra + [q] * (groups - extra):
        d = np.arange(k + 1)
        # take, unlike fancy indexing on the last axis, gives contiguous
        # blocks, which matmul hands to BLAS
        r = (np.cos(beta) ** (k - d) * (-1j * np.sin(beta)) ** d).take(_hamming(k), axis=-1)
        if below == 0:
            x = x.reshape(*lead, -1, 1 << k) @ r
        else:
            x = np.matmul(r[..., None, :, :], x.reshape(*lead, -1, 1 << k, 1 << below))
        below += k
    return x.reshape(psi.shape)


@lru_cache(maxsize=None)
def _hamming(k: int) -> np.ndarray:
    """popcount(i ^ j) for i, j < 2^k."""
    idx = np.arange(1 << k)
    d = np.bitwise_count(idx[:, None] ^ idx)
    d.flags.writeable = False  # shared by every call
    return d


def _real_matmul(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """m @ psi for a real matrix and a complex vector (or each row of a
    stack of them), as one real product with two columns, so m is never
    copied to complex."""
    pairs = np.ascontiguousarray(psi, dtype=complex).view(float).reshape(*psi.shape, 2)
    return (m @ pairs).view(complex).reshape(psi.shape)


def mixer_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of sum_i sigma_x^i in the Hadamard-transformed basis."""
    idx = np.arange(1 << n, dtype=np.uint32)
    ones = np.bitwise_count(idx).astype(np.int64)
    return (n - 2 * ones).astype(float)


def hadamard_matrix(n: int) -> np.ndarray:
    """Normalized n-fold Hadamard transform (orthogonal, symmetric)."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return reduce(np.kron, [h1] * n)


class CircuitSimulator:
    """Propagates angle schedules for one instance and one cost kind.

    The cost operator (and, for the structured cost, its eigendecomposition)
    is built once in the constructor and shared across every run, which is
    what makes optimizer loops affordable. Runs carry the coefficients c of
    the state in the cost eigenbasis V (V = identity for the classical
    cost): each layer multiplies c by exp(-i gamma eigenvalue), then applies
    the mixer as B^T (mixer phase * B c) with the dense transform B = W V
    (W the Hadamard transform) up to 2^FUSED_MAX_SPINS amplitudes, and as
    V^T apply_mixer(V c) above.

    When every field is zero, |+>, H_X and the cost operator commute with
    the global flip, so the state never leaves the even sector. The
    simulator then carries u = sqrt(2) psi[:2^(n-1)] in the basis
    e_x = (|x> + |~x>)/sqrt(2): V diagonalizes the cost operator's block on
    that sector, B keeps the even-parity Hadamard rows, and above the
    threshold the mixer acts on the low n - 1 spins by apply_mixer's dense
    blocks and on the top spin as u -> cos(beta) u - i sin(beta) reversed(u).
    """

    def __init__(self, inst: IsingInstance, kind: CostKind):
        n, dim = inst.n, inst.dim
        self.sector = inst.flip_symmetric
        width = dim >> self.sector  # length of the carried vector
        if kind.temperature is None:
            self.cost_eigs = energy_table(inst)[:width]
            self._eig = None
            self._from_cost = self._to_cost = np.asarray  # V is the identity
        else:
            sbo = build_sbo(inst, kind.temperature)
            self._eig = sbo_eigendecomposition(sbo, even=self.sector)
            self.cost_eigs = self._eig.eigenvalues
            self._from_cost = partial(_real_matmul, self._eig.eigenvectors)
            self._to_cost = partial(_real_matmul, self._eig.eigenvectors.T)
        self._mixer = _apply_even_mixer if self.sector else apply_mixer
        self._fused = width <= 1 << FUSED_MAX_SPINS
        # |+>^n, carried (in the sector u = sqrt(2) psi[:width])
        self._c0 = self._to_cost(plus_state(n)[:width] * np.sqrt(dim / width))
        self._c0.flags.writeable = False  # returned as is by a zero-layer run
        # Each phase is exp(-i angle level), gathered from the distinct
        # eigenvalues (n + 1 of them for the mixer).
        self._cost_levels, self._cost_index = _levels(self.cost_eigs)
        if self._fused:
            w = hadamard_matrix(n)
            mixer_eigs = mixer_eigenvalues(n)
            if self.sector:
                # W e_x is sqrt(2) W[k, x] on rows k of even parity, 0 on odd.
                even = np.bitwise_count(np.arange(dim)) % 2 == 0
                w = np.sqrt(2.0) * w[even, :width]
                mixer_eigs = mixer_eigs[even]
            to_had = w if self._eig is None else w @ self._eig.eigenvectors
            self._to_had = to_had.astype(complex)
            self._from_had = np.ascontiguousarray(self._to_had.T)
            self._mix_levels, self._mix_index = _levels(mixer_eigs)

    @property
    def eig(self) -> EigenDecomposition | None:
        """Eigendecomposition of the sbo cost operator; None for the
        classical cost.

        Eigenvalues ascend and eigenvectors have 2^n rows. In the even
        sector the columns are the sector's eigenvectors embedded in the
        computational basis, built on each read (1 GB at n = 14).
        """
        if self._eig is None or not self.sector:
            return self._eig
        return EigenDecomposition(self._eig.eigenvalues, _embed(self._eig.eigenvectors, axis=0))

    def _run(self, gammas, betas) -> np.ndarray:
        """Final state of a schedule, as coefficients in the cost eigenbasis.

        Angles of shape (p, K), layers on axis 0, run K schedules together
        and give a (K, width) array. Each row is bit-identical to its
        schedule run alone: every product is taken per row, as a matrix
        times one vector (a matrix-matrix product would round differently).
        """
        gammas = np.asarray(gammas, dtype=float)
        betas = np.asarray(betas, dtype=float)
        if gammas.shape != betas.shape:
            raise ValueError("schedule gamma/beta lengths differ")
        batch = gammas.shape[1:]  # (K,) for a batch, () for one schedule
        c = self._c0
        if batch:
            c = np.repeat(c[None], batch[0], axis=0)
        if self._fused:
            cost_ph = np.exp(np.multiply.outer(gammas, self._cost_levels)).take(
                self._cost_index, axis=-1)
            mix_ph = np.exp(np.multiply.outer(betas, self._mix_levels)).take(
                self._mix_index, axis=-1)
            if batch:
                # Stacks of column vectors, so that b @ c is one
                # matrix-vector product per row.
                c, cost_ph, mix_ph = c[..., None], cost_ph[..., None], mix_ph[..., None]
            b = self._to_had
            bt = self._from_had
            for cp, mp in zip(cost_ph, mix_ph):
                c = bt @ (mp * (b @ (cp * c)))
        else:
            # Phases per layer: a p x 2^n table would dominate the memory.
            for g, beta in zip(gammas, betas):
                cp = np.exp(np.multiply.outer(g, self._cost_levels)).take(self._cost_index, axis=-1)
                c = self._to_cost(self._mixer(self._from_cost(cp * c), beta))
        return c.reshape(*batch, -1)

    def run_angles(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Final state vector in the computational basis; angles of shape
        (p, K) give the K final states as rows."""
        u = self._from_cost(self._run(gammas, betas))
        return _embed(u) if self.sector else u

    def objective_angles(self, gammas: np.ndarray, betas: np.ndarray):
        """<psi|H_C|psi> of the final state; the optimization target.

        Angles of shape (p, K) give an array of the K schedules' values.
        """
        c = self._run(gammas, betas)
        # a dot product per row: a matrix-vector product would round differently
        return np.vecdot((c * c.conj()).real, self.cost_eigs)

    def probabilities(self, schedule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Measurement distribution of the final state of (gammas, betas)."""
        return np.abs(self.run_angles(*schedule)) ** 2


def _apply_even_mixer(u: np.ndarray, beta) -> np.ndarray:
    """exp(-i beta sum_i sigma_x^i) on the even-sector coefficients u
    (or each row of a stack of them, with one angle each).

    The low spins act on u as on a state of one spin fewer; flipping the
    top spin maps e_x to e_{x ^ (len(u) - 1)}, which reverses u. That step
    is cos(beta) out - i sin(beta) reversed(out), taken in two buffers: the
    reversed read goes to a new array, never to the one it reads.
    """
    out = apply_mixer(u, beta)
    beta = np.asarray(beta, dtype=float)[..., None]
    flipped = np.multiply(1j * np.sin(beta), out[..., ::-1])
    np.multiply(np.cos(beta), out, out=out)
    return np.subtract(out, flipped, out=flipped)


def _embed(u: np.ndarray, axis: int = -1) -> np.ndarray:
    """Computational-basis amplitudes [u, reversed(u)]/sqrt(2) of even-sector
    coefficients along `axis`: the last for a state or a stack of state
    rows, 0 for a matrix of column vectors."""
    return np.concatenate((u, np.flip(u, axis)), axis) * np.sqrt(0.5)


def _levels(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-1j times the distinct eigenvalues, and each eigenvalue's index among them."""
    distinct, index = np.unique(eigs, return_inverse=True)
    return -1j * distinct, index


__all__ = [
    "CostKind",
    "CircuitSimulator",
    "plus_state",
    "apply_mixer",
    "mixer_eigenvalues",
    "hadamard_matrix",
]
