"""Exact state-vector propagation of the alternating cost/mixer circuit.

Layer k applies the cost phase exp(-i gamma_k H_C) and then the mixer
exp(-i beta_k H_X) with H_X = sum_i sigma_x^i. The cost operator is either
the classical Ising diagonal or the Gibbs-encoding structured operator at a
chosen temperature; the latter is propagated through its cached dense
eigendecomposition, never Trotterized.

The state is carried in the eigenbasis of the cost operator (for the
classical cost, the computational basis), so every cost phase is a diagonal
multiply and the objective is a dot product with the eigenvalues. The mixer
phase is diagonal in the Hadamard basis (see CircuitSimulator). Instances
without fields carry only the even global-flip sector, half the amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigensolver import EigenDecomposition
from .ising import IsingInstance, energy_table
from .operators import build_sbo, sbo_eigendecomposition

# The classical cost takes the transform mixer step up to 2^FUSED_MAX_SPINS
# carried amplitudes (this many spins, one more in the even sector) and
# apply_mixer's dense spin blocks above; the sbo cost always takes the
# transform. The benchmark runs one shape on each side: the toy's 16
# amplitudes on the transform and 8192 (n = 14, no fields) in blocks.
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


class CircuitSimulator:
    """Propagates angle schedules for one instance and one cost kind.

    The cost operator (and, for the structured cost, its eigendecomposition)
    is built once in the constructor and shared across every run, which is
    what makes optimizer loops affordable. Runs carry the coefficients c of
    the state in the cost eigenbasis V (V = identity for the classical
    cost): each layer multiplies c by exp(-i gamma eigenvalue), then applies
    the mixer as B^T (mixer phase * B c) with the real transform B = W V,
    W the Hadamard transform. The classical cost above 2^FUSED_MAX_SPINS
    amplitudes applies apply_mixer to c instead. The real matrices act on
    the state's real and imaginary parts as one two-column product per row.

    When every field is zero, |+>, H_X and the cost operator commute with
    the global flip, so the state never leaves the even sector. The
    simulator then carries u = sqrt(2) psi[:2^(n-1)] in the basis
    e_x = (|x> + |~x>)/sqrt(2): V diagonalizes the cost operator's block on
    that sector, W keeps the even-parity Hadamard rows, and the block
    mixer acts on the low n - 1 spins by apply_mixer's dense blocks and on
    the top spin as u -> cos(beta) u - i sin(beta) reversed(u).
    """

    def __init__(self, inst: IsingInstance, kind: CostKind):
        n, dim = inst.n, inst.dim
        self.sector = inst.flip_symmetric
        width = dim >> self.sector  # length of the carried vector
        # |+>^n, carried (in the sector u = sqrt(2) psi[:width])
        self._c0 = plus_state(n)[:width] * np.sqrt(dim / width)
        self._eig = None
        if kind.temperature is None:
            self.cost_eigs = energy_table(inst)[:width]
        else:
            self._eig = sbo_eigendecomposition(build_sbo(inst, kind.temperature), self.sector)
            self.cost_eigs = self._eig.eigenvalues
            self._c0 = _complex(self._eig.eigenvectors.T @ _pairs(self._c0))
        # Each phase is exp(-i angle level), gathered from the distinct
        # eigenvalues (n + 1 of them for the mixer).
        self._cost_levels = _levels(self.cost_eigs)
        self._b = None  # the transform B = W V, or None for the block step
        if self._eig is not None or width <= 1 << FUSED_MAX_SPINS:
            w, mixer_eigs = _hadamard_rows(n, self.sector)
            self._b = w if self._eig is None else w @ self._eig.eigenvectors
            self._mix_levels = _levels(mixer_eigs)
        else:
            self._mixer = _apply_even_mixer if self.sector else apply_mixer

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
        times one row (a matrix-matrix product would round differently).
        """
        gammas, betas = np.asarray(gammas, dtype=float), np.asarray(betas, dtype=float)
        if gammas.shape != betas.shape:
            raise ValueError("schedule gamma/beta lengths differ")
        # One start row per schedule, as real pairs x and their complex view c.
        x = np.empty((*gammas.shape[1:], self._c0.size, 2))
        c = _complex(x)
        c[...] = self._c0
        if self._b is None:
            # Phases per layer: a p x 2^n table would dominate the memory.
            for g, beta in zip(gammas, betas):
                c = self._mixer(_phases(g, *self._cost_levels) * c, beta)
            return c
        # Each call below writes its third argument (out, by position: the
        # faster call). No product is taken in place: a complex product of
        # length 1 rounds differently in place, which would part a batched
        # row from its solo run at one carried amplitude.
        y = np.empty_like(x)
        d = _complex(y)
        b, bt = self._b, self._b.T
        cost_ph = _phases(gammas, *self._cost_levels)
        mix_ph = _phases(betas, *self._mix_levels)
        for cp, mp in zip(cost_ph, mix_ph):
            np.multiply(c, cp, d)
            np.matmul(b, y, x)
            np.multiply(c, mp, d)
            np.matmul(bt, y, x)
        return c

    def run_angles(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Final state vector in the computational basis; angles of shape
        (p, K) give the K final states as rows."""
        u = self._run(gammas, betas)
        if self._eig is not None:
            u = _complex(self._eig.eigenvectors @ _pairs(u))
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


def _hadamard_rows(n: int, even: bool) -> tuple[np.ndarray, np.ndarray]:
    """W[k, x] = (-1)^popcount(k & x) / sqrt(width), the Hadamard transform
    of the carried amplitudes, and the eigenvalue n - 2 popcount(k) of
    sum_i sigma_x^i on each row k. In the even sector W e_x is nonzero only
    on even-parity rows k, so W keeps those and the columns x < 2^(n-1)."""
    rows = np.arange(1 << n, dtype=np.uint32)  # k & x takes 256 MB at width 8192
    if even:
        rows = rows[np.bitwise_count(rows) % 2 == 0]
    parity = np.bitwise_count(rows[:, None] & np.arange(rows.size, dtype=np.uint32)) & 1
    scale = rows.size ** -0.5
    return np.where(parity, -scale, scale), n - 2.0 * np.bitwise_count(rows)


def _pairs(c: np.ndarray) -> np.ndarray:
    """(..., width, 2) real view of a C-contiguous complex array: the two
    columns a real matrix multiplies."""
    return c.view(float).reshape(*c.shape, 2)


def _complex(x: np.ndarray) -> np.ndarray:
    """The complex (..., width) view of real pairs (..., width, 2)."""
    return x.view(complex)[..., 0]


def _levels(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-1j times the distinct eigenvalues, and each eigenvalue's index among them."""
    distinct, index = np.unique(eigs, return_inverse=True)
    return -1j * distinct, index


def _phases(angles: np.ndarray, levels: np.ndarray, index: np.ndarray) -> np.ndarray:
    """exp(-i angle eigenvalue) for each angle, over the eigenvalues in order."""
    return np.exp(np.multiply.outer(angles, levels)).take(index, axis=-1)


__all__ = [
    "CostKind",
    "CircuitSimulator",
    "plus_state",
    "apply_mixer",
]
