"""Exact state-vector propagation of the alternating cost/mixer circuit.

Layer k applies the cost phase exp(-i gamma_k H_C) and then the mixer
exp(-i beta_k H_X) with H_X = sum_i sigma_x^i. The cost operator is either
the classical Ising diagonal or the Gibbs-encoding structured operator at a
chosen temperature; the latter is propagated through its cached dense
eigendecomposition, never Trotterized.

The state is carried in the eigenbasis of the cost operator (for the
classical cost, the computational basis), so every cost phase is a diagonal
multiply and the objective is a dot product with the eigenvalues. The mixer
phase is diagonal in the Hadamard basis, or real spin blocks in a rotated
frame that act on the float view of the complex amplitudes (see
CircuitSimulator). Instances without fields carry only the even global-flip
sector, half the amplitudes.

Each phase is exp(-i angle level) over the operator's distinct eigenvalues,
tabulated a chunk of layers at a time. A schedule of angle arrays takes one
exponential per layer, row and level; a Ramp, the angles first + k step of
a linearized schedule, takes two per row and level, and the later layers
are products of those (see _level_table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import EigenDecomposition
from .ising import IsingInstance, energy_table
from .operators import build_sbo, sbo_eigendecomposition

# The classical cost takes the transform mixer step up to 2^FUSED_MAX_SPINS
# carried amplitudes (this many spins, one more in the even sector) and the
# real block step above; the sbo cost always takes the transform. Measured
# at p = 100, one BLAS thread, calls interleaved in one process, as blocks
# over transform time per layer: one schedule 1.04-1.22 at 128 amplitudes
# without fields (0.82-0.97 with) and 0.45-0.84 at 256; four schedules
# 0.77-0.87 at 128 and 0.25-0.59 at 256; 1.37-2.34 at 64. The benchmark runs
# one shape on each side: the toy's 16 amplitudes on the transform and 8192
# (n = 14, no fields) in blocks.
FUSED_MAX_SPINS = 7

# Spins of the block step's widest block, 16 x 16. The pair block at the
# lowest bits takes one spin fewer: its rows of the float view also hold each
# amplitude's real/imaginary pair, so it is 16 x 16 too.
_BLOCK_SPINS = 4

# Bytes of the phase tables (cost and mixer, p K width complex numbers each
# once gathered), tabulated for as many layers at a time as fit (see _run).
# The toy's T = 0.5 battery (K = 48) at p = 100 takes 2.5 MB, one chunk; at
# 1024 amplitudes and K = 48 a table takes 0.8 MB per layer, eight layers a chunk.
_PHASE_TABLE_BYTES = 1 << 24


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


@dataclass(frozen=True)
class Ramp:
    """Angles on a line: layer k = 0 .. layers - 1 takes first + k step.
    Arrays `first` and `step` of shape (K,) give K schedules."""

    first: np.ndarray
    step: np.ndarray
    layers: int

    @property
    def shape(self) -> tuple[int, ...]:
        """(layers, K), as for an angle array."""
        return (self.layers, *np.shape(self.first))

    def __len__(self) -> int:
        """The layer count, as len of an angle array."""
        return self.layers


def plus_state(n: int) -> np.ndarray:
    """Uniform real superposition |+>^n."""
    if n < 1:
        raise ValueError(f"need at least one spin, got {n}")
    dim = 1 << n
    return np.full(dim, dim ** -0.5, dtype=complex)


class CircuitSimulator:
    """Propagates schedules, angle arrays or Ramps, for one instance and one
    cost kind.

    The cost operator (and, for the structured cost, its eigendecomposition)
    is built once in the constructor and shared across every run, which is
    what makes optimizer loops affordable. Runs carry the coefficients c of
    the state in the cost eigenbasis V (V = identity for the classical
    cost): each layer multiplies c by exp(-i gamma eigenvalue), then applies
    the mixer as B^T (mixer phase * B c) with the real transform B = W V,
    W the Hadamard transform. The real matrices act on the state's real and
    imaginary parts as one two-column product per row.

    The classical cost above 2^FUSED_MAX_SPINS amplitudes takes the block
    step instead. Per spin exp(-i beta X) = U R(beta) U^H with U = diag(1, i)
    and the rotation R(beta) = [[cos beta, sin beta], [-sin beta, cos beta]],
    so with U = diag(i^popcount(x)) the mixer is U R(beta)^(x)m U^H on m
    carried bits. The step carries phi = U^H c as one complex array across
    all layers. R(beta)^(x)m acts on its float view, where real and
    imaginary parts interleave, as real blocks: the lowest _BLOCK_SPINS - 1
    spins as one pair block, kron(R^T, I2), that rows of the view multiply,
    and the bits above in groups of at most _BLOCK_SPINS spins, on views of
    two buffers laid out once per run (see _block_views). U^H of one layer
    cancels U of the last, and the cost phase commutes with U, so it stays
    one complex product.

    When every field is zero, |+>, H_X and the cost operator commute with
    the global flip, so the state never leaves the even sector. The
    simulator then carries u = sqrt(2) psi[:2^(n-1)] in the basis
    e_x = (|x> + |~x>)/sqrt(2): V diagonalizes the cost operator's block on
    that sector, W keeps the even-parity Hadamard rows, and the block step
    acts on the low n - 1 spins by the blocks and on the top spin as
    u -> cos(beta) u - i sin(beta) reversed(u). In the frame phi = U^H u
    that is phi -> cos(beta) phi + sin(beta) S reversed(phi), where S =
    -i U^H reversed(U) (reversed reads the complement of x): cos beta joins
    the cost phase, and the rest takes three passes after the blocks (see
    _top_spin_factors).
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
            # the block step reads cos beta and sin beta off exp(-i beta)
            self._mix_levels = np.array([-1j]), None
            self._u = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(width)) % 4]
            self._c0 = self._c0 * self._u.conj()
            self._groups = _spin_groups(width.bit_length() - 1)  # of the carried bits
            if self.sector:  # S of the top-spin step, in the frame of U
                self._top = -1j * self._u.conj() * self._u[::-1]

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
        return EigenDecomposition(self._eig.eigenvalues, _embed(self._eig.eigenvectors.T).T)

    def _run(self, gammas, betas) -> np.ndarray:
        """Final state of a schedule, as coefficients in the cost eigenbasis.

        Angles of shape (p, K), layers on axis 0, or Ramps with (K,) rows,
        run K schedules together and give a (K, width) array. Each row is
        bit-identical to its schedule run alone: every product is taken per
        row, as a matrix times one row (a matrix-matrix product would round
        differently). The phase tables come from _level_table, a chunk of
        layers at a time.
        """
        gammas, betas = _angles(gammas), _angles(betas)
        shape = gammas.shape
        if shape != betas.shape:
            raise ValueError("schedule gamma/beta lengths differ")
        if 0 in shape[1:]:
            raise ValueError(f"a batch needs at least one schedule, got shape {shape}")
        # One row per schedule in c, and as many in d for the products.
        c = np.empty((*shape[1:], self._c0.size), complex)
        d = np.empty_like(c)
        # Per layer the phase tables take at most 2 c.nbytes: the cost table
        # beside its level table, then beside the mixer table. A Ramp also
        # holds up to four level rows: its first layer, omega and two powers.
        fit = (_PHASE_TABLE_BYTES // c.nbytes - 4) // 2
        chunk = 1 << (max(fit, 1).bit_length() - 1)
        if self._b is not None:
            c[...] = self._c0
            for start in range(0, shape[0], chunk):
                self._transform_layers(c, d, gammas, betas, start, start + chunk)
            return c
        # The block step carries phi = U^H c, on views of c and d laid out
        # here: a layer ends in `out`, so the start goes there, and begins in c.
        ((x, y), *above), out = _block_views(c, d, self._groups)
        out[...] = self._c0
        scratch, index = d if out is c else c, self._cost_levels[1]
        reversed_out, scratch_floats = out[..., ::-1], scratch.view(float)
        for start in range(0, shape[0], chunk):
            cost = _level_table(gammas, self._cost_levels[0], start, start + chunk)
            # exp(-i beta) = cos beta - i sin beta, shape (layers, ..., 1)
            mix = _level_table(betas, self._mix_levels[0], start, start + chunk)
            cos_b, sin_b = mix.real, -mix.imag
            pair, *blocks = _mixer_blocks(self._groups, cos_b[..., 0], sin_b[..., 0])
            if self.sector:  # cos beta, kept off zero, joins the cost phase
                fold, tan_b = _top_spin_factors(cos_b, sin_b)
                np.multiply(cost.view(float), fold, cost.view(float))
            for layer, levels in enumerate(cost):
                # gathered per layer: a layers x width table would be slower to read
                levels.take(index, axis=-1, mode="clip", out=scratch)
                np.multiply(out, scratch, c)
                np.matmul(x, pair[layer], y)
                for a, (x_a, y_a) in zip(blocks, above):
                    np.matmul(a[layer], x_a, y_a)
                if self.sector:
                    np.multiply(reversed_out, self._top, scratch)
                    np.multiply(scratch_floats, tan_b[layer], scratch_floats)
                    out += scratch
        return out * self._u

    def _transform_layers(self, c, d, gammas, betas, start, stop) -> None:
        """Layers start .. stop - 1 of the transform step on the complex rows
        c, with d as scratch. The phase tables of these layers live for this
        call only.

        One schedule (1-D angles, Ramps of scalar rows or a batch of one row)
        takes its products by np.dot on the (width, 2) pairs: the dgemm that
        np.matmul calls per row, with the same operands and bits, at less
        dispatch.
        """
        # Each call below writes its third argument (out, by position: the
        # faster call). No product is taken in place: a complex product of
        # length 1 rounds differently in place, which would part a batched
        # row from its solo run at one carried amplitude.
        x, y = _pairs(c), _pairs(d)
        b, bt = self._b, self._b.T
        product = np.matmul
        if c.size == len(b):
            x, y, product = x.reshape(-1, 2), y.reshape(-1, 2), np.dot
        levels, index = self._cost_levels
        cost_ph = _level_table(gammas, levels, start, stop).take(index, axis=-1, mode="clip")
        levels, index = self._mix_levels
        mix_ph = _level_table(betas, levels, start, stop).take(index, axis=-1, mode="clip")
        for cp, mp in zip(cost_ph, mix_ph):
            np.multiply(c, cp, d)
            product(b, y, x)
            np.multiply(c, mp, d)
            product(bt, y, x)

    def run_angles(self, gammas, betas) -> np.ndarray:
        """Final state vector in the computational basis; angles of shape
        (p, K), or Ramps of K rows, give the K final states as rows."""
        u = self._run(gammas, betas)
        if self._eig is not None:
            u = _complex(self._eig.eigenvectors @ _pairs(u))
        return _embed(u) if self.sector else u

    def objective_angles(self, gammas, betas):
        """<psi|H_C|psi> of the final state; the optimization target.

        Angles of shape (p, K), or Ramps of K rows, give an array of the K
        schedules' values. A Ramp's values agree with its angles to rounding,
        from two exponentials per row and level (see _level_table).
        """
        return self._energy(self._run(gammas, betas))

    def _energy(self, c: np.ndarray):
        # a dot product per row: a matrix-vector product would round differently
        return np.vecdot((c * c.conj()).real, self.cost_eigs)

    def probabilities(self, schedule: tuple) -> np.ndarray:
        """Measurement distribution of the final state of (gammas, betas),
        angle arrays or Ramps."""
        return np.abs(self.run_angles(*schedule)) ** 2


def _spin_groups(m: int) -> list[int]:
    """Spins per group of m bits, lowest first: the pair block's (at most
    _BLOCK_SPINS - 1), then near-equal groups of at most _BLOCK_SPINS,
    larger first (13 -> 3, 4, 3, 3)."""
    low = min(m, _BLOCK_SPINS - 1)
    count = -(-(m - low) // _BLOCK_SPINS)
    return [low] + [(m - low + count - 1 - i) // count for i in range(count)]


def _real_blocks(k: int, cos_b, sin_b, pair: bool = False) -> np.ndarray:
    """The rotation R(beta)^(x)k for each (cos beta, sin beta), shape (..., 2^k,
    2^k): entry (i, j) is cos^(k - d) sin^d (-1)^popcount(i & ~j), d =
    popcount(i ^ j). Its transpose is R(-beta)^(x)k; U R U^H, U =
    diag(i^popcount), is exp(-i beta sum sigma_x) on the k spins. With
    `pair`, kron(R(beta)^(x)k, I2), which acts alike on the real and
    imaginary parts of interleaved complex amplitudes."""
    d = np.arange(k + 1)
    w = cos_b[..., None] ** (k - d) * sin_b[..., None] ** d
    i = np.arange(1 << k)
    index = np.bitwise_count(i[:, None] ^ i) + (k + 1) * (np.bitwise_count(i[:, None] & ~i) & 1)
    values = [w, -w]
    if pair:  # entry (2i + r, 2j + s) is entry (i, j) if r == s, else a zero
        values.append(np.zeros_like(w[..., :1]))
        same = np.eye(2, dtype=bool)[:, None, :]
        index = np.where(same, index[:, None, :, None], 2 * k + 2).reshape(2 << k, 2 << k)
    # take, unlike fancy indexing on the last axis, gives contiguous blocks
    return np.concatenate(values, -1).take(index, axis=-1)


def _mixer_blocks(groups: list[int], cos_b, sin_b) -> list[np.ndarray]:
    """R(beta)^(x)k for each spin group: the lowest as the pair block of its
    transpose, R(-beta) = R(beta)^T, since rows of the float view multiply
    it, and each above with a broadcast axis before its rows, for the
    (..., hi, 2^k, below) views of _block_views."""
    low, *rest = groups
    return [_real_blocks(low, cos_b, -sin_b, pair=True)] + [
        _real_blocks(k, cos_b, sin_b)[..., None, :, :] for k in rest]


def _block_views(c: np.ndarray, d: np.ndarray, groups: list[int]) -> tuple[list, np.ndarray]:
    """The float views that the mixer blocks read and write on complex rows
    c (..., 2^m), one (input, output) pair per spin group from the lowest
    bits up, alternating between c and d with c the first input; and the
    buffer, c or d, that holds the result. The pair block multiplies rows
    of the view, where real and imaginary parts interleave; a block of k
    spins above `below` floats multiplies it as (..., hi, 2^k, below)."""
    x, y = c.view(float), d.view(float)
    lead, below = c.shape[:-1], 2 << groups[0]
    views = [(x.reshape(*lead, -1, below), y.reshape(*lead, -1, below))]
    for k in groups[1:]:
        x, y = y, x
        shape = (*lead, -1, 1 << k, below)
        views.append((x.reshape(shape), y.reshape(shape)))
        below <<= k
    return views, d if len(groups) % 2 else c


def _top_spin_factors(cos_b, sin_b) -> tuple[np.ndarray, np.ndarray]:
    """The factors (g, sin(beta) / g) of the top-spin step, g = cos(beta)
    held at least 1e-150 from zero, sign kept (a Ramp's products could give
    cos beta = 0.0). g joins the cost phase before the blocks, which commute
    with the step, and the step takes three passes: d = S reversed(phi),
    d *= sin(beta) / g, phi += d. That gives g phi + sin(beta) S
    reversed(phi), off the exact step by at most 1e-150 times an amplitude."""
    fold = np.copysign(np.maximum(np.abs(cos_b), 1e-150), cos_b)
    return fold, sin_b / fold


def _embed(u: np.ndarray) -> np.ndarray:
    """Computational-basis amplitudes [u, reversed(u)]/sqrt(2) of the
    even-sector coefficients u of a state, or of each row of a stack."""
    return np.concatenate((u, u[..., ::-1]), -1) * np.sqrt(0.5)


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


def _angles(angles):
    """A Ramp as given, or the angles as a float array."""
    return angles if isinstance(angles, Ramp) else np.asarray(angles, dtype=float)


def _level_table(angles, levels: np.ndarray, start: int, stop: int) -> np.ndarray:
    """exp(angle level) over the levels for layers start .. stop - 1:
    shape (layers, ..., len(levels)).

    An angle array takes one exp per entry. A Ramp takes one exp for its
    first layer and one for its step, omega = exp(step level): layer k is
    the first layer times omega^(2^j) for each set bit j of k, lowest first.
    The table fills its layers by doubling (layers s .. 2s - 1 are layers
    0 .. s - 1 times omega^s), then takes the factors of start's bits; start
    must be a multiple of a power of two at least stop - start. No value
    depends on how the layers are split, so a batched row, split more
    finely, keeps the bits of its solo run.
    """
    if not isinstance(angles, Ramp):
        return np.exp(np.multiply.outer(angles[start:stop], levels))
    stop = min(stop, angles.layers)
    # exp(first level) and omega^(2^j), each with the table's leading axis: a
    # product of one element rounds differently when an operand is
    # broadcast, which would part a batched row from its solo run.
    ends = np.exp(np.multiply.outer((angles.first, angles.step), levels))
    table = np.empty((stop - start, *ends.shape[1:]), complex)
    table[:1] = ends[:1]
    power, bits = ends[1:], (stop - 1).bit_length()
    for j in range(bits):
        done = 1 << j
        if done < len(table):
            size = min(done, len(table) - done)
            np.multiply(table[:size], power, table[done:done + size])
        elif start & done:
            table = table * power
        if j + 1 < bits:
            power = power * power
    return table


__all__ = [
    "CostKind",
    "CircuitSimulator",
    "Ramp",
    "plus_state",
]
