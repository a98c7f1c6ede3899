"""Independent reference propagators for the benchmark's output checks.

Everything here is derived from the instance's couplings and fields alone,
not from gibbs_qaoa's operator or evolution code: dense exponentials via
numpy.linalg.eigh at small n, and a per-axis tensordot propagator for the
classical cost at any n.
"""

from __future__ import annotations

import numpy as np


def spins(n: int) -> np.ndarray:
    """(2**n, n) spin values; bit b of the basis index is spin b+1, 1 = up."""
    idx = np.arange(1 << n)
    return np.where((idx[:, None] >> np.arange(n)) & 1, 1.0, -1.0)


def energies(inst) -> np.ndarray:
    s = spins(inst.n)
    e = -(s @ np.asarray(inst.fields, dtype=float))
    for (i, j), v in inst.couplings.items():
        e -= v * s[:, i - 1] * s[:, j - 1]
    return e


def sbo_dense(inst, temperature: float) -> np.ndarray:
    """Dense H_S(T): diag sum_i exp((H_i - alpha)/T), -exp(-alpha/T) on every
    single-flip pair, with H_i = -s_i (sum_j J_ij s_j + h_i)."""
    n = inst.n
    s = spins(n)
    local_field = np.tile(np.asarray(inst.fields, dtype=float), (1 << n, 1))
    for (i, j), v in inst.couplings.items():
        local_field[:, i - 1] += v * s[:, j - 1]
        local_field[:, j - 1] += v * s[:, i - 1]
    local = -s * local_field
    alpha = np.abs(local).max()
    h = np.diag(np.exp((local - alpha) / temperature).sum(axis=1))
    idx = np.arange(1 << n)
    for b in range(n):
        h[idx, idx ^ (1 << b)] = -np.exp(-alpha / temperature)
    return h


def mixer_dense(n: int) -> np.ndarray:
    """Dense sum_i X_i."""
    idx = np.arange(1 << n)
    m = np.zeros((1 << n, 1 << n))
    for b in range(n):
        m[idx, idx ^ (1 << b)] = 1.0
    return m


def dense_final_state(cost: np.ndarray, gammas, betas) -> np.ndarray:
    """|+> propagated by exp(-i gamma_k H_C) then exp(-i beta_k sum X), with
    both exponentials taken from numpy.linalg.eigh of the dense operators."""
    dim = cost.shape[0]
    n = dim.bit_length() - 1
    wc, vc = np.linalg.eigh(cost)
    wm, vm = np.linalg.eigh(mixer_dense(n))
    psi = np.full(dim, dim ** -0.5, dtype=complex)
    for g, b in zip(gammas, betas):
        psi = vc @ (np.exp(-1j * g * wc) * (vc.T @ psi))
        psi = vm @ (np.exp(-1j * b * wm) * (vm.T @ psi))
    return psi


def tensordot_objective(inst, gammas, betas) -> float:
    """Classical-cost objective <psi|E|psi>, propagating the state as an
    n-axis tensor with one 2x2 mixer rotation contracted per axis."""
    n = inst.n
    e = energies(inst).reshape((2,) * n)
    psi = np.full((2,) * n, 2.0 ** (-n / 2), dtype=complex)
    for g, b in zip(gammas, betas):
        psi = psi * np.exp(-1j * g * e)
        rot = np.array([[np.cos(b), -1j * np.sin(b)], [-1j * np.sin(b), np.cos(b)]])
        for axis in range(n):
            psi = np.moveaxis(np.tensordot(rot, psi, axes=([1], [axis])), 0, axis)
    return float(np.sum(e * np.abs(psi) ** 2))
