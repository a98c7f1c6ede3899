"""Dense reference operators that the tests check the structured
propagation against, and the mixer of the simulator's block step composed
into a standalone operator."""

import numpy as np

from gibbs_qaoa.evolution import _apply_blocks, _real_blocks, _spin_groups, _top_spin_signs, _top_spin_step


def densified_mixer(n: int) -> np.ndarray:
    """Dense sum_i sigma_x^i on n spins."""
    dim = 1 << n
    m = np.zeros((dim, dim))
    idx = np.arange(dim)
    for b in range(n):
        m[idx, idx ^ (1 << b)] = 1.0
    return m


def rotated_mixer(psi, beta, even=False):
    """exp(-i beta sum_i sigma_x^i) by the simulator's block step, as
    Qbar . blocks . Q with Q = diag(i^popcount(x)).

    The state enters the rotated frame phi = Q psi and takes the frame's
    parity sign (-1)^popcount(x), which the simulator joins to the cost
    phase; the real blocks (cos beta Z + sin beta X)^(x)n act on its real and
    imaginary planes, and Qbar takes it back. Per spin this is
    P (cos beta Z + sin beta X) P with P = diag(1, -i). With `even`, psi
    holds even-sector coefficients and the top-spin step follows the
    blocks. psi may be a stack of states (..., 2^n) with one angle each in
    beta (shape ...).
    """
    n = psi.shape[-1].bit_length() - 1
    q = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(1 << n)) % 4]
    phi = psi * q.conj()  # Q psi times (-1)^popcount(x)
    x = np.stack((phi.real, phi.imag), -2)
    y = np.empty_like(x)
    x, y = _apply_blocks(x, y, [_real_blocks(k, beta) for k in (_spin_groups(n) if n else [])])
    if even:
        beta = np.asarray(beta, dtype=float)[..., None, None]
        _top_spin_step(x, y, *_top_spin_signs(n), np.cos(beta), np.sin(beta))
    return (x[..., 0, :] + 1j * x[..., 1, :]) * q.conj()
