"""Dense reference operators that the tests check the structured
propagation against, and the mixer of the simulator's block step composed
into a standalone operator."""

import numpy as np

from gibbs_qaoa.evolution import _block_views, _mixer_blocks, _spin_groups, _top_spin_factors


def densified_mixer(n: int) -> np.ndarray:
    """Dense sum_i sigma_x^i on n spins."""
    dim = 1 << n
    m = np.zeros((dim, dim))
    idx = np.arange(dim)
    for b in range(n):
        m[idx, idx ^ (1 << b)] = 1.0
    return m


def top_spin_signs(m: int) -> np.ndarray:
    """S of the top-spin step u -> cos(beta) u - i sin(beta) reversed(u) in
    the rotated frame phi = (-i)^popcount(x) u, on m carried bits:
    phi -> cos(beta) phi + sin(beta) S reversed(phi). reversed reads the
    complement x~, and u(x~) = i^(m - popcount(x)) phi(x~), so
    S = -i^(m+1) (-1)^popcount(x)."""
    parity = np.where(np.bitwise_count(np.arange(1 << m)) & 1, -1.0, 1.0)
    return -np.array([1, 1j, -1, -1j])[(m + 1) % 4] * parity


def rotated_mixer(psi, beta, even=False):
    """exp(-i beta sum_i sigma_x^i) by the simulator's block step, as
    U . blocks . U^H with U = diag(i^popcount(x)).

    The state enters the rotated frame phi = U^H psi, the real blocks
    R(beta)^(x)n act on the float view of phi, where real and imaginary
    parts interleave, and U takes it back. Per spin this is U R(beta) U^H
    with U = diag(1, i) and the rotation R(beta) = [[cos beta, sin beta],
    [-sin beta, cos beta]]. With `even`, psi holds even-sector coefficients:
    phi first takes the fold g (which the simulator puts in the cost phase)
    and the blocks are followed by the top-spin step's three passes. psi may
    be a stack of states (..., 2^n) with one angle each in beta (shape ...).
    """
    n = psi.shape[-1].bit_length() - 1
    q = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(1 << n)) % 4]
    phi = psi * q.conj()  # (-i)^popcount(x) psi
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    if even:
        fold, tan_b = _top_spin_factors(np.asarray(cos_b)[..., None], np.asarray(sin_b)[..., None])
        phi *= fold
    groups = _spin_groups(n)
    scratch = np.empty_like(phi)
    ((x, y), *above), out = _block_views(phi, scratch, groups)
    pair, *blocks = _mixer_blocks(groups, cos_b, sin_b)
    np.matmul(x, pair, y)
    for a, (x_a, y_a) in zip(blocks, above):
        np.matmul(a, x_a, y_a)
    if even:
        other = scratch if out is phi else phi
        np.multiply(out[..., ::-1], top_spin_signs(n), other)
        other *= tan_b
        out += other
    return out * q
