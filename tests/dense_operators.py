"""Dense reference operators that the tests check the structured
propagation against."""

import numpy as np


def densified_mixer(n: int) -> np.ndarray:
    """Dense sum_i sigma_x^i on n spins."""
    dim = 1 << n
    m = np.zeros((dim, dim))
    idx = np.arange(dim)
    for b in range(n):
        m[idx, idx ^ (1 << b)] = 1.0
    return m
