"""Convolution quadrature on a uniform time grid.

Backward-Euler generating function: the weights of order ``ell`` are the
coefficients of (1 - z)**ell, i.e. a_j = (-1)**j * binom(ell, j).  Positive
orders discretize a derivative of that order, negative orders an integral.
The weights are generated by the stable two-term recursion

    a_0 = 1,    a_j = a_{j-1} * (j - 1 - ell) / j,

which is accurate to a few ulp for every order in [-1, 1]; a log-gamma
binomial formula is kept in the test suite as an independent oracle.
``cq_block`` cuts a block of rows out of the lower-triangular Toeplitz
matrix of the weights, so a block of convolution sums is one GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz


@dataclass(frozen=True)
class CqWeights:
    """Quadrature weights a_0..a_n for one fractional order."""

    order: float
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


def cq_weights(order: float, n_max: int) -> CqWeights:
    """Weights a_0..a_{n_max} of the backward-Euler rule of given order."""
    if not -1.0 <= order <= 1.0:
        raise ValueError(f"order must lie in [-1, 1], got {order}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    w = np.empty(n_max + 1)
    w[0] = 1.0
    for j in range(1, n_max + 1):
        w[j] = w[j - 1] * (j - 1 - order) / j
    return CqWeights(order, w)


def cq_block(weights: CqWeights, first: int, rows: int, cols: int) -> np.ndarray:
    """Rows first..first+rows-1, columns 0..cols-1 of the lower-triangular
    Toeplitz matrix L[n, j] = a_{n-j} (zero for j > n).

    ``L @ phi`` stacks the convolution sums sum_{j<=n} a_{n-j} phi_j of
    rows n, so one block of steps costs one matrix product (Hairer,
    Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532).
    """
    if first < 0 or rows < 1 or cols < 1:
        raise ValueError(f"bad block first={first}, rows={rows}, cols={cols}")
    if first + rows > len(weights):
        raise ValueError(f"weights too short for rows through {first + rows - 1}")
    w = weights.weights
    top = np.zeros(cols)
    k = min(cols, first + 1)
    top[:k] = w[first::-1][:k]
    return toeplitz(w[first : first + rows], top)
