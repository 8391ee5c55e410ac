"""Sampling, coarsening and projection of the driving Q-Wiener noise.

The noise is W(t) = sum_j gamma_j^{1/2} beta_j(t) e_j with eigenfunctions
e_j(x) = sqrt(2) cos(j pi x) and mode variances gamma_j = j^{-m}.
Increments are always sampled on the finest time grid of a study; coarser
grids are produced by summing consecutive fine increments, so every
resolution of a convergence sweep sees the same Brownian path.

Reproducibility contract (pinned so that study output is byte-stable):

* one counter-based Philox stream per sample path, derived as
  ``SeedSequence(entropy=master_seed, spawn_key=(row_key, path_index))``,
  see :func:`path_stream`;
* standard normals via the inverse CDF applied to half-integer lattice
  uniforms u = (k + 1/2) * 2**-53 with k drawn uniformly from
  [0, 2**53); this is exactly symmetric and never evaluates the CDF
  inverse at 0 or 1.

Coarsening sums pairs first while the factor is even, so that composing
power-of-two coarsenings is bitwise identical to coarsening once by the
product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from fracch.fem1d import UniformMesh1D, cosine_projection_basis
from fracch.fracops import CqWeights, cq_block

_LATTICE = 2.0**-53


@dataclass(frozen=True)
class NoiseSpec:
    """Shape of the noise: mode count, variance decay and sampling grid."""

    decay_exponent: float
    num_modes: int
    t_final: float
    num_fine_steps: int

    def __post_init__(self):
        if self.decay_exponent < 0.0:
            raise ValueError(f"decay_exponent must be >= 0, got {self.decay_exponent}")
        if self.num_modes < 1:
            raise ValueError(f"num_modes must be >= 1, got {self.num_modes}")
        if self.t_final <= 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.num_fine_steps < 1:
            raise ValueError(f"num_fine_steps must be >= 1, got {self.num_fine_steps}")


def mode_variances(spec: NoiseSpec) -> np.ndarray:
    """gamma_j = j^{-m} for j = 1..num_modes."""
    j = np.arange(1, spec.num_modes + 1, dtype=float)
    return j**-spec.decay_exponent


@dataclass(frozen=True)
class BrownianPath:
    """Unscaled standard Brownian increments, one row per mode."""

    spec: NoiseSpec
    increments: np.ndarray

    def __post_init__(self):
        expected = (self.spec.num_modes, self.spec.num_fine_steps)
        if self.increments.shape != expected:
            raise ValueError(
                f"increments shape {self.increments.shape} does not match "
                f"spec {expected}"
            )

    @property
    def tau(self) -> float:
        return self.spec.t_final / self.spec.num_fine_steps

    @property
    def num_steps(self) -> int:
        return self.increments.shape[1]


def path_stream(master_seed: int, row_key: int, path_index: int) -> np.random.SeedSequence:
    """The documented per-path stream derivation."""
    return np.random.SeedSequence(
        entropy=master_seed, spawn_key=(row_key, path_index)
    )


def sample_path(spec: NoiseSpec, seed) -> BrownianPath:
    """Draw the full increment matrix; deterministic for a given seed.

    ``seed`` may be an integer or a ``numpy.random.SeedSequence``.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    k = rng.integers(0, 1 << 53, size=(spec.num_modes, spec.num_fine_steps),
                     dtype=np.uint64)
    normals = ndtri((k.astype(np.float64) + 0.5) * _LATTICE)
    tau = spec.t_final / spec.num_fine_steps
    return BrownianPath(spec, np.sqrt(tau) * normals)


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """Sum blocks of ``factor`` consecutive increments.

    While the factor is even adjacent pairs are summed, so coarsening by 2
    twice gives bit-identical results to coarsening by 4 once.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    n = path.num_steps
    if n % factor != 0:
        raise ValueError(f"factor {factor} does not divide {n} steps")
    inc = path.increments
    f = factor
    while f % 2 == 0:
        inc = inc[:, 0::2] + inc[:, 1::2]
        f //= 2
    if f > 1:
        rows, cols = inc.shape
        inc = inc.reshape(rows, cols // f, f).sum(axis=2)
    spec = replace(path.spec, num_fine_steps=n // factor)
    return BrownianPath(spec, inc)


@dataclass(frozen=True)
class ProjectedNoiseTrack:
    """Finite element coefficients g^0..g^N of the scaled noise increments.

    g^0 = 0 by convention and g^k = tau^{-1} * sum_j gamma_j^{1/2}
    dbeta_j^k P_h e_j for k >= 1.  Every g^k is mean-zero because the
    projected cosines are.
    """

    mesh: UniformMesh1D
    tau: float
    values: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.values.shape[0] - 1


def project_increments(path: BrownianPath, mesh: UniformMesh1D) -> ProjectedNoiseTrack:
    """Project the increment rows onto the mesh and scale by 1/tau."""
    basis = cosine_projection_basis(mesh, path.spec.num_modes)  # (nodes, L)
    weights = np.sqrt(mode_variances(path.spec))
    g = basis @ (weights[:, None] * path.increments) / path.tau
    values = np.zeros((path.num_steps + 1, mesh.num_nodes))
    values[1:] = g.T
    return ProjectedNoiseTrack(mesh=mesh, tau=path.tau, values=values)


def integrated_noise(
    track: ProjectedNoiseTrack, weights: CqWeights, first: int, rows: int
) -> np.ndarray:
    """Noise terms b^n = tau^gamma sum_{k<=n} a^(-gamma)_{n-k} g^k for
    n = first..first+rows-1, one row each, from one GEMM.

    ``weights`` has order -gamma and length > first + rows - 1.  For
    gamma = 0 the rows are g^first.. bit for bit.
    """
    last = first + rows - 1
    if first < 1 or last > track.num_steps:
        raise ValueError(f"steps {first}..{last} outside 1..{track.num_steps}")
    # rows n, columns k = 1..last of a_{n-k}; g^0 stays out of the sum
    block = cq_block(weights, first - 1, rows, last)
    return track.tau ** -weights.order * (block @ track.values[1 : last + 1])


def increments_csv(path: BrownianPath) -> str:
    """Rows ``j,k,increment`` (1-based mode and step indices)."""
    lines = ["j,k,increment"]
    for j in range(path.spec.num_modes):
        for k in range(path.num_steps):
            lines.append(f"{j + 1},{k + 1},{path.increments[j, k]:.17g}")
    return "\n".join(lines) + "\n"
