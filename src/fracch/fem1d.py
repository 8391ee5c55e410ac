"""Piecewise-linear finite elements on a uniform grid of the unit interval.

Everything works on the full nodal space of the Neumann problem: both
boundary nodes carry degrees of freedom and no basis function is
eliminated.  Mean-zero constraints are imposed algebraically by the
callers (projection, or a scalar Lagrange multiplier in the stepper),
which keeps every matrix here symmetric tridiagonal.

The nonlinearity used throughout is the double-well derivative
``phi(u) = u**3 - u``; its load vector and Jacobian are integrated with a
3-point Gauss rule, which is exact for these polynomial integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded


@dataclass(frozen=True)
class UniformMesh1D:
    """Uniform partition of [0, 1] into ``num_elements`` cells."""

    num_elements: int

    def __post_init__(self):
        if self.num_elements < 2:
            raise ValueError(
                f"mesh needs at least 2 elements, got {self.num_elements}"
            )

    @property
    def h(self) -> float:
        return 1.0 / self.num_elements

    @property
    def num_nodes(self) -> int:
        return self.num_elements + 1

    def nodes(self) -> np.ndarray:
        return np.arange(self.num_nodes) / self.num_elements


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix stored as its two defining diagonals."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be exactly one entry shorter than diag")

    @property
    def dim(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        ab = np.zeros((3, self.dim))
        ab[0, 1:] = self.offdiag
        ab[1] = self.diag
        ab[2, :-1] = self.offdiag
        return solve_banded((1, 1), ab, rhs)


@dataclass(frozen=True)
class GaussRule:
    """Quadrature nodes and weights on the reference element [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @staticmethod
    def three_point() -> "GaussRule":
        # exact for polynomials up to degree 5
        s = np.sqrt(0.6)
        return GaussRule(
            points=(1.0 + np.array([-s, 0.0, s])) / 2.0,
            weights=np.array([5.0, 8.0, 5.0]) / 18.0,
        )


@dataclass(frozen=True)
class FeFunction:
    """Piecewise-linear function given by its nodal values."""

    mesh: UniformMesh1D
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) != self.mesh.num_nodes:
            raise ValueError(
                f"expected {self.mesh.num_nodes} coefficients, "
                f"got {len(self.coeffs)}"
            )


def assemble_mass(mesh: UniformMesh1D) -> SymTridiagonal:
    """Mass matrix of the hat basis; boundary rows carry half hats."""
    h = mesh.h
    diag = np.full(mesh.num_nodes, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    return SymTridiagonal(diag, np.full(mesh.num_elements, h / 6.0))


def assemble_stiffness(mesh: UniformMesh1D) -> SymTridiagonal:
    """Stiffness matrix (Neumann: singular, kernel spanned by constants)."""
    h = mesh.h
    diag = np.full(mesh.num_nodes, 2.0 / h)
    diag[0] = diag[-1] = 1.0 / h
    return SymTridiagonal(diag, np.full(mesh.num_elements, -1.0 / h))


def _cosine_loads(mesh: UniformMesh1D, wavenumbers: np.ndarray) -> np.ndarray:
    """Exact hat loads of sqrt(2)*cos(j*pi*x), one row per wavenumber j.

    On each element the integral of the cosine against the two hat
    segments has a closed form, so no quadrature error enters.
    """
    w = np.asarray(wavenumbers, dtype=float)[:, None] * np.pi
    x = mesh.nodes()
    a, b = x[None, :-1], x[None, 1:]
    h = mesh.h
    ca, cb = np.cos(w * a), np.cos(w * b)
    # int_a^b cos(w x) * (b-x)/h dx  and  int_a^b cos(w x) * (x-a)/h dx
    left = ((ca - cb) / w**2 - h * np.sin(w * a) / w) / h
    right = ((cb - ca) / w**2 + h * np.sin(w * b) / w) / h
    loads = np.zeros((w.shape[0], mesh.num_nodes))
    loads[:, :-1] += left
    loads[:, 1:] += right
    return np.sqrt(2.0) * loads


def l2_project_cosine(mesh: UniformMesh1D, wavenumber: int) -> FeFunction:
    """L2 projection of sqrt(2)*cos(wavenumber*pi*x) onto the mesh."""
    if wavenumber < 1:
        raise ValueError(f"wavenumber must be >= 1, got {wavenumber}")
    load = _cosine_loads(mesh, np.array([wavenumber]))[0]
    return FeFunction(mesh, assemble_mass(mesh).solve(load))


@lru_cache(maxsize=8)
def cosine_projection_basis(mesh: UniformMesh1D, count: int) -> np.ndarray:
    """Projected cosines for wavenumbers 1..count as columns of a matrix.

    Column j-1 holds the nodal coefficients of the L2 projection of
    sqrt(2)*cos(j*pi*x); one mass solve with many right-hand sides.
    Every resolution of a temporal study projects onto the same mesh, so
    the basis is cached; it is returned read-only because callers share it.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    loads = _cosine_loads(mesh, np.arange(1, count + 1))
    basis = assemble_mass(mesh).solve(loads.T)
    basis.setflags(write=False)
    return basis


# The one rule the cubic terms use, built once; its products with the hat
# shape functions are folded into fixed weight vectors.
GAUSS3 = GaussRule.three_point()
_P, _W = GAUSS3.points, GAUSS3.weights
_Q = 1.0 - _P
_LOAD_L, _LOAD_R = _W * _Q, _W * _P
_JAC_LL, _JAC_RR, _JAC_LR = _W * _Q**2, _W * _P**2, _W * _P * _Q


def gauss_values(u: FeFunction) -> np.ndarray:
    """Values of u at the Gauss points of GAUSS3, shaped (elements, points)."""
    c = u.coeffs
    return c[:-1, None] * _Q + c[1:, None] * _P


def cubic_load(values: np.ndarray, h: float) -> np.ndarray:
    """Load vector of phi(u) = u^3 - u from u's :func:`gauss_values`."""
    # two products: numpy's general power made values**3 most of the cost
    phi = values * values * values - values
    out = np.zeros(values.shape[0] + 1)
    out[:-1] += h * (phi @ _LOAD_L)
    out[1:] += h * (phi @ _LOAD_R)
    return out


def cubic_jacobian(values: np.ndarray, h: float) -> SymTridiagonal:
    """Jacobian of :func:`cubic_load`: entries int (3u^2-1) chi_i chi_j."""
    psi = 3.0 * values**2 - 1.0
    diag = np.zeros(values.shape[0] + 1)
    diag[:-1] += h * (psi @ _JAC_LL)
    diag[1:] += h * (psi @ _JAC_RR)
    return SymTridiagonal(diag, h * (psi @ _JAC_LR))


def l2_norm(u: FeFunction) -> float:
    q = u.coeffs @ assemble_mass(u.mesh).matvec(u.coeffs)
    return float(np.sqrt(max(q, 0.0)))
