"""Piecewise-linear finite elements on a uniform grid of the unit interval.

Everything works on the full nodal space of the Neumann problem: both
boundary nodes carry degrees of freedom and no basis function is
eliminated.  No mean-zero constraint is built in either: the stepper
needs none, because testing against constants conserves the mean, and
the projected noise is mean-zero because the cosines are.  So every
matrix here is symmetric tridiagonal.

The nonlinearity used throughout is the double-well derivative
``phi(u) = u**3 - u``; its load vector and Jacobian are integrated with a
3-point Gauss rule, which is exact for these polynomial integrands.
:func:`cubic_terms` gives the load from one product and
:func:`cubic_jacobian` the Jacobian from another.  They lay u's Gauss
values out (points, elements): numpy's elementwise loops then run over
the few hundred elements rather than over three points.
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


@lru_cache(maxsize=16)
def cosine_projection_basis(mesh: UniformMesh1D, count: int) -> np.ndarray:
    """Projected cosines for wavenumbers 1..count as columns of a matrix.

    Column j-1 holds the nodal coefficients of the L2 projection of
    sqrt(2)*cos(j*pi*x); one mass solve with many right-hand sides.
    Every resolution of a temporal study projects onto the same mesh, and
    a spatial study of case "b" takes ten bases (its noise's and its
    initial datum's on each of five meshes), so sixteen are cached; a
    basis is returned read-only because callers share it.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    loads = _cosine_loads(mesh, np.arange(1, count + 1))
    basis = assemble_mass(mesh).solve(loads.T)
    basis.setflags(write=False)
    return basis


# The one rule the cubic terms use, built once.  _LOAD_WEIGHTS maps the
# rows v^3 - v (at the three points) to each element's two loads, and
# _JACOBIAN_WEIGHTS the rows v^2 and 1 to its LL, RR and LR Jacobian
# entries, the 1 carrying -int chi_i chi_j.
GAUSS3 = GaussRule.three_point()
_P, _W = GAUSS3.points, GAUSS3.weights
_Q = 1.0 - _P
_LOAD_WEIGHTS = np.array([_W * _Q, _W * _P])
_JACOBIAN_WEIGHTS = np.zeros((3, 4))
_JACOBIAN_WEIGHTS[:, :3] = [3.0 * _W * _Q**2, 3.0 * _W * _P**2, 3.0 * _W * _P * _Q]
_JACOBIAN_WEIGHTS[:, 3] = [-_W @ _Q**2, -_W @ _P**2, -_W @ (_P * _Q)]


def _cubic_rows(u: np.ndarray, h, jacobian: bool) -> np.ndarray:
    """The load rows of phi(u) per element, or its Jacobian rows.  ``h`` is the
    element size, or one size per element, applied after the product, so an
    element's rows have the same bits either way; where h is 0 the rows are
    exact zeros, even where u is not finite."""
    v = _P[:, None] * (u[1:] - u[:-1])
    v += u[:-1]
    buf = np.empty((3 + jacobian, v.shape[1]))
    np.multiply(v, v, out=buf[:3])
    if jacobian:
        buf[3] = 1.0
    else:
        buf *= v
        buf -= v
    rows = (_JACOBIAN_WEIGHTS if jacobian else _LOAD_WEIGHTS) @ buf
    if isinstance(h, np.ndarray):
        return np.multiply(rows, h, out=np.zeros(rows.shape), where=h != 0.0)
    return rows * h


def cubic_terms(u: np.ndarray, h) -> np.ndarray:
    """Rows (left load, right load) of phi(u) per element, shaped (2,
    elements): the load vector adds them at the nodes u[:-1] and u[1:]."""
    return _cubic_rows(u, h, jacobian=False)


def cubic_jacobian(u: np.ndarray, h) -> np.ndarray:
    """Rows (LL, RR, LR) of phi'(u) per element, shaped (3, elements): the
    Jacobian's diagonal adds rows 0 and 1 at the nodes u[:-1] and u[1:],
    and row 2 is its off-diagonal."""
    return _cubic_rows(u, h, jacobian=True)


def l2_norm(u: FeFunction) -> float:
    q = u.coeffs @ assemble_mass(u.mesh).matvec(u.coeffs)
    return float(np.sqrt(max(q, 0.0)))
