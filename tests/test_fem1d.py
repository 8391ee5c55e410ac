import numpy as np
import pytest

from fracch.fem1d import (
    FeFunction,
    GaussRule,
    UniformMesh1D,
    assemble_mass,
    assemble_stiffness,
    cosine_projection_basis,
    l2_norm,
    l2_project_cosine,
    nonlinear_load,
)
from oracles import (
    cosine_load_adaptive,
    h1_seminorm,
    load_vector_quadrature,
    nonlinear_jacobian,
    project_mean_zero,
)


def test_mesh_basics():
    mesh = UniformMesh1D(8)
    assert mesh.num_nodes == 9
    assert abs(mesh.h * mesh.num_elements - 1.0) <= 4 * np.finfo(float).eps
    x = mesh.nodes()
    assert np.all(np.diff(x) > 0)
    assert x[0] == 0.0 and x[-1] == 1.0
    with pytest.raises(ValueError):
        UniformMesh1D(1)


def test_mass_matrix_m2_entries():
    mesh = UniformMesh1D(2)
    h = mesh.h
    mass = assemble_mass(mesh)
    assert np.allclose(mass.diag, [h / 3, 2 * h / 3, h / 3], rtol=0, atol=1e-16)
    assert np.allclose(mass.offdiag, [h / 6, h / 6], rtol=0, atol=1e-16)


def test_mass_partition_of_unity():
    for m in (2, 5, 64, 257):
        mass = assemble_mass(UniformMesh1D(m))
        ones = np.ones(m + 1)
        assert abs(ones @ mass.matvec(ones) - 1.0) <= 1e-13
        # interior row sums equal h
        rows = mass.toarray().sum(axis=1)
        assert np.allclose(rows[1:-1], 1.0 / m, atol=1e-15)


def test_mass_positive_definite():
    mass = assemble_mass(UniformMesh1D(16))
    evals = np.linalg.eigvalsh(mass.toarray())
    assert evals.min() > 0.0


def test_stiffness_m2_entries():
    mesh = UniformMesh1D(2)
    h = mesh.h
    stiff = assemble_stiffness(mesh)
    assert np.allclose(stiff.diag, [1 / h, 2 / h, 1 / h], atol=1e-14)
    assert np.allclose(stiff.offdiag, [-1 / h, -1 / h], atol=1e-14)


def test_stiffness_kernel_and_semidefinite():
    rng = np.random.default_rng(11)
    for m in (2, 17, 64):
        mesh = UniformMesh1D(m)
        stiff = assemble_stiffness(mesh)
        assert np.max(np.abs(stiff.matvec(np.ones(m + 1)))) <= 1e-13 / mesh.h
        for _ in range(100 if m == 64 else 10):
            v = rng.standard_normal(m + 1)
            assert v @ stiff.matvec(v) >= -1e-13 * (v @ v)


def test_stiffness_ramp_energy():
    mesh = UniformMesh1D(32)
    x = mesh.nodes()
    stiff = assemble_stiffness(mesh)
    assert abs(x @ stiff.matvec(x) - 1.0) <= 1e-13
    assert abs(h1_seminorm(FeFunction(mesh, x)) - 1.0) <= 1e-13


def test_tridiagonal_solve_roundtrip():
    rng = np.random.default_rng(3)
    mass = assemble_mass(UniformMesh1D(19))
    x = rng.standard_normal(20)
    assert np.allclose(mass.solve(mass.matvec(x)), x, atol=1e-12)
    with pytest.raises(ValueError):
        from fracch.fem1d import SymTridiagonal

        SymTridiagonal(np.ones(3), np.ones(3))


def test_gauss_rule_exactness():
    rule = GaussRule.three_point()
    assert abs(rule.weights.sum() - 1.0) <= 1e-15
    for deg in range(6):
        exact = 1.0 / (deg + 1)
        approx = np.sum(rule.weights * rule.points**deg)
        assert abs(approx - exact) <= 1e-13


def test_projection_convergence_rate():
    # ||P_h e_1 - e_1|| should drop at second order across M = 64,128,256
    errs = []
    for m in (64, 128, 256):
        mesh = UniformMesh1D(m)
        proj = l2_project_cosine(mesh, 1)
        x = np.linspace(0.0, 1.0, 4001)
        ph = np.interp(x, mesh.nodes(), proj.coeffs)
        exact = np.sqrt(2.0) * np.cos(np.pi * x)
        errs.append(np.sqrt(np.trapezoid((ph - exact) ** 2, x)))
    slopes = np.diff(np.log(errs)) / np.log(0.5)
    assert np.all(slopes >= 1.9)


def test_projection_mean_zero_and_orthogonality():
    rng = np.random.default_rng(4)
    mesh_sizes = (8, 16, 32, 64, 128)
    for _ in range(20):
        m = int(rng.choice(mesh_sizes))
        j = int(rng.integers(1, 12))
        mesh = UniformMesh1D(m)
        proj = l2_project_cosine(mesh, j)
        mass = assemble_mass(mesh)
        mean = np.ones(m + 1) @ mass.matvec(proj.coeffs)
        assert abs(mean) <= 1e-12
        # Galerkin orthogonality against every hat function
        load = cosine_load_adaptive(mesh, j)
        residual = load - mass.matvec(proj.coeffs)
        assert np.max(np.abs(residual)) <= 1e-12


def test_projection_basis_matches_single_solves():
    mesh = UniformMesh1D(40)
    basis = cosine_projection_basis(mesh, 6)
    assert basis.shape == (41, 6)
    # cached and shared, so read-only
    assert cosine_projection_basis(UniformMesh1D(40), 6) is basis
    assert not basis.flags.writeable
    for j in range(1, 7):
        single = l2_project_cosine(mesh, j).coeffs
        assert np.allclose(basis[:, j - 1], single, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        cosine_projection_basis(mesh, 0)
    with pytest.raises(ValueError):
        l2_project_cosine(mesh, 0)


def test_projected_cosine_norm_near_one():
    proj = l2_project_cosine(UniformMesh1D(256), 1)
    assert abs(l2_norm(proj) - 1.0) <= 1e-3


def test_nonlinear_load_zero_and_constant():
    mesh = UniformMesh1D(12)
    zero = nonlinear_load(FeFunction(mesh, np.zeros(13)))
    assert np.max(np.abs(zero)) == 0.0
    c = 1.7
    mass = assemble_mass(mesh)
    expected = (c**3 - c) * mass.matvec(np.ones(13))
    got = nonlinear_load(FeFunction(mesh, np.full(13, c)))
    assert np.allclose(got, expected, rtol=0, atol=1e-14)


def test_nonlinear_load_matches_fine_quadrature():
    rng = np.random.default_rng(7)
    mesh = UniformMesh1D(8)
    for _ in range(5):
        u = FeFunction(mesh, rng.standard_normal(9))
        ours = nonlinear_load(u)
        ref = load_vector_quadrature(u, lambda v: v**3 - v)
        assert np.max(np.abs(ours - ref)) <= 1e-13


def test_nonlinear_jacobian_constants():
    mesh = UniformMesh1D(10)
    mass = assemble_mass(mesh)
    j0 = nonlinear_jacobian(FeFunction(mesh, np.zeros(11)))
    assert np.allclose(j0.diag, -mass.diag, atol=1e-15)
    assert np.allclose(j0.offdiag, -mass.offdiag, atol=1e-15)
    j1 = nonlinear_jacobian(FeFunction(mesh, np.ones(11)))
    assert np.allclose(j1.diag, 2.0 * mass.diag, atol=1e-14)
    assert np.allclose(j1.offdiag, 2.0 * mass.offdiag, atol=1e-14)


def test_nonlinear_jacobian_directional_derivative():
    rng = np.random.default_rng(21)
    mesh = UniformMesh1D(24)
    eps = 1e-7
    for _ in range(10):
        u = rng.standard_normal(25)
        v = rng.standard_normal(25)
        f0 = nonlinear_load(FeFunction(mesh, u))
        f1 = nonlinear_load(FeFunction(mesh, u + eps * v))
        jv = nonlinear_jacobian(FeFunction(mesh, u)).matvec(v)
        assert np.linalg.norm((f1 - f0) / eps - jv) <= 1e-6 * np.linalg.norm(jv)


def test_project_mean_zero():
    mesh = UniformMesh1D(16)
    const = project_mean_zero(FeFunction(mesh, np.full(17, 5.0)))
    assert np.max(np.abs(const.coeffs)) <= 1e-14
    x = mesh.nodes()
    ramp = project_mean_zero(FeFunction(mesh, x))
    assert np.allclose(ramp.coeffs, x - 0.5, atol=1e-14)
    # idempotence and the mean-zero certificate
    again = project_mean_zero(ramp)
    assert np.allclose(again.coeffs, ramp.coeffs, atol=1e-15)
    mass = assemble_mass(mesh)
    mean = np.ones(17) @ mass.matvec(ramp.coeffs)
    assert abs(mean) <= 1e-12 * l2_norm(ramp)


def test_norms():
    mesh = UniformMesh1D(9)
    assert abs(l2_norm(FeFunction(mesh, np.ones(10))) - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        FeFunction(mesh, np.ones(9))


def test_assembly_matches_dense_oracle():
    from oracles import dense_mass, dense_stiffness

    mesh = UniformMesh1D(13)
    assert np.allclose(assemble_mass(mesh).toarray(), dense_mass(mesh), atol=1e-15)
    assert np.allclose(
        assemble_stiffness(mesh).toarray(), dense_stiffness(mesh), atol=1e-12
    )
