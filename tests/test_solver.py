import io
import pickle

import numpy as np
import pytest

from fracch.fem1d import (
    FeFunction,
    UniformMesh1D,
    assemble_mass,
    assemble_stiffness,
    cosine_projection_basis,
    l2_norm,
    l2_project_cosine,
)
from fracch.fracops import cq_weights
from fracch.noise import (
    NoiseSpec,
    ProjectedNoiseTrack,
    path_stream,
    project_increments,
    sample_path,
)
from fracch import solver
from fracch.solver import (
    BLOCK,
    MassDriftError,
    NewtonDivergence,
    SchemeConfig,
    SolutionHistory,
    dump_trajectory,
    initial_state,
    run_path,
    step,
)
from oracles import (
    classic_mixed_be,
    frac_integrated_noise,
    history_mass,
    history_rhs,
    max_laplacian_norm,
    resolvent_kernels,
)


def make_track(mesh, tau, num_steps, seed, num_modes=15, decay=2.0):
    spec = NoiseSpec(decay, num_modes, tau * num_steps, num_steps)
    return project_increments(sample_path(spec, seed), mesh)


def test_config_validation():
    mesh = UniformMesh1D(8)
    good = dict(mesh=mesh, alpha=0.5, gamma=0.5, epsilon=1.0, tau=0.01, num_steps=4)
    SchemeConfig(**good)
    for key, bad in [
        ("alpha", 0.0),
        ("alpha", 1.1),
        ("gamma", -0.1),
        ("gamma", 1.1),
        ("epsilon", 0.0),
        ("tau", 0.0),
        ("num_steps", 0),
        ("newton_max", 0),
    ]:
        with pytest.raises(ValueError):
            SchemeConfig(**{**good, key: bad})
    assert SchemeConfig(**good).t_final == 0.04


def test_zero_data_stays_zero():
    mesh = UniformMesh1D(8)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.3, epsilon=1.0,
                          tau=0.01, num_steps=6)
    hist = run_path(config, "a")
    assert np.all(hist.states_array() == 0.0)
    assert hist.max_mass_drift == 0.0
    for rep in hist.reports:
        assert rep.final_residual <= config.newton_tol
        assert rep.newton_iters == 1


def test_initial_state_cases():
    mesh = UniformMesh1D(64)
    a = initial_state("a", mesh)
    assert np.all(a.coeffs == 0.0)

    b = initial_state("b", mesh)
    x = mesh.nodes()
    assert np.max(np.abs(b.coeffs - 0.05 * np.cos(2 * np.pi * x))) <= 1e-4
    mass = assemble_mass(mesh)
    assert abs(np.ones(65) @ mass.matvec(b.coeffs)) <= 1e-12

    fe = FeFunction(mesh, np.linspace(0, 1, 65))
    assert initial_state(fe, mesh) is fe
    arr = np.linspace(-1, 1, 65)
    assert np.array_equal(initial_state(arr, mesh).coeffs, arr)

    with pytest.raises(ValueError):
        initial_state("c", mesh)
    with pytest.raises(ValueError):
        initial_state(np.zeros(7), mesh)


def test_history_rhs_lag_term():
    mesh = UniformMesh1D(8)
    tau = 0.02
    config = SchemeConfig(mesh=mesh, alpha=0.6, gamma=0.5, epsilon=1.0,
                          tau=tau, num_steps=5)
    track = make_track(mesh, tau, 5, 31)
    hist = run_path(config, "b", track)
    w = cq_weights(config.alpha, config.num_steps)

    assert np.all(history_rhs(hist, w, tau, 1) == 0.0)
    states = hist.states_array()
    a = w.weights
    for n in range(2, 6):
        brute = tau**-config.alpha * sum(
            a[n - j] * (states[j] - states[0]) for j in range(1, n)
        )
        out = history_rhs(hist, w, tau, n)
        assert np.max(np.abs(out - brute)) <= 1e-13 * max(1.0, np.max(np.abs(brute)))

    with pytest.raises(ValueError):
        history_rhs(hist, cq_weights(0.6, 2), tau, 5)
    with pytest.raises(ValueError):
        history_rhs(hist, w, tau, 7)


def test_history_rhs_constant_history():
    # zero initial datum and no noise keep every state at U^0
    mesh = UniformMesh1D(8)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.0, epsilon=1.0,
                          tau=0.01, num_steps=4)
    hist = run_path(config, "a")
    w = cq_weights(0.5, 4)
    for n in range(1, 5):
        assert np.all(history_rhs(hist, w, config.tau, n) == 0.0)


@pytest.mark.parametrize("num_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_sums_match_brute_force(monkeypatch, num_steps):
    # every known right-hand side run_path hands to step, against the
    # per-step GEMV oracles over the run's own states
    mesh = UniformMesh1D(8)
    tau = 1e-3
    track = make_track(mesh, tau, num_steps, 41)
    known = {}

    def spy(hist, config, rhs):
        known[hist.size] = rhs.copy()
        return step(hist, config, rhs)

    monkeypatch.setattr(solver, "step", spy)
    for alpha in (0.3, 1.0):
        for gamma in (0.0, 0.5, 1.0):
            config = SchemeConfig(mesh=mesh, alpha=alpha, gamma=gamma, epsilon=0.5,
                                  tau=tau, num_steps=num_steps)
            known.clear()
            hist = run_path(config, "b", track)
            assert np.any(hist.u0 != 0.0)
            assert sorted(known) == list(range(1, num_steps + 1))
            w = cq_weights(alpha, num_steps)
            for n in range(1, num_steps + 1):
                brute = (tau**-alpha * hist.u0 - history_rhs(hist, w, tau, n)
                         + frac_integrated_noise(track, gamma, tau, n))
                bound = 1e-13 * max(1.0, np.max(np.abs(brute)))
                assert np.max(np.abs(known[n] - brute)) <= bound


def test_reruns_are_byte_identical():
    mesh = UniformMesh1D(16)
    tau = 1e-3
    config = SchemeConfig(mesh=mesh, alpha=0.75, gamma=0.8, epsilon=0.1,
                          tau=tau, num_steps=BLOCK + 5)
    track = make_track(mesh, tau, BLOCK + 5, path_stream(3, 1, 2))
    first = run_path(config, "b", track)
    second = run_path(config, "b", track)
    assert np.array_equal(first.terminal, second.terminal)
    assert np.array_equal(first.states_array(), second.states_array())


def test_singular_newton_matrix_raises():
    mesh = UniformMesh1D(8)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.5, epsilon=1.0,
                          tau=0.01, num_steps=1)
    hist = SolutionHistory(config, initial_state("b", mesh).coeffs)
    hist.workspace.ab_static[:] = 0.0
    with pytest.raises(NewtonDivergence, match="singular") as info:
        step(hist, config, hist.u0)
    assert info.value.step_index == 1
    assert hist.size == 1


def test_mean_carrying_noise_breaks_mass_conservation():
    mesh = UniformMesh1D(8)
    values = np.zeros((5, mesh.num_nodes))
    values[1:] = 1.0  # a constant frame: not mean-zero
    track = ProjectedNoiseTrack(mesh=mesh, tau=0.01, values=values)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.5, epsilon=1.0,
                          tau=0.01, num_steps=4)
    with pytest.raises(MassDriftError, match="mass conservation broke at step 1"):
        run_path(config, "a", track)
    assert issubclass(MassDriftError, RuntimeError)


def test_step_guards():
    mesh = UniformMesh1D(8)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.0, epsilon=1.0,
                          tau=0.01, num_steps=1)
    hist = run_path(config, "a")
    with pytest.raises(RuntimeError):
        step(hist, config, None)
    other = SchemeConfig(mesh=mesh, alpha=0.6, gamma=0.0, epsilon=1.0,
                         tau=0.01, num_steps=1)
    fresh = SolutionHistory(config, np.zeros(9))
    with pytest.raises(ValueError):
        step(fresh, other, None)


def test_newton_reports_and_quadratic_tail():
    mesh = UniformMesh1D(16)
    x = mesh.nodes()
    u0 = 0.8 * np.cos(2 * np.pi * x)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.5, epsilon=0.5,
                          tau=0.05, num_steps=8)
    track = make_track(mesh, 0.05, 8, 17)
    hist = run_path(config, u0, track)
    saw_multistep = False
    for rep in hist.reports:
        assert rep.final_residual <= config.newton_tol
        trace = rep.residual_trace
        # trace carries the pre-iteration residual as its first entry
        assert len(trace) == rep.newton_iters + 1
        if len(trace) >= 2:
            saw_multistep = True
            assert (trace[-1] <= 100.0 * trace[-2] ** 2
                    or trace[-1] <= config.newton_tol)
    assert saw_multistep


def test_mass_conservation_with_noise():
    mesh = UniformMesh1D(32)
    tau = 0.01
    config = SchemeConfig(mesh=mesh, alpha=0.7, gamma=0.4, epsilon=0.1,
                          tau=tau, num_steps=10)
    track = make_track(mesh, tau, 10, 23)
    hist = run_path(config, "b", track)
    u0 = initial_state("b", mesh)
    budget = 1e-10 * (1.0 + l2_norm(u0))
    m0 = history_mass(hist, 0)
    for n in range(hist.size):
        assert abs(history_mass(hist, n) - m0) <= budget
    assert hist.max_mass_drift <= budget
    assert max_laplacian_norm(hist) > 0.0
    assert np.isfinite(max_laplacian_norm(hist))


def test_classical_limit_matches_independent_stepper():
    mesh = UniformMesh1D(16)
    tau = 0.01
    num_steps = 10
    config = SchemeConfig(mesh=mesh, alpha=1.0, gamma=0.0, epsilon=1.0,
                          tau=tau, num_steps=num_steps, newton_tol=1e-13)
    track = make_track(mesh, tau, num_steps, path_stream(7, 0, 0))
    hist = run_path(config, "b", track)
    u0 = initial_state("b", mesh)
    ref = classic_mixed_be(mesh, 1.0, tau, num_steps,
                           track.values[1:], u0.coeffs, tol=1e-13)
    assert np.max(np.abs(hist.states_array() - ref)) <= 1e-12


def test_single_mode_matches_resolvent_kernel():
    # with the cubic term off, one projected cosine mode evolves by the
    # scalar kernel convolution
    mesh = UniformMesh1D(32)
    h = mesh.h
    j = 3
    alpha, gamma, eps = 0.6, 0.4, 0.8
    tau = 0.05
    n_steps = 32
    v = cosine_projection_basis(mesh, j)[:, j - 1]
    lam_h = (6.0 / h**2) * (1.0 - np.cos(j * np.pi * h)) / (2.0 + np.cos(j * np.pi * h))

    # the column really is a generalized eigenvector of (S, M)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    assert np.max(np.abs(stiff.matvec(v) - lam_h * mass.matvec(v))) <= 1e-10

    rng = np.random.default_rng(77)
    s = rng.standard_normal(n_steps)
    values = np.zeros((n_steps + 1, mesh.num_nodes))
    values[1:] = s[:, None] * v
    track = ProjectedNoiseTrack(mesh=mesh, tau=tau, values=values)
    config = SchemeConfig(mesh=mesh, alpha=alpha, gamma=gamma, epsilon=eps,
                          tau=tau, num_steps=n_steps, include_phi=False,
                          newton_tol=1e-12)
    hist = run_path(config, "a", track)

    ker = resolvent_kernels(eps * lam_h, alpha, gamma, tau, n_steps)
    mv = mass.matvec(v)
    denom = v @ mv
    for n in range(1, n_steps + 1):
        coeff = (hist.state(n) @ mv) / denom
        expected = tau * np.dot(ker.q[1 : n + 1][::-1], s[:n])
        assert abs(coeff - expected) <= 1e-10 * max(1.0, abs(expected))


def test_newton_divergence_raises_and_pickles():
    mesh = UniformMesh1D(8)
    x = mesh.nodes()
    u0 = 10.0 * np.cos(2 * np.pi * x)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.0, epsilon=1.0,
                          tau=10.0, num_steps=2, newton_max=1)
    with pytest.raises(NewtonDivergence) as info:
        run_path(config, u0)
    exc = info.value
    assert exc.step_index == 1
    assert len(exc.residuals) >= 1
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.step_index == exc.step_index
    assert clone.residuals == exc.residuals
    assert clone.context == exc.context


def test_run_path_track_validation():
    mesh = UniformMesh1D(8)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.5, epsilon=1.0,
                          tau=0.01, num_steps=8)
    short = make_track(mesh, 0.01, 4, 1)
    with pytest.raises(ValueError):
        run_path(config, "a", short)
    wrong_tau = make_track(mesh, 0.02, 8, 1)
    with pytest.raises(ValueError):
        run_path(config, "a", wrong_tau)


def test_state_indexing():
    mesh = UniformMesh1D(8)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.0, epsilon=1.0,
                          tau=0.01, num_steps=3)
    hist = run_path(config, "b")
    assert hist.size == 4
    assert hist.states_array().shape == (4, 9)
    assert np.array_equal(hist.terminal, hist.state(3))
    assert np.array_equal(hist.u0, hist.state(0))
    with pytest.raises(IndexError):
        hist.state(4)


def test_dump_trajectory_round_trip():
    mesh = UniformMesh1D(4)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.5, epsilon=1.0,
                          tau=0.02, num_steps=3)
    hist = run_path(config, "b", make_track(mesh, 0.02, 3, 2, num_modes=3))
    buf = io.StringIO()
    dump_trajectory(hist, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,t," + ",".join(f"u{i}" for i in range(5))
    assert len(lines) == 1 + hist.size
    for n, line in enumerate(lines[1:]):
        parts = [float(p) for p in line.split(",")]
        assert parts[0] == n
        assert parts[1] == n * config.tau
        assert np.array_equal(np.array(parts[2:]), hist.state(n))
