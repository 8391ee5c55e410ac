import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from fracch.fem1d import (
    FeFunction,
    UniformMesh1D,
    assemble_mass,
    assemble_stiffness,
    cosine_projection_basis,
    l2_norm,
)
from fracch.fracops import cq_weights
from fracch.noise import (
    NoiseSpec,
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
    initial_state,
    run_path,
    step,
    trajectory_csv,
)
from oracles import (
    classic_mixed_be,
    dense,
    dense_mass,
    dense_stiffness,
    frac_integrated_noise,
    frames,
    history_mass,
    history_rhs,
    max_laplacian_norm,
    nodal_track,
    nonlinear_jacobian,
    nonlinear_load,
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
        ("epsilon", math.inf),
        ("epsilon", math.nan),
        ("tau", 0.0),
        ("tau", math.inf),
        ("tau", math.nan),
        ("num_steps", 0),
        ("newton_tol", math.nan),
        ("newton_tol", math.inf),
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

    # the history takes a tag on each mesh or the stacked coefficients verbatim
    configs = [SchemeConfig(mesh=UniformMesh1D(size), alpha=0.5, gamma=0.0, epsilon=1.0,
                            tau=0.01, num_steps=1) for size in (8, 64)]
    hist = SolutionHistory(configs, "b")
    assert np.array_equal(hist.split(hist.u0)[1], b.coeffs)
    arr = np.linspace(-1, 1, 74)
    assert np.array_equal(SolutionHistory(configs, arr).u0, arr)

    for case in ("c", "", "ab", np.zeros(65), FeFunction(mesh, np.zeros(65))):
        with pytest.raises(ValueError, match="unknown initial datum case"):
            initial_state(case, mesh)


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

    def spy(hist, rhs):
        known[hist.size] = rhs.copy()
        return step(hist, rhs)

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


@pytest.mark.parametrize("include_phi", [True, False])
def test_each_step_starts_from_the_residual_of_its_state(monkeypatch, include_phi):
    # step starts from the evaluation carried over from the previous step;
    # its first residual must be the one built afresh from (U, W) and known
    # (with phi: the table_digest path, whose line search halves)
    mesh = UniformMesh1D(8)
    tau, num_steps = 1e-3, 131
    config = SchemeConfig(mesh=mesh, alpha=0.3, gamma=0.0, epsilon=0.5, tau=tau,
                          num_steps=num_steps, include_phi=include_phi)
    starts = []
    evaluations = 0

    def spy(hist, known):
        starts.append((known.copy(), hist.terminal.copy(), hist.w.copy()))
        return step(hist, known)

    def counting_evaluate(*args):
        nonlocal evaluations
        evaluations += 1
        return evaluate(*args)

    evaluate = solver._evaluate
    monkeypatch.setattr(solver, "step", spy)
    monkeypatch.setattr(solver, "_evaluate", counting_evaluate)
    hist = run_path(config, "b", make_track(mesh, tau, num_steps, 41))
    # one evaluation at the start of the path and one per Newton trial;
    # the extra trials are halvings, which only the cubic path makes
    iters = sum(r.newton_iters for r in hist.reports)
    assert (evaluations > iters + 1) if include_phi else (evaluations == iters + 1)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    assert len(starts) == len(hist.reports) == num_steps
    for (known, u, w), report in zip(starts, hist.reports):
        load = nonlinear_load(FeFunction(mesh, u)) if include_phi else 0.0
        res_u = tau**-0.3 * mass.matvec(u) + stiff.matvec(w) - mass.matvec(known)
        res_w = mass.matvec(w) - 0.25 * stiff.matvec(u) - load
        oracle = np.hypot(np.linalg.norm(res_u), np.linalg.norm(res_w))
        assert abs(report.residual_trace[0] - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("num_elements", [2, 3, 8, 64])
def test_band_operator_applies_both_equations(num_elements):
    # the sparse operator built from the Newton band, against the dense
    # blocks of the two equations
    mesh = UniformMesh1D(num_elements)
    eps, tau, alpha = 0.1, 1e-3, 0.6
    config = SchemeConfig(mesh=mesh, alpha=alpha, gamma=0.5, epsilon=eps,
                          tau=tau, num_steps=1)
    op = SolutionHistory(config, np.zeros(mesh.num_nodes)).workspace.op
    mass, stiff = dense_mass(mesh), dense_stiffness(mesh)
    z = np.random.default_rng(num_elements).standard_normal(2 * mesh.num_nodes)
    u, w = z[0::2], z[1::2]
    expected = np.empty_like(z)
    expected[0::2] = tau**-alpha * mass @ u + stiff @ w
    expected[1::2] = mass @ w - eps**2 * stiff @ u
    assert np.max(np.abs(op @ z - expected)) <= 1e-14 * np.max(np.abs(expected))


def band_to_dense(ab):
    """The square matrix held in the LAPACK gbtrf band layout of solver."""
    cols = ab.shape[1]
    out = np.zeros((cols, cols))
    for r in range(cols):
        for c in range(max(0, r - 3), min(cols, r + 4)):
            out[r, c] = ab[6 + r - c, c]
    return out


def spy_factorizations(monkeypatch) -> list:
    """Each Newton matrix solver factors from now on, as a dense array
    captured before gbtrf factors it in place."""
    captured = []
    gbtrf = solver._gbtrf

    def spy(ab, *args, **kwargs):
        captured.append(band_to_dense(ab))
        return gbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(solver, "_gbtrf", spy)
    return captured


@pytest.mark.parametrize("num_elements", [2, 3, 8, 64])
def test_newton_band_is_the_operator_minus_the_oracle_jacobian(monkeypatch, num_elements):
    # the matrix the first step factors, captured before gbtrf factors it
    # in place: A minus the cubic Jacobian at the carried u in the W rows
    # and U columns
    mesh = UniformMesh1D(num_elements)
    config = SchemeConfig(mesh=mesh, alpha=0.6, gamma=0.5, epsilon=0.1,
                          tau=1e-3, num_steps=1)
    u = np.random.default_rng(num_elements).uniform(-2.0, 2.0, mesh.num_nodes)
    hist = SolutionHistory(config, u)
    captured = spy_factorizations(monkeypatch)
    step(hist, u)
    expected = band_to_dense(hist.workspace.ab_static)
    expected[1::2, 0::2] -= dense(nonlinear_jacobian(FeFunction(mesh, u)))
    assert np.max(np.abs(captured[0] - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("halves", [True, False])
def test_one_cubic_evaluation_per_newton_trial(monkeypatch, halves):
    # a path calls the cubic kernel once at its start and once per Newton
    # trial, which without halvings or retries is once per iteration (with
    # them: the table_digest path)
    if halves:
        mesh, tau, num_steps, seed = UniformMesh1D(8), 1e-3, 131, 41
        config = SchemeConfig(mesh=mesh, alpha=0.3, gamma=0.0, epsilon=0.5,
                              tau=tau, num_steps=num_steps)
    else:  # a path whose Newton matrix is refreshed, but never on a retry
        mesh, tau, num_steps, seed = UniformMesh1D(32), 0.01, 10, 23
        config = SchemeConfig(mesh=mesh, alpha=0.7, gamma=0.4, epsilon=0.3,
                              tau=tau, num_steps=num_steps)
    calls = {"kernel": 0, "evaluate": 0}

    def counting(name, fun):
        def counted(*args):
            calls[name] += 1
            return fun(*args)
        return counted

    monkeypatch.setattr(solver, "cubic_terms", counting("kernel", solver.cubic_terms))
    monkeypatch.setattr(solver, "_evaluate", counting("evaluate", solver._evaluate))
    hist = run_path(config, "b", make_track(mesh, tau, num_steps, seed))
    iters = sum(r.newton_iters for r in hist.reports)
    assert calls["kernel"] == calls["evaluate"]
    assert (calls["kernel"] > iters + 1) if halves else (calls["kernel"] == iters + 1)


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
    # the first step factors the Newton matrix; where the linear part of
    # the last mesh is zero, the LU is singular and the step names the mesh
    for sizes in ((8,), (2, 3, 8)):
        configs = halving_configs(sizes)
        hist = SolutionHistory(configs, np.concatenate(
            [initial_state("b", c.mesh).coeffs for c in configs]))
        ws = hist.workspace
        ws.ab_static[:, ws.unknowns[-1]] = 0.0
        with pytest.raises(NewtonDivergence, match="singular Newton matrix") as info:
            step(hist, hist.u0)
        assert (info.value.step_index, info.value.mesh) == (1, len(sizes) - 1)
        assert hist.size == 1


def test_mean_carrying_noise_breaks_mass_conservation():
    mesh = UniformMesh1D(8)
    values = np.zeros((5, mesh.num_nodes))
    values[1:] = 1.0  # a constant frame: not mean-zero
    track = nodal_track(mesh, 0.01, values)
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
        step(hist, None)
    with pytest.raises(ValueError, match="u0 has shape"):
        SolutionHistory(config, np.zeros(7))


def test_newton_reports_and_quadratic_tail(monkeypatch):
    # each iteration shrinks the residual by THETA, or converges, or is
    # followed by a refresh of the LU at its iterate; the iteration after
    # a refresh is an exact Newton step, so its residual is quadratic in
    # the one before
    mesh = UniformMesh1D(16)
    x = mesh.nodes()
    u0 = 0.8 * np.cos(2 * np.pi * x)
    config = SchemeConfig(mesh=mesh, alpha=0.5, gamma=0.5, epsilon=0.5,
                          tau=0.05, num_steps=8)
    track = make_track(mesh, 0.05, 8, 17)
    events = []  # "|" per step, "f" per factorization, "s" per solve

    def logged(name, fun):
        def call(*args, **kwargs):
            events.append(name)
            return fun(*args, **kwargs)
        return call

    monkeypatch.setattr(solver, "_gbtrf", logged("f", solver._gbtrf))
    monkeypatch.setattr(solver, "_gbtrs", logged("s", solver._gbtrs))
    monkeypatch.setattr(solver, "step", logged("|", solver.step))
    hist = run_path(config, u0, track)
    steps = "".join(events).split("|")[1:]
    saw_multistep = False
    for rep, calls in zip(hist.reports, steps, strict=True):
        assert rep.final_residual <= config.newton_tol
        trace = rep.residual_trace
        # trace carries the pre-iteration residual as its first entry
        assert len(trace) == rep.newton_iters + 1 == calls.count("s") + 1
        saw_multistep |= len(trace) > 2
        exact = [before.endswith("f") for before in calls.split("s")[:-1]]
        tol = config.newton_tol * trace[-1] / rep.final_residual
        for i in range(1, len(trace)):
            refreshed_next = i < len(exact) and exact[i]
            assert trace[i] <= solver.THETA * trace[i - 1] or trace[i] <= tol or refreshed_next
            if exact[i - 1]:
                assert trace[i] <= 100.0 * trace[i - 1] ** 2 or trace[i] <= tol
    assert saw_multistep
    assert events.count("f") > 1  # a refresh after the first step's factorization


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


def test_w_is_the_discrete_chemical_potential():
    # W carries no mean constraint: M W = eps^2 S U + F(U) at the terminal U
    mesh = UniformMesh1D(32)
    tau = 0.01
    config = SchemeConfig(mesh=mesh, alpha=0.7, gamma=0.4, epsilon=0.1,
                          tau=tau, num_steps=10)
    hist = run_path(config, "b", make_track(mesh, tau, 10, 23))
    u = hist.terminal
    res = (assemble_mass(mesh).matvec(hist.w)
           - config.epsilon**2 * assemble_stiffness(mesh).matvec(u)
           - nonlinear_load(FeFunction(mesh, u)))
    last = hist.reports[-1]
    scale = last.residual_trace[-1] / last.final_residual  # Newton's 1 + |rhs|
    assert np.linalg.norm(res) <= config.newton_tol * scale


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
                           frames(track)[1:], u0.coeffs, tol=1e-13)
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
    track = nodal_track(mesh, tau, values)
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
    elsewhere = make_track(UniformMesh1D(16), 0.01, 8, 1)
    with pytest.raises(ValueError, match="track on .* for a run on ") as info:
        run_path(config, "a", elsewhere)
    assert "\n" not in str(info.value)


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
    lines = trajectory_csv(hist).strip().split("\n")
    assert lines[0] == "n,t," + ",".join(f"u{i}" for i in range(5))
    assert len(lines) == 1 + hist.size
    for n, line in enumerate(lines[1:]):
        parts = [float(p) for p in line.split(",")]
        assert parts[0] == n
        assert parts[1] == n * config.tau
        assert np.array_equal(np.array(parts[2:]), hist.state(n))


def halving_configs(sizes):
    # the table_digest path (mesh 8), on whose steps the line search halves
    return [
        SchemeConfig(mesh=UniformMesh1D(size), alpha=0.3, gamma=0.0, epsilon=0.5,
                     tau=1e-3, num_steps=131)
        for size in sizes
    ]


@pytest.mark.parametrize("include_phi", [True, False])
def test_lockstep_meshes_match_their_own_runs(include_phi):
    # meshes 2, 8 and 16 in one stack: each makes the Newton iterations of
    # its own run at every step and takes its own run's states, bit for bit
    configs = [replace(c, include_phi=include_phi) for c in halving_configs((2, 8, 16))]
    spec = NoiseSpec(2.0, 15, 131e-3, 131)
    path = sample_path(spec, 41)
    tracks = [project_increments(path, c.mesh) for c in configs]
    stack = run_path(configs, "b", tracks)
    assert not hasattr(stack, "config")
    for k, (config, track) in enumerate(zip(configs, tracks)):
        alone = run_path(config, "b", track)
        mine = stack.reports[k :: len(configs)]
        assert [r.newton_iters for r in mine] == [r.newton_iters for r in alone.reports]
        assert np.array_equal(stack.states_array()[:, stack.workspace.nodes[k]],
                              alone.states_array())
    if include_phi:  # mesh 8 is the table_digest path, whose line search halves
        iters = [r.newton_iters for r in stack.reports[1::3]]
        assert sum(iters) == 1013 and max(iters) == 11


@pytest.mark.parametrize("include_phi", [True, False])
@pytest.mark.parametrize("name", ["spatial", "copies"])
def test_a_stack_is_bit_identical_to_its_members_own_runs(name, include_phi):
    # meshes that are not powers of two: the spatial workload's five with
    # one sample's tracks, or four copies of mesh 20 with one sample each at
    # the criterion 6 row's settings; past one BLOCK, so that the far
    # product sums more than one state.  Each member has its own run's
    # states, W and Newton reports (residual traces included) bit for bit
    steps = BLOCK + 6
    if name == "spatial":
        sizes, paths = (640, 20, 40, 80, 160), [0] * 5
        settings = dict(alpha=0.5, gamma=0.6, epsilon=1.0, tau=0.01 / 256)
    else:
        sizes, paths = (20,) * 4, range(4)
        settings = dict(alpha=0.75, gamma=0.8, epsilon=0.1, tau=1.25e-4)
    configs = [SchemeConfig(mesh=UniformMesh1D(size), num_steps=steps,
                            include_phi=include_phi, **settings) for size in sizes]
    spec = NoiseSpec(1.0, 19, settings["tau"] * steps, steps)
    tracks = [project_increments(sample_path(spec, path_stream(2026, 5, k)), c.mesh)
              for k, c in zip(paths, configs)]
    stack = run_path(configs, "b", tracks)
    for k, (config, track) in enumerate(zip(configs, tracks)):
        alone = run_path(config, "b", track)
        nodes = stack.workspace.nodes[k]
        assert np.array_equal(stack.states_array()[:, nodes], alone.states_array())
        assert np.array_equal(stack.w[nodes], alone.w)
        assert stack.reports[k :: len(configs)] == alone.reports


@pytest.mark.parametrize("include_phi", [True, False])
def test_cubic_rows_are_zero_where_phi_must_not_act(include_phi):
    # h is 0 on the pseudo-elements joining two stacked meshes, and
    # everywhere without phi, so the kernel's rows are exact zeros there;
    # elsewhere they are each mesh's own rows, bit for bit
    configs = [replace(c, include_phi=include_phi) for c in halving_configs((2, 3, 8))]
    ws = solver._Workspace(configs)
    u = np.random.default_rng(3).uniform(-2.0, 2.0, int(ws.bounds[-1]))
    for kernel, count in ((solver.cubic_terms, 2), (solver.cubic_jacobian, 3)):
        rows = kernel(u, ws.h)
        assert rows.shape == (count, u.size - 1)
        if not include_phi:
            assert np.all(rows == 0.0)
            continue
        assert np.all(rows[:, ws.bounds[1:-1] - 1] == 0.0)
        for config, nodes in zip(configs, ws.nodes):
            own = kernel(u[nodes], config.mesh.h)
            assert np.array_equal(rows[:, nodes.start : nodes.stop - 1], own)


@pytest.mark.parametrize("include_phi", [True, False])
def test_newton_band_is_the_derivative_of_the_evaluated_system(monkeypatch, include_phi):
    # central differences of the system the solver evaluates, along each
    # unit direction v, against the band the first step factors times v,
    # on a stack of three meshes; criterion 9's step and bound
    configs = [replace(c, include_phi=include_phi) for c in halving_configs((2, 3, 8))]
    rng = np.random.default_rng(17)
    u = rng.uniform(-2.0, 2.0, 16)
    hist = SolutionHistory(configs, u)
    ws, z = hist.workspace, hist._z.copy()
    captured = spy_factorizations(monkeypatch)
    step(hist, u)
    band, delta = captured[0], 1e-7
    fd = np.empty_like(band)
    for col, v in enumerate(np.eye(z.size)):
        plus, minus = solver._evaluate(ws, z + delta * v), solver._evaluate(ws, z - delta * v)
        fd[:, col] = (plus[0] - minus[0]) / (2 * delta)
    assert np.linalg.norm(fd - band) <= 1e-6 * np.linalg.norm(band)
    assert np.all(fd[band == 0.0] == 0.0)  # nothing couples outside the band


def test_first_stacked_newton_matrix_is_block_diagonal(monkeypatch):
    sizes = (2, 3, 8)
    configs = halving_configs(sizes)
    rng = np.random.default_rng(5)
    u0 = [rng.uniform(-2.0, 2.0, size + 1) for size in sizes]
    captured = spy_factorizations(monkeypatch)
    blocks = []
    for config, u in zip(configs, u0):
        step(SolutionHistory(config, u), u)
        blocks.append(captured[0])
        captured.clear()
    stacked = np.concatenate(u0)
    step(SolutionHistory(configs, stacked), stacked)
    expected = np.zeros_like(captured[0])
    start = 0
    for block in blocks:
        stop = start + block.shape[0]
        expected[start:stop, start:stop] = block
        start = stop
    # zero outside the blocks and each mesh's own matrix, bit for bit, inside
    assert np.array_equal(captured[0], expected)


def test_lockstep_failure_names_the_first_step_then_the_first_mesh():
    # noise frames with a nonzero mean from a given step on make a mesh's
    # mass drift at that step: the first failing step is named, and in it
    # the first failing mesh
    configs = halving_configs((2, 8, 16))

    def drift_from(*starts):
        tracks = []
        for config, start in zip(configs, starts):
            frames_k = np.zeros((132, config.mesh.num_nodes))
            frames_k[start:] = 1.0
            tracks.append(nodal_track(config.mesh, 1e-3, frames_k))
        return tracks

    for starts, failure in (((132, 3, 2), (2, 2)), ((132, 2, 2), (2, 1)),
                            ((4, 2, 2), (2, 1)), ((2, 3, 2), (2, 0))):
        with pytest.raises(MassDriftError) as info:
            run_path(configs, "b", drift_from(*starts))
        assert (info.value.step_index, info.value.mesh) == failure


def test_lockstep_rejects_configs_that_differ_beyond_the_mesh():
    base = halving_configs((4,))[0]
    for change in ({"tau": 2e-3}, {"num_steps": 130}, {"alpha": 0.4},
                   {"newton_tol": 1e-12}):
        configs = [base, replace(base, mesh=UniformMesh1D(8), **change)]
        with pytest.raises(ValueError, match="mesh alone"):
            run_path(configs, "a")
    with pytest.raises(ValueError, match="tracks"):
        run_path([base, replace(base, mesh=UniformMesh1D(8))], "a",
                 [make_track(base.mesh, 1e-3, 131, 1)])
    # meshes 8 and 16 given each other's tracks
    pair = halving_configs((8, 16))
    swapped = [make_track(c.mesh, 1e-3, 131, 1) for c in reversed(pair)]
    with pytest.raises(ValueError, match="track on .* for a run on ") as info:
        run_path(pair, "a", swapped)
    assert "\n" not in str(info.value)


def test_a_mesh_whose_trial_is_not_finite_fails_after_the_others_converge(monkeypatch):
    # mesh 1's part of g is NaN at step 1's first trial: mesh 1 fails and
    # keeps its iterate, meshes 0 and 2 still run to convergence, and then
    # the step raises mesh 1's failure and stores no state
    configs = halving_configs((2, 8, 16))
    path = sample_path(NoiseSpec(2.0, 15, 131e-3, 131), 41)
    tracks = [project_increments(path, c.mesh) for c in configs]
    first = run_path(configs, "b", tracks).reports[:3]  # step 1, mesh after mesh
    evaluate, gbtrs, real_step = solver._evaluate, solver._gbtrs, solver.step
    evaluations, solves, hists = [], [], []

    def poisoned(ws, z, rows=None):
        g, rows = evaluate(ws, z, rows)
        evaluations.append(None)
        if len(evaluations) == 2:  # the history's set-up, then step 1's first trial
            g[ws.unknowns[1]] = np.nan
        return g, rows

    monkeypatch.setattr(solver, "_evaluate", poisoned)
    monkeypatch.setattr(solver, "_gbtrs", lambda *a, **k: solves.append(None) or gbtrs(*a, **k))
    monkeypatch.setattr(solver, "step", lambda h, known: hists.append(h) or real_step(h, known))
    with pytest.raises(NewtonDivergence) as info:
        run_path(configs, "b", tracks)
    failure = info.value
    assert (failure.step_index, failure.mesh) == (1, 1)
    assert len(failure.residuals) == 2
    assert failure.residuals[0] == first[1].residual_trace[0]
    assert not math.isfinite(failure.residuals[1])
    assert len(solves) == max(first[0].newton_iters, first[2].newton_iters)
    assert len(hists) == 1 and hists[0].size == 1


@pytest.mark.parametrize("include_phi", [True, False])
def test_an_overflowing_mesh_leaves_its_neighbours_finite(include_phi):
    # U = 1e200 at mesh 1's first node overflows the cubic on its first
    # element and on the pseudo-element joining it to mesh 0, whose h = 0
    # rows must stay exact zeros; without phi every row is one
    configs = [replace(c, include_phi=include_phi) for c in halving_configs((2, 3, 8))]
    hist = SolutionHistory(configs, np.zeros(16))
    ws, z = hist.workspace, hist._z.copy()
    z[2 * ws.bounds[1]] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        g, rows = solver._evaluate(ws, z)
    finite = [bool(np.all(np.isfinite(g[part]))) for part in ws.unknowns]
    assert finite == ([True, False, True] if include_phi else [True, True, True])
    assert np.all(rows[:, ws.bounds[1:-1] - 1] == 0.0)


def rough_runs(sizes):
    # the criterion 6 row's settings on small meshes, 80 steps to t = 0.01,
    # with one noise path: a path whose LU is never refreshed
    configs = [
        SchemeConfig(mesh=UniformMesh1D(size), alpha=0.75, gamma=0.8, epsilon=0.1,
                     tau=1.25e-4, num_steps=80)
        for size in sizes
    ]
    path = sample_path(NoiseSpec(1.0, 15, 0.01, 80), 41)
    return configs, [project_increments(path, c.mesh) for c in configs]


@pytest.mark.parametrize("sizes", [(32,), (2, 8, 16)])
def test_a_path_that_never_refreshes_factors_once(monkeypatch, sizes):
    # one gbtrf per run_path, at its first step, and one gbtrs per lockstep
    # iteration; a stack shares its one LU
    configs, tracks = rough_runs(sizes)
    calls = {"_gbtrf": 0, "_gbtrs": 0}
    for name in calls:
        def counted(*args, name=name, fun=getattr(solver, name), **kwargs):
            calls[name] += 1
            return fun(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    hist = run_path(configs, "b", tracks)
    lockstep = [max(r.newton_iters for r in hist.reports[n : n + len(sizes)])
                for n in range(0, len(hist.reports), len(sizes))]
    assert calls == {"_gbtrf": 1, "_gbtrs": sum(lockstep)}
    assert sum(lockstep) > 80  # Newton iterates more than once on some steps


def test_a_trial_that_fails_under_an_older_lu_retries_with_an_exact_step(monkeypatch):
    # mesh 1's part of g is NaN at step 2's first trial, whose LU dates
    # from step 1: mesh 1 goes back to its iterate (the trace repeats its
    # first norm), its rows alone are refreshed there, and the path runs
    # on.  The other meshes' factors and so their states stay bit-identical
    configs, tracks = rough_runs((2, 8, 16))
    clean = run_path(configs, "b", tracks)
    evaluate, real_step = solver._evaluate, solver.step
    poison = []

    def poisoned(ws, z, rows=None):
        g, rows = evaluate(ws, z, rows)
        if poison and poison.pop():
            g[ws.unknowns[1]] = np.nan
        return g, rows

    monkeypatch.setattr(solver, "_evaluate", poisoned)
    monkeypatch.setattr(solver, "step",
                        lambda h, known: poison.append(h.size == 2) or real_step(h, known))
    captured = spy_factorizations(monkeypatch)
    hist = run_path(configs, "b", tracks)
    assert len(captured) == 2  # step 1's LU and mesh 1's refresh at step 2
    retried = hist.reports[3 + 1].residual_trace  # step 2, mesh 1
    assert retried[1] == retried[0] and retried[-1] < retried[0]
    mine, theirs = hist.split(hist.terminal), clean.split(clean.terminal)
    for k in (0, 2):
        assert np.array_equal(hist.states_array()[:, hist.workspace.nodes[k]],
                              clean.states_array()[:, clean.workspace.nodes[k]])
    assert np.max(np.abs(mine[1] - theirs[1])) <= 1e-8 * np.max(np.abs(theirs[1]))
    # the refresh replaced mesh 1's Jacobian rows alone
    changed = np.any(captured[1] != captured[0], axis=0)
    assert np.all(changed[: 2 * 3] == 0) and np.all(changed[2 * 12 :] == 0)
    assert np.any(changed[2 * 3 : 2 * 12])


@pytest.mark.parametrize("period", [(8,), (8, 16)])
def test_copies_of_a_period_share_their_first_lu_and_match_their_own_runs(monkeypatch,
                                                                          period):
    # four samples (noise seeds 41-44) of the table_digest path in one
    # stack, each sample's meshes side by side: the first factorization is
    # the period's band alone; the members then refresh at different steps,
    # each refresh factoring the whole band.  Every member has its own
    # run's states and reports, bit for bit, through both phases
    configs = halving_configs(period)
    spec = NoiseSpec(2.0, 15, 131e-3, 131)
    tracks = [[project_increments(sample_path(spec, seed), c.mesh) for c in configs]
              for seed in (41, 42, 43, 44)]
    captured = spy_factorizations(monkeypatch)
    stack = run_path(configs * 4, "b", [t for mine in tracks for t in mine])
    cols = 2 * sum(c.mesh.num_nodes for c in configs)
    assert captured[0].shape == (cols, cols)
    assert len(captured) > 1 and all(c.shape == (4 * cols,) * 2 for c in captured[1:])
    for k, (config, track) in enumerate(zip(configs * 4, sum(tracks, []))):
        alone = run_path(config, "b", track)
        assert np.array_equal(stack.states_array()[:, stack.workspace.nodes[k]],
                              alone.states_array())
        assert stack.reports[k :: len(configs) * 4] == alone.reports


def test_the_first_band_of_a_periodic_stack_is_the_period_band(monkeypatch):
    # three copies of a sample's meshes (2, 8, 16) from one u0 factor the
    # band of one copy, bit for bit the band that the copy factors alone,
    # and solve every copy on it; copies that start apart factor it whole
    configs, tracks = rough_runs((2, 8, 16))
    captured = spy_factorizations(monkeypatch)
    run_path(configs, "b", tracks)
    own = captured.pop()
    stack = run_path(configs * 3, "b", tracks * 3)
    assert len(captured) == 1 and np.array_equal(captured[0], own)
    assert stack.workspace.copies == 3
    one = stack.u0[: stack.u0.size // 3]
    u0 = np.concatenate([one, one, 2.0 * one])
    captured.clear()
    step(SolutionHistory(configs * 3, u0), u0)
    assert captured[0].shape == (2 * u0.size,) * 2
