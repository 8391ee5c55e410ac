import io

import numpy as np
import pytest

from fracch.fem1d import UniformMesh1D, assemble_mass, l2_project_cosine
from fracch.fracops import cq_weights
from fracch.noise import (
    BrownianPath,
    NoiseSpec,
    ProjectedNoiseTrack,
    coarsen,
    increments_csv,
    integrated_noise,
    mode_variances,
    path_stream,
    project_increments,
    sample_path,
)
from fracch.solver import BLOCK
from oracles import frac_integrated_noise


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0, 4, 1.0, 8)
    with pytest.raises(ValueError):
        NoiseSpec(2.0, 0, 1.0, 8)
    with pytest.raises(ValueError):
        NoiseSpec(2.0, 4, 0.0, 8)
    with pytest.raises(ValueError):
        NoiseSpec(2.0, 4, 1.0, 0)
    with pytest.raises(ValueError):
        BrownianPath(NoiseSpec(2.0, 4, 1.0, 8), np.zeros((4, 7)))


def test_mode_variances():
    spec = NoiseSpec(2.0, 4, 1.0, 8)
    assert np.allclose(mode_variances(spec), [1.0, 0.25, 1 / 9, 0.0625], atol=1e-16)
    flat = NoiseSpec(0.0, 5, 1.0, 8)
    assert np.array_equal(mode_variances(flat), np.ones(5))


def test_path_shape_and_tau():
    spec = NoiseSpec(2.0, 3, 2.0, 8)
    path = sample_path(spec, 1)
    assert path.increments.shape == (3, 8)
    assert path.tau == 0.25
    assert path.num_steps == 8


def test_sampling_is_deterministic():
    spec = NoiseSpec(2.0, 5, 1.0, 64)
    a = sample_path(spec, 42)
    b = sample_path(spec, 42)
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(spec, path_stream(9, 3, 7))
    d = sample_path(spec, path_stream(9, 3, 7))
    assert np.array_equal(c.increments, d.increments)


def test_streams_are_distinct():
    spec = NoiseSpec(2.0, 2, 1.0, 32)
    base = sample_path(spec, path_stream(11, 0, 0)).increments
    other_path = sample_path(spec, path_stream(11, 0, 1)).increments
    other_row = sample_path(spec, path_stream(11, 1, 0)).increments
    other_seed = sample_path(spec, path_stream(12, 0, 0)).increments
    for other in (other_path, other_row, other_seed):
        assert not np.array_equal(base, other)


def test_increment_statistics():
    spec = NoiseSpec(2.0, 16, 1.0, 4096)
    path = sample_path(spec, 2024)
    inc = path.increments
    assert np.all(np.isfinite(inc))
    ratios = np.var(inc, axis=1) / path.tau
    assert np.all(ratios >= 0.8) and np.all(ratios <= 1.2)
    corr = np.corrcoef(inc)
    off = corr[~np.eye(16, dtype=bool)]
    assert np.max(np.abs(off)) <= 0.08
    assert np.max(np.abs(inc.mean(axis=1))) <= 5 * np.sqrt(path.tau / 4096)


def test_coarsen_identity_and_total():
    spec = NoiseSpec(1.0, 3, 1.0, 16)
    path = sample_path(spec, 7)
    same = coarsen(path, 1)
    assert np.array_equal(same.increments, path.increments)
    total = coarsen(path, 16)
    assert total.increments.shape == (3, 1)
    assert np.allclose(total.increments[:, 0], path.increments.sum(axis=1),
                       rtol=1e-15, atol=0)
    assert total.tau == 1.0


def test_coarsen_nesting_is_bitwise():
    spec = NoiseSpec(1.0, 4, 1.0, 64)
    path = sample_path(spec, 13)
    twice = coarsen(coarsen(path, 2), 2)
    once = coarsen(path, 4)
    assert np.array_equal(twice.increments, once.increments)
    assert twice.tau == once.tau == 4 * path.tau


def test_coarsen_odd_factor():
    spec = NoiseSpec(1.0, 2, 1.0, 12)
    path = sample_path(spec, 3)
    out = coarsen(path, 3)
    manual = path.increments.reshape(2, 4, 3).sum(axis=2)
    assert np.allclose(out.increments, manual, rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        coarsen(path, 5)
    with pytest.raises(ValueError):
        coarsen(path, 0)


def test_projection_of_zero_path():
    spec = NoiseSpec(2.0, 4, 1.0, 8)
    path = BrownianPath(spec, np.zeros((4, 8)))
    track = project_increments(path, UniformMesh1D(16))
    assert track.num_steps == 8
    assert np.all(track.values == 0.0)


def test_projection_single_unit_increment():
    spec = NoiseSpec(2.0, 3, 1.0, 4)
    inc = np.zeros((3, 4))
    inc[0, 0] = 1.0
    mesh = UniformMesh1D(32)
    track = project_increments(BrownianPath(spec, inc), mesh)
    # gamma_1 = 1, so g^1 = P_h e_1 / tau and every other frame vanishes
    expected = l2_project_cosine(mesh, 1).coeffs / 0.25
    assert np.allclose(track.values[1], expected, rtol=1e-14, atol=0)
    assert np.all(track.values[0] == 0.0)
    assert np.all(track.values[2:] == 0.0)


def test_projection_frames_are_mean_zero():
    spec = NoiseSpec(2.0, 6, 0.5, 10)
    mesh = UniformMesh1D(24)
    track = project_increments(sample_path(spec, 5), mesh)
    mass = assemble_mass(mesh)
    ones = np.ones(mesh.num_nodes)
    for k in range(1, track.num_steps + 1):
        g = track.values[k]
        scale = np.sqrt(g @ mass.matvec(g))
        assert abs(ones @ mass.matvec(g)) <= 1e-12 * scale


def test_frac_integration_gamma_zero_returns_frame():
    spec = NoiseSpec(2.0, 3, 1.0, 8)
    mesh = UniformMesh1D(8)
    track = project_increments(sample_path(spec, 21), mesh)
    for n in (1, 4, 8):
        out = frac_integrated_noise(track, 0.0, track.tau, n)
        assert np.array_equal(out, track.values[n])


def test_frac_integration_of_constant_track():
    mesh = UniformMesh1D(8)
    g = np.sin(np.arange(9.0))
    tau = 0.125
    values = np.tile(g, (9, 1))
    values[0] = 0.0
    track = ProjectedNoiseTrack(mesh=mesh, tau=tau, values=values)
    for n in (1, 5, 8):
        out = frac_integrated_noise(track, 1.0, tau, n)
        assert np.allclose(out, n * tau * g, rtol=1e-14, atol=1e-16)


def test_frac_integration_brute_force():
    rng = np.random.default_rng(30)
    mesh = UniformMesh1D(4)
    for tau in (1.0, 0.3):
        values = rng.standard_normal((7, 5))
        values[0] = 0.0
        track = ProjectedNoiseTrack(mesh=mesh, tau=tau, values=values)
        for gamma in (0.25, 0.6, 1.0):
            a = cq_weights(-gamma, 6).weights
            for n in (1, 3, 6):
                brute = tau**gamma * sum(
                    a[n - k] * values[k] for k in range(1, n + 1)
                )
                out = frac_integrated_noise(track, gamma, tau, n)
                assert np.max(np.abs(out - brute)) <= 1e-13


def test_frac_integration_validation():
    mesh = UniformMesh1D(4)
    values = np.zeros((5, 5))
    track = ProjectedNoiseTrack(mesh=mesh, tau=0.25, values=values)
    with pytest.raises(ValueError):
        frac_integrated_noise(track, 0.5, 0.25, 0)
    with pytest.raises(ValueError):
        frac_integrated_noise(track, 0.5, 0.25, 5)
    with pytest.raises(ValueError):
        frac_integrated_noise(track, 0.5, 0.3, 2)
    with pytest.raises(ValueError):
        frac_integrated_noise(track, 0.5, 0.25, 2, weights=cq_weights(-0.4, 8))
    with pytest.raises(ValueError):
        frac_integrated_noise(track, 0.5, 0.25, 4, weights=cq_weights(-0.5, 2))
    # a matching precomputed table reproduces the internal path exactly
    w = cq_weights(-0.5, 8)
    a = frac_integrated_noise(track, 0.5, 0.25, 3, weights=w)
    b = frac_integrated_noise(track, 0.5, 0.25, 3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("num_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_noise_matches_brute_force(num_steps):
    rng = np.random.default_rng(num_steps)
    mesh = UniformMesh1D(4)
    tau = 0.01
    values = rng.standard_normal((num_steps + 1, 5))
    values[0] = 0.0
    track = ProjectedNoiseTrack(mesh=mesh, tau=tau, values=values)
    for gamma in (0.0, 0.5, 1.0):
        weights = cq_weights(-gamma, num_steps)
        for first in range(1, num_steps + 1, BLOCK):
            rows = min(BLOCK, num_steps + 1 - first)
            out = integrated_noise(track, weights, first, rows)
            assert out.shape == (rows, 5)
            if gamma == 0.0:
                assert np.array_equal(out, values[first : first + rows])
            for i in range(rows):
                brute = frac_integrated_noise(track, gamma, tau, first + i)
                bound = 1e-13 * max(1.0, np.max(np.abs(brute)))
                assert np.max(np.abs(out[i] - brute)) <= bound
    with pytest.raises(ValueError):
        integrated_noise(track, weights, 0, 1)
    with pytest.raises(ValueError):
        integrated_noise(track, weights, num_steps, 2)


def test_projected_variance_matches_theory():
    spec = NoiseSpec(2.0, 3, 1.0, 8)
    mesh = UniformMesh1D(16)
    mass = assemble_mass(mesh)
    basis = np.column_stack(
        [l2_project_cosine(mesh, j).coeffs for j in (1, 2, 3)]
    )
    gram = basis.T @ np.column_stack([mass.matvec(basis[:, i]) for i in range(3)])
    gamma = mode_variances(spec)
    exact = (gram**2 * gamma[:, None]).sum(axis=0) * spec.t_final

    num = 10_000
    samples = np.empty((num, 3))
    for i in range(num):
        track = project_increments(sample_path(spec, path_stream(99, 0, i)), mesh)
        w_final = track.values[1:].sum(axis=0) * track.tau
        samples[i] = basis.T @ mass.matvec(w_final)
    ratios = samples.var(axis=0) / exact
    assert np.all(ratios >= 0.8) and np.all(ratios <= 1.2)
    assert np.max(np.abs(samples.mean(axis=0)) / np.sqrt(exact / num)) <= 5.0


def test_dump_round_trip():
    spec = NoiseSpec(2.0, 2, 1.0, 3)
    path = sample_path(spec, 8)
    text = increments_csv(path)
    lines = text.strip().split("\n")
    assert lines[0] == "j,k,increment"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert float(first[2]) == path.increments[0, 0]

    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    rebuilt = np.zeros((2, 3))
    for j, k, v in data:
        rebuilt[int(j) - 1, int(k) - 1] = v
    assert np.array_equal(rebuilt, path.increments)
