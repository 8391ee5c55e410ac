import concurrent.futures
import io
import json
import math
import operator
from dataclasses import asdict, replace

import numpy as np
import pytest

from fracch.fem1d import FeFunction, UniformMesh1D
from fracch.harness import (
    ConfigError,
    ErrorTable,
    ExperimentPlan,
    effective_regularity,
    ensure_valid,
    fit_rate,
    linear_oracle_table,
    nominal_regularity,
    pairwise_rates,
    plan_from_json,
    run_study,
    table_text,
    theoretical_rate,
    validate_config,
)
from fracch import cli, harness
from fracch.solver import MassDriftError, NewtonDivergence
from oracles import error_norm, frames, nodal_track, read_table, strict_temporal_rate


def test_theoretical_rate_pinned_values():
    cases = [
        # (alpha, gamma, beta) -> fixed-time temporal order
        ((0.5, 0.3, 1.5), 0.238),
        ((0.75, 0.3, 1.5), 0.456),
        ((0.75, 0.3, 2.0), 0.550),
        ((0.75, 0.5, 2.0), 0.750),
        ((0.5, 0.8, 2.0), 0.800),
        ((0.75, 0.8, 2.0), 1.000),
        ((0.5, 0.3, 2.0), 0.300),
    ]
    for (alpha, gamma, beta), expected in cases:
        got = theoretical_rate(alpha, gamma, beta).temporal_fixed_time
        assert abs(round(got, 3) - expected) <= 1e-12

    # strict (uniform-in-time) order carries the extra alpha/2 cap
    assert abs(strict_temporal_rate(0.75, 0.8, 2.0) - 0.375) <= 1e-12
    assert abs(strict_temporal_rate(0.5, 0.3, 1.5) - 0.2375) <= 1e-12


def test_theoretical_rate_spatial():
    assert abs(theoretical_rate(0.5, 0.6, 2.0).spatial - 2.0) <= 1e-12
    assert abs(theoretical_rate(0.5, 0.6, 1.5).spatial - 1.5) <= 1e-12
    # weak noise integral: beta > 2 branch of the reduction
    summary = theoretical_rate(0.5, 0.0, 3.0)
    assert abs(summary.reduction - 1.0) <= 1e-12
    assert abs(summary.spatial - 1.0) <= 1e-12
    # threshold itself reports no reduction
    at = theoretical_rate(0.5, 0.25, 2.0)
    assert at.reduction == 0.0


def test_theoretical_rate_validation():
    with pytest.raises(ValueError):
        theoretical_rate(0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        theoretical_rate(0.5, 1.5, 2.0)
    with pytest.raises(ValueError):
        theoretical_rate(0.5, 0.5, 0.9)
    with pytest.raises(ValueError):
        theoretical_rate(0.5, 0.5, 3.1)


def test_regularity_helpers():
    assert nominal_regularity(1.0) == 2.0
    assert nominal_regularity(2.0) == 2.5
    assert nominal_regularity(4.0) == 3.0
    assert abs(effective_regularity(1.0) - 1.99) <= 1e-15
    assert abs(effective_regularity(0.0) - 1.49) <= 1e-15
    assert effective_regularity(10.0) == 3.0


def test_validate_config_examples():
    clean = ExperimentPlan(alpha=0.5, gamma=0.3, decay_exponent=1.0,
                           resolutions=(4, 8), reference=16, mesh_size=8)
    assert validate_config(clean) == []
    assert ensure_valid(clean) == []

    # flat mode variances push the moment exponent negative
    warned = ExperimentPlan(alpha=0.25, gamma=0.0, decay_exponent=0.0,
                            resolutions=(4, 8), reference=16, mesh_size=8)
    diags = validate_config(warned)
    assert len(diags) == 1
    assert diags[0].level == "warning"
    assert "eta = -0.344" in diags[0].message
    assert ensure_valid(warned) == diags

    bad = ExperimentPlan(gamma=1.5, resolutions=(4, 8), reference=16)
    assert any(d.level == "error" for d in validate_config(bad))
    with pytest.raises(ConfigError):
        ensure_valid(bad)


def test_validate_config_structure_errors():
    divides = ExperimentPlan(resolutions=(3, 7), reference=16, mesh_size=8)
    msgs = [d.message for d in validate_config(divides) if d.level == "error"]
    assert any("does not divide" in m for m in msgs)

    unsorted = ExperimentPlan(resolutions=(8, 4), reference=16, mesh_size=8)
    assert any(d.level == "error" for d in validate_config(unsorted))

    nested = ExperimentPlan(study="spatial", resolutions=(6, 12), reference=20,
                            num_steps=4)
    msgs = [d.message for d in validate_config(nested) if d.level == "error"]
    assert any("not nested" in m for m in msgs)

    for plan, text in (
        (ExperimentPlan(resolutions=(4, 8), reference=16, mesh_size=8, num_modes=0),
         "num_modes must be >= 1"),
        (ExperimentPlan(resolutions=(0, 4), reference=16, mesh_size=8),
         "temporal resolution must be >= 1"),
        (ExperimentPlan(study="spatial", resolutions=(4, 8), reference=16, num_steps=0),
         "num_steps must be >= 1"),
        (ExperimentPlan(study="spatial", resolutions=(1, 8), reference=16, num_steps=4),
         "spatial resolution must be >= 2"),
    ):
        msgs = [d.message for d in validate_config(plan) if d.level == "error"]
        assert any(text in m for m in msgs), msgs


def test_plan_from_json_aliases():
    plan = plan_from_json({"m": 1.0, "seed": 7, "T": 0.5, "case": "b"})
    assert plan.decay_exponent == 1.0
    assert plan.master_seed == 7
    assert plan.t_final == 0.5
    assert plan.case == "b"

    text = json.dumps({"study": "spatial", "resolutions": [4, 8], "reference": 16})
    plan2 = plan_from_json(text)
    assert plan2.study == "spatial"
    assert plan2.resolutions == (4, 8)

    plan3 = plan_from_json(io.StringIO(text))
    assert plan3 == plan2

    for bad in [
        {"tau": 0.1},
        {"resolutions": 20},
        {"resolutions": [4, 8.5]},
        {"samples": 1.5},
        {"workers": True},
        {"num_modes": "3"},
        {"t_final": math.inf},
        {"alpha": math.nan},
        {"epsilon": False},
        "[1, 2]",
    ]:
        with pytest.raises(ConfigError):
            plan_from_json(bad)
    # null stays allowed where the field is optional
    assert plan_from_json({"epsilon": None, "num_modes": None}) == ExperimentPlan()


def test_resolved_properties():
    a = ExperimentPlan(case="a")
    b = ExperimentPlan(case="b")
    assert a.resolved_epsilon == 1.0
    assert b.resolved_epsilon == 0.1
    assert ExperimentPlan(case="b", epsilon=2.5).resolved_epsilon == 2.5

    assert ExperimentPlan(mesh_size=64).resolved_modes == 63
    assert ExperimentPlan(study="spatial", resolutions=(20, 40)).resolved_modes == 19
    assert ExperimentPlan(num_modes=5).resolved_modes == 5

    p1 = ExperimentPlan(case="a")
    p2 = ExperimentPlan(case="a")
    p3 = ExperimentPlan(case="b")
    assert p1.row_key == p2.row_key
    assert p1.row_key != p3.row_key
    # samples and workers do not enter the stream key
    assert ExperimentPlan(samples=3, workers=2).row_key == ExperimentPlan().row_key


def test_fit_rate_and_pairwise():
    res = (10, 20, 40, 80)
    errs = [2.7 * n**-0.61 for n in res]
    assert abs(fit_rate(res, errs) - 0.61) <= 1e-10
    pw = pairwise_rates(res, errs)
    assert len(pw) == 3
    assert np.allclose(pw, 0.61, atol=1e-10)

    assert math.isnan(fit_rate((10,), [1.0]))
    assert math.isnan(fit_rate(res, [1.0, 0.0, 1.0, 1.0]))


def test_error_norm():
    mesh = UniformMesh1D(4)
    three = FeFunction(mesh, np.full(5, 3.0))
    four = FeFunction(mesh, np.full(5, 4.0))
    assert abs(error_norm([three, four]) - 5.0 / math.sqrt(2.0)) <= 1e-13
    assert abs(error_norm([three]) - 3.0) <= 1e-13
    with pytest.raises(ValueError):
        error_norm([])


def test_emit_read_round_trip(tmp_path):
    table = ErrorTable(
        resolutions=(20, 40, 80),
        errors=(3.22e-3, 2.28e-3, 1.54e-3),
        pairwise_rates=(0.4981, 0.5661),
        fitted_rate=0.532123456789,
        theoretical_rate=0.61,
        samples=100,
    )
    text = table_text(table)
    lines = text.strip().split("\n")
    assert lines[0] == "resolution,error,pairwise_rate"
    assert len(lines) == 1 + 3 + 2
    assert lines[1].endswith(",")  # no pairwise slot on the first row
    assert lines[-2].startswith("fitted_rate,")
    assert lines[-1].startswith("theoretical_rate,")

    back = read_table(io.StringIO(text))
    assert back.resolutions == table.resolutions
    assert back.errors == table.errors
    assert back.pairwise_rates == table.pairwise_rates
    assert back.fitted_rate == table.fitted_rate
    assert back.theoretical_rate == table.theoretical_rate

    dest = tmp_path / "row.csv"
    dest.write_text(text)
    assert read_table(dest).errors == table.errors

    empty = ErrorTable(resolutions=(), errors=(), pairwise_rates=(),
                       fitted_rate=float("nan"), theoretical_rate=0.5)
    with pytest.raises(ValueError):
        table_text(empty)
    with pytest.raises(ValueError):
        read_table(io.StringIO("x,y\n1,2\n"))


def tiny_temporal_plan(**overrides):
    base = dict(
        study="temporal",
        case="b",
        alpha=0.75,
        gamma=0.8,
        decay_exponent=1.0,
        t_final=0.02,
        resolutions=(4, 8),
        reference=16,
        samples=3,
        master_seed=5,
        mesh_size=16,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def test_reference_consistency_zero_error():
    plan = tiny_temporal_plan(resolutions=(16,), samples=1)
    table = run_study(plan)
    assert table.errors == (0.0,)
    assert math.isnan(table.fitted_rate)
    assert table.pairwise_rates == ()


def test_temporal_study_determinism():
    plan = tiny_temporal_plan()
    t1 = run_study(plan)
    t2 = run_study(tiny_temporal_plan())
    assert t1.errors == t2.errors
    assert table_text(t1) == table_text(t2)
    assert t1.samples == 3
    assert t1.dropped == ()
    assert all(e > 0.0 for e in t1.errors)
    assert t1.errors[0] > t1.errors[1]


def test_worker_count_does_not_change_results():
    serial = run_study(tiny_temporal_plan())
    parallel = run_study(tiny_temporal_plan(workers=2))
    assert serial.errors == parallel.errors
    assert serial.fitted_rate == parallel.fitted_rate


def tiny_spatial_plan(**overrides):
    base = dict(
        study="spatial",
        case="a",
        alpha=0.5,
        gamma=0.5,
        decay_exponent=2.0,
        t_final=0.02,
        resolutions=(4, 8),
        reference=16,
        num_steps=8,
        samples=2,
        master_seed=9,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def test_tiny_spatial_study():
    plan = tiny_spatial_plan()
    table = run_study(plan)
    assert table.samples == 2
    assert len(table.errors) == 2
    assert all(e > 0.0 for e in table.errors)
    again = run_study(plan)
    assert table.errors == again.errors
    assert table.theoretical_rate == theoretical_rate(0.5, 0.5, 2.5).spatial


@pytest.mark.parametrize("tiny_plan", [tiny_temporal_plan, tiny_spatial_plan])
def test_batches_give_the_tables_of_one_sample_at_a_time(monkeypatch, tiny_plan):
    # two full batches and a part batch, in one process and in two: each
    # table is byte-identical to the one made one sample at a time
    plans = [tiny_plan(samples=2 * harness.BATCH + 3, workers=w) for w in (1, 2)]
    batched = [table_text(run_study(plan)) for plan in plans]
    monkeypatch.setattr(harness, "BATCH", 1)
    assert batched == [table_text(run_study(plan)) for plan in plans]


def test_divergence_policies():
    # an unreachable tolerance turns every Newton solve into a failure;
    # abort reports the lowest failing index for any axis and worker count
    for tiny_plan in (tiny_temporal_plan, tiny_spatial_plan):
        for workers in (1, 2):
            abort = tiny_plan(newton_tol=1e-300, newton_max=1, samples=2,
                              workers=workers)
            with pytest.raises(NewtonDivergence) as info:
                run_study(abort)
            assert "sample 0" in info.value.context
            assert info.value.context.startswith("sample 0, reference ")

            drop = tiny_plan(newton_tol=1e-300, newton_max=1, samples=2,
                             workers=workers, policy="drop")
            with pytest.raises(RuntimeError, match="dropped"):
                run_study(drop)


def test_mass_drift_policies(monkeypatch, tmp_path, capsys):
    # sample 1 gets noise frames with a nonzero mean, so its mass drifts;
    # its path is found by its own stream and followed through coarsen
    marked = []

    def sample(spec, seed):
        path = real_sample(spec, seed)
        if seed.spawn_key[-1] == 1:
            marked.append(path)
        return path

    def coarse(path, factor):
        noise = real_coarsen(path, factor)
        if any(path is one for one in marked):
            marked.append(noise)
        return noise

    def project(path, mesh):
        track = real_project(path, mesh)
        if any(path is one for one in marked):
            values = frames(track)
            values[1:] += 1.0
            track = nodal_track(mesh, track.tau, values)
        return track

    real_sample, real_coarsen = harness.sample_path, harness.coarsen
    real_project = harness.project_increments
    monkeypatch.setattr(harness, "sample_path", sample)
    monkeypatch.setattr(harness, "coarsen", coarse)
    monkeypatch.setattr(harness, "project_increments", project)

    for tiny_plan, axis in ((tiny_temporal_plan, "steps"), (tiny_spatial_plan, "mesh")):
        table = run_study(tiny_plan(samples=3, policy="drop"))
        assert table.dropped == (1,)
        assert table.samples == 2
        # the CLI writes the table and names the dropped samples on stderr
        cfg, out = tmp_path / f"{axis}.json", tmp_path / f"{axis}.csv"
        cfg.write_text(json.dumps(asdict(tiny_plan(samples=3, policy="drop"))))
        assert cli.main(["study", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == "dropped samples: [1]\n"
        assert out.read_text() == table_text(table)
        for workers in (1, 2):
            with pytest.raises(MassDriftError) as info:
                run_study(tiny_plan(samples=3, workers=workers))
            # every mesh of sample 1 drifts at step 1: the reference is named
            # first, also where all meshes run in one lockstep stack
            assert info.value.context == f"sample 1, reference {axis} 16"
            assert "at step 1 (sample 1, reference" in str(info.value)


def test_a_batch_projects_one_runs_tracks_at_a_time(monkeypatch):
    # each run_path gets exactly the tracks projected since the one before,
    # so a batch does not project every resolution's tracks up front
    projected, runs = [], []

    def project(path, mesh):
        projected.append(real_project(path, mesh))
        return projected[-1]

    def run(configs, case, tracks):
        assert len(tracks) == len(projected)
        assert all(map(operator.is_, tracks, projected))
        runs.append(len(tracks))
        projected.clear()
        return real_run(configs, case, tracks)

    real_project, real_run = harness.project_increments, harness.run_path
    monkeypatch.setattr(harness, "project_increments", project)
    monkeypatch.setattr(harness, "run_path", run)
    plan = tiny_temporal_plan(samples=3)
    run_study(plan)
    assert runs == [3] * (len(plan.resolutions) + 1)


def test_the_process_pool_is_no_larger_than_its_work(monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # process starts; two batches take two workers, not 64
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    plan = tiny_temporal_plan(samples=harness.BATCH + 1, workers=64)
    assert table_text(run_study(plan)) == table_text(run_study(replace(plan, workers=1)))
    assert sizes == [2]


def test_linear_oracle_table_small():
    table = linear_oracle_table(0.75, mesh_size=32, resolutions=(5, 10, 20), t_final=0.02)
    assert table.samples == 1
    assert table.theoretical_rate == 1.0
    assert all(e > 0.0 for e in table.errors)
    assert table.errors[0] > table.errors[-1]
    assert 0.9 <= table.fitted_rate <= 1.4
