"""Tests of the benchmark itself, on tiny plans; they finish in seconds.

    python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import run
from tracer import TARGETS, Tracer, _fracch_modules

sys.path.insert(0, str(run.SRC))
import fracch  # noqa: E402
from fracch import harness  # noqa: E402
from fracch.fem1d import GaussRule  # noqa: E402

TINY = {
    "temporal": {
        "study": "temporal", "case": "b", "alpha": 0.75, "gamma": 0.8, "m": 1.0,
        "mesh_size": 16, "reference": 16, "resolutions": [2, 4, 8],
        "samples": 2, "policy": "drop",
    },
    "spatial": {
        "study": "spatial", "case": "a", "alpha": 0.5, "gamma": 0.6, "m": 1.0,
        "reference": 16, "resolutions": [4, 8], "num_steps": 8,
        "samples": 2, "policy": "drop",
    },
}


def tiny(study):
    return harness.plan_from_json(TINY[study])


def bindings():
    """Every attribute of every fracch module, plus the Gauss rule."""
    out = {
        (mod.__name__, key): value
        for mod in _fracch_modules()
        for key, value in vars(mod).items()
    }
    out[("GaussRule", "three_point")] = vars(GaussRule)["three_point"]
    return out


@pytest.mark.parametrize("study", sorted(TINY))
def test_traced_table_is_byte_identical(study):
    plain = run.study_once(harness, tiny(study), traced=False)
    traced = run.study_once(harness, tiny(study), traced=True)
    assert plain["error"] is None and traced["error"] is None
    assert harness.table_text(traced["table"]) == harness.table_text(plain["table"])
    assert traced["tracer"].absent == []


def test_every_wrapper_is_restored():
    before = bindings()
    with Tracer() as tracer:
        assert bindings() != before
        harness.run_study(tiny("temporal"))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.counts["solver.step"] > 0


def test_wrappers_are_restored_when_the_study_raises():
    before = bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(bindings()[k] is v for k, v in before.items())


@pytest.mark.parametrize("study", sorted(TINY))
def test_spans_nest(study):
    with Tracer() as tracer:
        harness.run_study(tiny(study))
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, sample in spans:
        assert end >= start
        if parent >= 0:
            _, p_start, p_end, _, p_sample = spans[parent]
            assert p_start <= start and end <= p_end
            assert sample == p_sample or spans[parent][0] == "harness.run_study"
            child[parent] += end - start
    for (name, start, end, _, _), inner in zip(spans, child):
        assert inner <= end - start
    summary = tracer.summary()
    assert all(entry["self_s"] >= 0.0 for entry in summary.values())
    samples = {span[4] for span in spans if span[0] == "solver.run_path"}
    assert samples == {0, 1}


def test_missing_targets_read_as_absent():
    extra = (
        ("noise.fused", "fracch.noise", "no_such_function", "span"),
        ("gone.module", "fracch.no_such_module", "f", "span"),
        ("fem1d.gone_rule", "fracch.fem1d", "GaussRule.no_such_rule", "count"),
    )
    with Tracer(TARGETS + extra) as tracer:
        harness.run_study(tiny("spatial"))
    assert tracer.absent == ["noise.fused", "gone.module", "fem1d.gone_rule"]
    summary = tracer.summary()
    assert all(summary[name]["calls"] == 0 for name, *_ in extra)


def test_escaped_exception_is_one_failed_line(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("mass conservation broke at step 3:\n drift 1e-9")

    monkeypatch.setattr(fracch.harness, "run_path", broken)
    plan = tiny("temporal")
    reps = run.study_reps(harness, plan, 0.0, modes=(False,))
    assert len(reps) == 1 and reps[0]["table"] is None
    assert reps[0]["error"] == "RuntimeError: mass conservation broke at step 3: drift 1e-9"
    reps[0]["text"] = None
    problems, reasons = run.check_reps("temporal_rough", 1, reps, {})
    assert problems == [] and reasons == [reps[0]["error"]]
    assert run.account(plan, reps, problems) == (2, 2)


def fake_table(workload, errors, dropped=()):
    plan = run.WORKLOADS[workload]["plan"]
    return harness.ErrorTable(
        resolutions=tuple(plan["resolutions"]), errors=tuple(errors),
        pairwise_rates=(), fitted_rate=1.0, theoretical_rate=1.0,
        samples=plan["samples"] - len(dropped), dropped=tuple(dropped),
    )


def test_table_gate_against_recorded_errors():
    recorded = run.load_recorded()
    seed = run.DEFAULT_SEED
    for workload, entry in recorded.items():
        want = entry["errors"]
        near = [e * (1 + run.RTOL / 3) for e in want]
        far = [want[0] * (1 + 3 * run.RTOL)] + want[1:]
        assert run.check_table(workload, seed, fake_table(workload, near), recorded) == []
        assert run.check_table(workload, seed, fake_table(workload, far), recorded)


def test_table_gate_invariants_for_other_seeds():
    good = [4e-3, 2e-3, 1e-3, 5e-4]
    assert run.check_table("temporal_rough", 1, fake_table("temporal_rough", good), {}) == []
    bumpy = [4e-3, 5e-3, 1e-3, 5e-4]
    assert run.check_table("temporal_rough", 1, fake_table("temporal_rough", bumpy), {})
    assert run.check_table("temporal_smooth", 1, fake_table("temporal_smooth", bumpy), {}) == []
    nan = [4e-3, float("nan"), 1e-3, 5e-4]
    assert run.check_table("temporal_smooth", 1, fake_table("temporal_smooth", nan), {})
    dropped = fake_table("spatial", good, dropped=(1,))
    assert run.check_table("spatial", 1, dropped, {})


def test_failed_check_fails_every_sample():
    plan = tiny("temporal")
    reps = run.study_reps(harness, plan, 0.0, modes=(False,))
    assert run.account(plan, reps, []) == (6, 0)
    assert run.account(plan, reps, ["errors differ"]) == (6, 6)


def benchmark_doc():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_each_workload_says_why_in_benchmark_json():
    workloads = benchmark_doc()["workloads"]
    assert [w["name"] for w in workloads] == list(run.WORKLOADS)
    for w in workloads:
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200


def test_traced_run_reports_every_per_layer_metric():
    plan = tiny("temporal")
    reps = run.study_reps(harness, plan, 0.0, modes=(False, True))
    untraced = [rep for rep in reps if rep["tracer"] is None]
    traced = [rep for rep in reps if rep["tracer"] is not None]
    assert len(untraced) == len(traced) == run.MIN_REPS
    metrics = run.layer_metrics(traced, untraced[0]["s"])
    declared = {m["name"]: m["unit"] for m in benchmark_doc()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert metrics["solver.history_rhs.calls"]["value"] == 2 * (16 + 2 + 4 + 8)
    assert metrics["noise.coarsen.calls"]["value"] == 2 * 3


def test_end_to_end_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in benchmark_doc()["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
