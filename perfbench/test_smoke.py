"""Smoke test of the benchmark at a tiny size.

Every workload runs once untraced and once traced; every metric that
BENCHMARK.json declares appears with its unit, and every output check passes.
Two traced runs with one seed give identical counts, and two seeds give
different inputs.  The warm-up round shares no input with the timed rounds,
a traced function that no longer exists is reported as missing, not as
zero, and a time is scaled by the reference samples nearest it.  No timing
value is asserted.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import dp4  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads.Census, "Y_PRIMES", [5, 13])
    monkeypatch.setattr(workloads.Census, "S_PRIMES", [5])
    monkeypatch.setattr(workloads.LargeP, "PRIMES", (13, 17))
    monkeypatch.setattr(workloads.Search, "PRIMES", [13])
    monkeypatch.setattr(workloads.Search, "HEIGHT", 30)
    monkeypatch.setattr(workloads.Pencil, "Y_PRIMES", [5])
    monkeypatch.setattr(workloads.Pencil, "S_PRIMES", [5])
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "trace_rounds", 1)


def bench(capsys, workload, seed=1, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def assert_declared(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] is not None, m["name"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    _, result = bench(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_declared(result, BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_runs_repeat_their_counts(capsys, workload):
    _, first = bench(capsys, workload, trace=1)
    _, second = bench(capsys, workload, trace=1)
    assert first["correct"] and second["correct"]
    assert_declared(first, BENCHMARK["per_layer"])
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_seeds_change_the_inputs(capsys):
    digests = []
    for seed in (1, 2):
        lines, _ = bench(capsys, "census", seed=seed, trace=1)
        digests.append(next(line for line in lines if line.startswith("input digest")).split()[2])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_warm_up_shares_no_input_with_the_timed_rounds(monkeypatch, workload):
    monkeypatch.undo()  # the full strata, not the tiny ones
    w = workloads.WORKLOADS[workload]()
    warm, rounds = w.build(seed=1, rounds=30)
    timed = {w.identity(op) for ops in rounds for op in ops}
    assert warm and not {w.identity(op) for op in warm} & timed


def test_a_missing_function_is_reported_as_missing_not_zero(monkeypatch):
    with tracer.Tracer() as t:
        pass
    values, missing = run.per_layer_values(t, run.Tally(), 0.0)
    assert values["localsolve.sampler_yield"] == 0.0  # the sampler never ran
    assert values["brauer.surjectivity_witness.sampling_fallbacks"] == 0

    t.stats["localsolve.sample_local_points"].calls = 3  # ran, but consumed no level-1 point
    values, missing = run.per_layer_values(t, run.Tally(), 0.0)
    assert values["localsolve.sampler_yield"] is None
    assert "localsolve.sampler_yield" in missing

    monkeypatch.delattr(dp4.localsolve, "sample_local_points")
    monkeypatch.delattr(dp4.brauer, "surjectivity_witness")
    with tracer.Tracer() as t:
        pass
    values, missing = run.per_layer_values(t, run.Tally(), 0.0)
    for name in ("localsolve.sample_local_points.calls", "localsolve.sampler_yield",
                 "brauer.surjectivity_witness.calls",
                 "brauer.surjectivity_witness.sampling_fallbacks"):
        assert values[name] is None and name in missing


def test_a_time_is_scaled_by_the_reference_samples_nearest_it():
    speed = run.Speedometer()
    speed.samples = [run.REF_NOMINAL_S * k for k in [1] * 6 + [2] * 6 + [4] * 11]
    assert speed.scale(0) == pytest.approx(1.0)  # samples 0-5
    assert speed.scale(5) == pytest.approx((6 + 5 / 2) / 11)  # samples 0-10
    assert speed.scale(17) == pytest.approx(0.25)  # samples 12-22


def test_the_median_estimate_weights_the_middle_values():
    assert run.median_hd([3.0]) == 3.0
    steps = [float(k) for k in range(1, 21)]
    assert run.median_hd(steps + [1000.0]) == pytest.approx(run.median_hd(steps + [21.0]), rel=0.01)
    assert run.median_hd(steps + [21.0]) == pytest.approx(11.0)
    values = [1.0] * 50 + [2.0] * 50  # the middle falls in the gap
    assert 1.3 < run.median_hd(values) < 1.7
