"""Self-tests of the study benchmark: span arithmetic, tracer hygiene,
failure accounting, a smoke run of every workload and the refusal to run
without woesim's sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import study  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(1, None, "cli.main", 0.0, 10.0, 1),
        Span(2, 1, "engine.run_grid", 1.0, 4.0, 1),
        Span(3, 2, "scorecard.fit_logistic", 2.0, 3.0, 1),
        Span(4, 1, "io.save_results_csv", 5.0, 6.0, 1),
        # overlapping children, as pool workers produce: covered once
        Span(5, 1, "engine.run_cell", 7.0, 9.0, 2),
        Span(6, 1, "engine.run_cell", 8.0, 9.5, 3),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0 - 2.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert (selfs[5], selfs[6]) == (pytest.approx(2.0), pytest.approx(1.5))


def test_tracer_records_nesting_and_restores_the_originals(tmp_path):
    import woesim
    import woesim.engine as engine

    owners = [(layers._owner(m, c), a) for m, c, a, _, _ in layers.TARGETS]
    originals = [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a)) for o, a in owners]
    tracer = Tracer(tmp_path)
    layers.install(tracer)
    try:
        assert len(layers.wrapped_targets()) == len(layers.TARGETS)
        engine.run_iteration(woesim.CONFIG_B, engine.make_plan(100, woesim.EventRate(0.1)), 7, 0)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
    assert layers.wrapped_targets() == []

    spans = tracer.take()
    by_id = {s.sid: s for s in spans}
    names = [s.name for s in spans]
    assert names.count("rng.generator") == 3 and names.count("scorecard.fit_logistic") == 1
    for s in spans:
        if s.name == "rng.generator":
            assert by_id[s.parent].name == "sampling.generate_sample"
        if s.name == "scorecard.fit_logistic":
            assert by_id[s.parent].name == "engine.run_iteration"


def test_a_failing_command_counts_its_iterations_and_spares_the_harness(tmp_path):
    import woesim.cli

    # ROADMAP item 4: an empty bin under --theta-adj 0 aborts the whole run
    wl = study.Workload("abort", "known abort", configs=("B",), sizes=(50, 100), iterations=20,
                        workers=1, guideline_n=100, rates=(0.01, 0.05), run_args=("--theta-adj", "0"))
    s = study.check_study(study.run_study(woesim.cli, wl, 0, tmp_path, wl.iterations), wl, tmp_path)
    assert list(s.steps) == ["run"] and s.steps["run"].code == 2
    assert s.attempted == s.failed == 2 * 2 * 20
    assert any("features must be finite" in p for p in s.problems)

    crash = study.call(types.SimpleNamespace(main=lambda argv: 1 / 0), "run", ["run"])
    assert crash.code == 1 and "ZeroDivisionError" in crash.output


@pytest.mark.parametrize("workload", list(study.WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                            "--trace", "0", "--iters", "1"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pool_run_reports_every_layer_metric_including_worker_spans():
    result = _result(_bench("--workload", "study_pool2", "--seed", "3", "--seconds", "0",
                            "--trace", "1", "--iters", "2"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    wl = study.WORKLOADS["study_pool2"]
    assert metrics["engine.run_iteration_calls"] == wl.cells * 2
    assert metrics["rng.calls"] == 3 * wl.cells * 2
    assert metrics["configs.synthesize_config_ms"] > 0
    assert 0.9 < metrics["trace_accounted_frac"] <= 1.0


def test_without_woesim_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "small_n", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_workloads_and_predictions():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in study.WORKLOADS.values()
    ]
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))["predictions"]
    assert list(predictions) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, pairs in predictions.items():
        assert pairs or name.startswith("trace_"), name
        for metric, workload in pairs:
            assert metric in e2e and workload in study.WORKLOADS, (name, metric, workload)


def test_a_hash_unlike_the_stored_one_is_printed_as_a_behaviour_change(tmp_path):
    import run

    bench = run.Bench(study.WORKLOADS["large_n"], 0, 0, 8, tmp_path, {})
    stored = json.loads((BENCH / "hashes.json").read_text(encoding="utf-8"))["large_n/seed=0/iters=8"]
    bench._compare_stored(stored)
    bench._compare_stored({**stored, "summary": "0" * 64})
    assert "match the stored hashes" in bench.lines[0]
    assert bench.lines[1].startswith("# BEHAVIOUR CHANGE: summary")
