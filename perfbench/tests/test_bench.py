"""The benchmark's own tests: smoke runs, counter repeatability, correctness gate.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import calibrate, spans, verdicts, workloads
from perfbench import run as bench_run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root: str, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = _result(done)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    spec = _bench_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    info = json.loads(done.stdout.strip().splitlines()[-2])
    assert info["verdict_mismatches"] == 0
    assert info["residual_rise"] <= info["residual_rise_limit"]
    assert info["problems"] == []


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _bench_spec()["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", ["verify-group", "report-grid"])
def test_counters_repeat_exactly_and_uninstall_cleanly(workload, tmp_path):
    inputs = workloads.make_inputs(workload, 2, tiny=True)
    workloads.run_pass(workload, inputs, str(tmp_path), lambda fn, *a: fn(*a))
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    kernels = [calibrate.kernel_seconds()]
    counts = []
    for _ in range(2):
        tracer.reset()
        workloads.run_pass(workload, inputs, str(tmp_path), bench_run.Clock(kernels, tracer))
        counts.append(dict(tracer.counts))
        assert spans.installed_wrappers() == []
    assert tracer.missing == []
    assert counts[0] == counts[1]
    # Bindings imported by name are wrapped too, so these counts are not zero.
    names = ["numdiff.central_diff", "surfaces.frame_data", "linalg.solve", "surfaces.shape"]
    names += (["suite.run_suite", "groups.metric", "identities.SHAPE_R"]
              if workload == "verify-group" else ["cli.cmd_report", "ambient.christoffels"])
    for name in names:
        assert counts[0].get(name, 0) > 0, name
    own, gap = spans.self_times(tracer.spans)
    assert gap < 1e-9
    assert own[spans.ROOT] >= 0.0


def _reference_outcome(name, seed, tmp_path):
    inputs = workloads.make_inputs(name, seed, tiny=True)
    outcome = workloads.run_pass(name, inputs, str(tmp_path), lambda fn, *a: fn(*a))
    return verdicts.load_reference(name, inputs["seed"]), outcome


def test_altered_reference_verdict_trips_the_check(tmp_path):
    ref, outcome = _reference_outcome("verify-group", 1, tmp_path)
    assert verdicts.compare("verify-group", ref, outcome.rows, subset=True).ok
    key = next(k for k in outcome.rows if ref[k][0] == "pass")
    altered = dict(ref)
    altered[key] = ("fail", ref[key][1])
    check = verdicts.compare("verify-group", altered, outcome.rows, subset=True)
    assert check.verdict_mismatches == 1 and not check.ok


def test_residual_rise_past_the_gate_trips_the_check(tmp_path):
    ref, outcome = _reference_outcome("verify-group", 1, tmp_path)
    key = max(outcome.rows, key=lambda k: outcome.rows[k][1] or 0.0)
    altered = dict(ref)
    altered[key] = (ref[key][0], ref[key][1] - 1e-10)
    check = verdicts.compare("verify-group", altered, outcome.rows, subset=True)
    assert check.verdict_mismatches == 0 and not check.ok
    assert check.residual_rise == pytest.approx(1e-10, rel=1e-3)


def test_report_value_drift_trips_the_check(tmp_path):
    ref, outcome = _reference_outcome("report-grid", 0, tmp_path)
    assert verdicts.compare("report-grid", ref, outcome.rows, subset=True).ok
    key = next(iter(outcome.rows))
    altered = dict(ref)
    altered[key] = dict(ref[key], K_R=repr(float(ref[key]["K_R"]) + 1e-6))
    assert not verdicts.compare("report-grid", altered, outcome.rows, subset=True).ok


def _copy_tree(dest, with_source: bool):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_altered_reference_fails_the_run(tmp_path):
    _copy_tree(tmp_path, with_source=True)
    path = os.path.join(tmp_path, "perfbench", "reference", "verify-group.json")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace('["pass"', '["fail"', 1))
    done = _run(str(tmp_path), "verify-group", 0, seed=0)
    assert done.returncode == 1
    result = _result(done)
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_package_source(tmp_path):
    _copy_tree(tmp_path, with_source=False)
    done = _run(str(tmp_path), "verify-default", 0)
    assert done.returncode == 2
    assert done.stdout == ""
