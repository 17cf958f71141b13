"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Smoke mode uses tiny budgets, so the whole file runs in well under a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import SELF_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def child(workload):
    return run.run_child(workload, 0, True, True, 170.0)


def test_workloads_match_benchmark_json():
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "env " in proc.stdout and "fail_frac 0.0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = child(workload), child(workload)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counted = [name for name, unit in units.items()
               if unit != "s" and name not in run.PARENT_METRICS]
    assert first["per_layer"]["perfbench.trace.spans"] > 0
    assert {n: first["per_layer"][n] for n in counted} == \
        {n: second["per_layer"][n] for n in counted}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_run_s(workload):
    out = child(workload)
    total = sum(out["per_layer"][name] for name in set(SELF_METRICS.values()))
    assert total <= out["run_s"]
    assert out["run_s"] - total <= 1e-3 + 0.02 * out["run_s"]


def test_nan_repro_counts_as_failed_operation():
    from bsumnet import (Constant, FirstOrderProx, Identity, NetworkSpec,
                         TrainConfig, build_network, synth_regression)
    from workloads import TrainJob

    data = synth_regression(seed=0, n_features=5, teacher_dims=[5, 4, 1])
    net = build_network(NetworkSpec.homogeneous([5, 4, 1], Identity()), "uniform", seed=0)
    cfg = TrainConfig(upperbound=FirstOrderProx(1e-3), schedule=Constant(0.9),
                      adapt_gamma=False, max_outer_iterations=200)
    job = TrainJob(data, net, cfg, "identity")
    with pytest.warns(RuntimeWarning):
        results = job.call()
    outcome = job.check(results)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "non-finite" in outcome.errors[0]


def test_differing_curve_bytes_count_as_failed():
    def fake(digest):
        return {"traced": False, "attempted": 1, "failed": 0, "iterations": 10,
                "run_s": 1.0, "cal_s": 0.1, "sampled_cal_s": 0.1, "setup_s": 0.5,
                "peak_rss_mb": 60.0,
                "info": {"curve_digests": {"prop_seed0": digest}}}

    result = run.aggregate([fake("a"), fake("a"), fake("b")], SPEC, trace=False)
    assert result["failed"] == 1 and result["correct"] is False


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fo_logistic",
                           "--seconds", "1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["fo_logistic", "armijo_probe", "curvature"])
def test_stages_and_train_self_time_add_up_to_traced_run_s(workload):
    out = child(workload)
    layer = out["per_layer"]
    total = layer["trainer.train.self_s"] + sum(
        value for name, value in layer.items() if name.startswith("trainer.stage."))
    assert total <= out["run_s"]
    assert out["run_s"] - total <= 1e-3 + 0.02 * out["run_s"]
