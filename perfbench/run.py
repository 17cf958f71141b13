"""bsumnet benchmark: four training workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Closed loop, one client: measured runs go one after another, each in a fresh
child process (``child.py``) with BLAS pinned to one thread, until
``--seconds`` (by default ``run_seconds`` in BENCHMARK.json) have passed.
With ``--trace 0`` every child runs untraced and the end-to-end metrics
listed in BENCHMARK.json are medians over the children. With ``--trace 1``
untraced and traced children alternate; the per-layer metrics are medians
over the traced ones, and ``perfbench.trace.overhead`` compares the two
kinds' run times. ``--smoke`` swaps in tiny budgets for the benchmark's own
tests.

Throughput is reported as ``iters_per_cal``: outer iterations completed in
the time a fixed calibration kernel, sampled through the call, takes (see
child.py). On a shared 2-vCPU host the speed this process gets swings within
seconds and drifts over minutes, so raw iterations per second spread by
0.14-0.34 (quartile distance over median) across ten 30-second runs. The raw
figure is still printed as ``iters_per_s``. ``setup_s`` is calibrated the
same way, against a compile kernel.

Iterations to tolerance change with the seed (quartile distance over median
0.20 across seeds 0-9 on fo_logistic), so no gated metric follows them: a
change that needs more iterations at the same cost per iteration does not
move ``iters_per_cal``. They are checked against the 20k cap and printed as
``iters_to_tol``, and the time to a solution as ``run_s`` and, in
calibration units, ``run_cal``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit codes: 0 with a result, 2 when the checkout
has no ``src/bsumnet`` or BENCHMARK.json, 3 when a child crashed or hung.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fo_logistic", "armijo_probe", "curvature", "readme_cli")
# a run must end within 180 s; the first child of a run may start late
RUN_LIMIT_S = 170.0
# per-layer metrics the parent computes from both kinds of children
PARENT_METRICS = ("perfbench.trace.run_s", "perfbench.trace.untraced_run_s",
                  "perfbench.trace.overhead")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BSUM_TRAIN_THREADS", None)
    return env


def run_child(workload: str, seed: int, traced: bool, smoke: bool, timeout: float) -> dict:
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(launch),
             "1" if traced else "0", "1" if smoke else "0"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def measure(workload, seed, seconds, trace, smoke):
    """Children one after another for about ``seconds``: another starts while
    it is expected to end no later than half a child past the mark. Trace
    mode alternates untraced and traced children and runs at least one of
    each."""
    start = time.monotonic()
    children, durations = [], []
    while True:
        traced = trace and len(children) % 2 == 1
        began = time.monotonic()
        child = run_child(workload, seed, traced, smoke, RUN_LIMIT_S - (began - start))
        durations.append(time.monotonic() - began)
        children.append(child)
        print(f"child {len(children)}: traced={int(traced)} setup_s={child['setup_s']:.4f} "
              f"start_s={child['start_s']:.4f} "
              f"run_s={child['run_s']:.4f} iterations={child['iterations']} "
              f"failed={child['failed']}/{child['attempted']}", flush=True)
        for err in child["errors"]:
            print(f"  failed: {err}", flush=True)
        if trace and len(children) < 2:
            continue
        if time.monotonic() - start + 0.5 * statistics.median(durations) > seconds:
            return children


def aggregate(children, spec, trace):
    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = True

    # curve files of the same code and inputs must be byte-identical
    ref = children[0]["info"].get("curve_digests")
    if ref is not None:
        for c in children[1:]:
            differ = [k for k, v in c["info"]["curve_digests"].items() if ref.get(k) != v]
            if differ:
                print(f"curve bytes differ between children: {differ}")
                failed += len(differ)

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: statistics.median(c["per_layer"][name] for c in traced)
                   for name in units if name not in PARENT_METRICS}
        metrics["perfbench.trace.run_s"] = statistics.median(c["run_s"] for c in traced)
        metrics["perfbench.trace.untraced_run_s"] = statistics.median(
            c["run_s"] for c in untraced)
        # compared in calibration units, so host drift between the two cancels
        metrics["perfbench.trace.overhead"] = (
            statistics.median(c["run_s"] / c["cal_s"] for c in traced)
            / statistics.median(c["run_s"] / c["cal_s"] for c in untraced) - 1.0)
        # counts and sizes computed from shapes repeat exactly between runs
        for name, unit in units.items():
            if unit != "s" and name not in PARENT_METRICS:
                values = {c["per_layer"][name] for c in traced}
                if len(values) > 1:
                    print(f"{name} differs between traced runs: {sorted(values)}")
                    correct = False
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in untraced),
            "iters_per_cal": statistics.median(
                c["iterations"] * c["sampled_cal_s"] / c["run_s"] for c in untraced),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
        }
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    correct = correct and failed == 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def report(children, workload):
    """Outcome figures that depend on the seed, printed beside the metrics."""
    untraced = [c for c in children if not c["traced"]]
    first = children[0]
    env = first["env"]
    print("env " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": env["numpy"], "scipy": env["scipy"], "blas": env["blas"],
        "git_commit": git_commit(), "src_lines": src_lines(),
        "blas_threads": 1, "workload": workload}))
    info = first["info"]
    lines = [("start_s", statistics.median(c["start_s"] for c in children), "s"),
             ("run_s", statistics.median(c["run_s"] for c in untraced), "s"),
             ("run_cal", statistics.median(c["run_s"] / c["sampled_cal_s"] for c in untraced),
              "cal"),
             ("iters_per_s", statistics.median(c["iterations"] / c["run_s"] for c in untraced),
              "1/s"),
             ("cal_s", statistics.median(c["cal_s"] for c in children), "s"),
             ("children", len(children), "count")]
    if "iters_to_tol" in info:
        lines.append(("iters_to_tol", info["iters_to_tol"], "count"))
    if "final_f" in info:
        lines.append(("final_f", info["final_f"], "f"))
    attempted = sum(c["attempted"] for c in children)
    lines.append(("fail_frac", sum(c["failed"] for c in children) / attempted, "ratio"))
    for name, value, unit in lines:
        print(f"{name} {value} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bsumnet" / "__init__.py").is_file():
        print(f"no src/bsumnet under {ROOT}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    try:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        children = measure(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        result = aggregate(children, spec, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    report(children, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
