"""One measured run of one workload, in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED LAUNCH_MONOTONIC TRACE SMOKE

Pins BLAS to one thread before numpy is imported, imports ``bsumnet`` from
the checkout's ``src/``, builds the workload's inputs, times the measured
call, judges its outputs and prints one JSON object as its last stdout line.
With TRACE=1 the call runs under the tracer and the result carries the
per-layer metrics; the spans go to ``perfbench/.work/spans-WORKLOAD.csv``.

The speed this process gets from a shared 2-vCPU host swings by up to 40%
within a second (a fixed kernel took 0.07-0.12 s in consecutive runs), so
each timing is divided by a fixed kernel's time taken next to it.

``setup_s`` is the work bsumnet does before the call: importing its own
modules afresh (numpy and scipy stay loaded) and building the workload's
inputs, done SETUP_REPS times. Each import is bracketed by runs of a compile
kernel (a stdlib module's source compiled COMPILE_REPS times, Python-level
work like an import's); the median of the ratios is scaled to seconds on a
host where that kernel takes COMPILE_REF_S. The cold interpreter start and
numpy/scipy imports, which no change to bsumnet moves but which spread by
0.1 across runs, are left out; ``start_s``, from
LAUNCH_MONOTONIC (the parent's ``time.monotonic()`` just before it started
this process) to the end of the cold ``import bsumnet``, holds them and is
printed only.

The measured call is calibrated with the benchmark's own numpy kernel
(small matmuls and a masked-index sigmoid, the same mix as the library's
inner loop), so a change to bsumnet does not move it. ``cal_s`` is the mean
time of CAL_REPS kernel steps run just before and just after the call. In an
untraced child a SIGALRM handler also runs SAMPLE_REPS steps every
SAMPLE_EVERY_S during the call; ``sampled_cal_s`` is their mean scaled to
CAL_REPS steps, and their time is taken out of ``run_s``. Sampling through
the call cut the run-to-run variation of run time over kernel time on
armijo_probe from 0.09 to 0.03 (coefficient of variation, 14 calls).
Traced children do not sample, so that no kernel time lands in a span, and
use ``cal_s``.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BSUM_TRAIN_THREADS", None)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CAL_REPS = 1200
SAMPLE_REPS = 30
SAMPLE_EVERY_S = 0.1
SETUP_REPS = 5
COMPILE_REPS = 2
COMPILE_REF_S = 0.02


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def kernel_s(steps: int) -> float:
    """Time of ``steps`` steps of the calibration kernel."""
    import numpy as np

    rng = np.random.default_rng(0)
    w, x = rng.standard_normal((10, 13)), rng.standard_normal((13, 252))
    t0 = time.perf_counter()
    for _ in range(steps):
        u = w @ x
        pos = u >= 0
        z = np.empty_like(u)
        z[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        eu = np.exp(u[~pos])
        z[~pos] = eu / (1.0 + eu)
        float(np.sum(z * z))
    return time.perf_counter() - t0


class KernelSampler:
    """Runs SAMPLE_REPS kernel steps every SAMPLE_EVERY_S while active."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel_s(SAMPLE_REPS)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def compile_s() -> float:
    source = Path(statistics.__file__).read_text(encoding="utf-8")
    t0 = time.perf_counter()
    for _ in range(COMPILE_REPS):
        compile(source, "statistics.py", "exec")
    return time.perf_counter() - t0


def import_bsumnet_afresh() -> float:
    for name in [m for m in sys.modules if m == "bsumnet" or m.startswith("bsumnet.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import bsumnet  # noqa: F401
    import bsumnet.cli  # noqa: F401 - the readme_cli entry point
    return time.perf_counter() - t0


def main(argv) -> int:
    workload, seed, launch, traced, smoke = argv
    seed, launch, traced, smoke = int(seed), float(launch), traced == "1", smoke == "1"

    sys.path.insert(0, str(SRC))
    import bsumnet  # cold: loads numpy and scipy as well
    start_s = time.monotonic() - launch
    kernels, setups = [compile_s()], []
    for _ in range(SETUP_REPS):
        setups.append(import_bsumnet_afresh())
        kernels.append(compile_s())
    import bsumnet  # noqa: F811 - the last fresh import
    if Path(bsumnet.__file__).resolve().parent != SRC / "bsumnet":
        print(f"bsumnet imported from {bsumnet.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for i in range(SETUP_REPS):
            t0 = time.perf_counter()
            job = WORKLOADS[workload](seed, smoke, workdir)
            setups[i] += time.perf_counter() - t0
        setup_s = COMPILE_REF_S * statistics.median(
            2.0 * s / (k0 + k1) for s, k0, k1 in zip(setups, kernels, kernels[1:]))

        cal_before = kernel_s(CAL_REPS)
        tracer = Tracer().install() if traced else None
        sampler = KernelSampler()
        # diverging runs overflow inside numpy; the checks judge the result
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t0 = time.perf_counter()
            try:
                if traced:
                    result = job.call()
                else:
                    with sampler:
                        result = job.call()
            finally:
                run_s = time.perf_counter() - t0 - sum(sampler.samples)
                if tracer is not None:
                    tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cal_s = (cal_before + kernel_s(CAL_REPS)) / 2.0
        sampled_cal_s = (statistics.mean(sampler.samples) * CAL_REPS / SAMPLE_REPS
                         if sampler.samples else cal_s)
        outcome = job.check(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "start_s": start_s,
        "run_s": run_s,
        "cal_s": cal_s,
        "sampled_cal_s": sampled_cal_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "iterations": outcome.iterations,
        "errors": outcome.errors,
        "info": outcome.info,
        "traced": traced,
        "env": environment(),
    }
    if tracer is not None:
        out["per_layer"] = tracer.per_layer_metrics(outcome.iterations)
        tracer.write_spans(HERE / ".work" / f"spans-{workload}.csv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
