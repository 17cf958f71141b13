"""The benchmark's workloads: inputs built from the seed, the measured call,
and output checks that do not rely on the program's own status flags.

All four use ``synth_regression`` at N=252 with 13 features; the dataset
seed and the network init seed are the benchmark seed.

fo_logistic
    Criterion-5 problem: dims [13,10,10,10,1], logistic, L2 1e-2,
    FirstOrderProx(0.25), InverseRoot(2.0), adapt_gamma=False, trained until
    the residual is <= 1e-3 of the initial one (20k-iteration cap).
    Exercises the forward/backward engine and the logistic kernel; bypasses
    the Hessian, block-objective probes and the harness. After the measured
    call it checks on a 200-iteration prefix that ``stochastic_train`` with
    a full sampler gives rows bitwise equal to ``train``.
armijo_probe
    The same problem with Toeplitz sets on the two 10x10 hidden layers,
    ArmijoRule() and the default adapt_gamma=True, trained to a residual
    ratio <= 1e-6. The only workload on the probe path: block_objective_fn
    closures, Network.with_block copies, gamma doubling, Armijo shrinks and
    Toeplitz projection. Bypasses the Hessian and the harness.
curvature
    dims [13,16,16,1], tanh, L2 1e-2, Toeplitz middle layer, teacher dims
    equal to the network dims; SecondOrderProx(0.1) with unit stepsize (the
    Levenberg-Marquardt Newton case) for a fixed 90 outer iterations.
    Exercises block_hessian and the Cholesky solve; bypasses the logistic
    kernel (tanh), the probes (unit stepsize) and the harness.
readme_cli
    ``bsumnet.cli.main(["train", ...])`` on the README experiment config kept
    next to this file, with every iteration budget divided by README_SCALE
    and the seed list cut to the benchmark seed. Exercises the harness
    (config parsing, both baselines, curve and summary writing) and the
    recursive and geometric schedules; bypasses the Hessian and the probes.

An operation is one ``train`` call, the prefix equivalence check, or one
(method, seed) run of the CLI. A train operation fails when it raised, when
its final f or residual is not finite, when f recomputed here from the
returned weights disagrees with the reported one, when a Toeplitz layer left
its set, or when it missed the workload's tolerance or descent requirement.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import expit

import bsumnet
import bsumnet.cli
from bsumnet import (ArmijoRule, BatchSampler, FirstOrderProx, InverseRoot,
                     L2Loss, Logistic, NetworkSpec, Regularizer,
                     SecondOrderProx, Tanh, Toeplitz, TrainConfig,
                     Unconstrained, build_network, synth_regression)

N_SAMPLES = 252
N_FEATURES = 13
LAM = 1e-2
ITER_CAP = 20_000
PREFIX_ITERS = 200
README_SCALE = 10
CURVE_HEADER = "method,seed,k,f,normalized_mse,grad_norm,alpha,wall_seconds"

# relative agreement required between the reported objective and the one
# recomputed here; the two use their own sigmoid and summation order, so they
# agree to rounding, not bitwise
F_RTOL = 1e-9


@dataclass
class Outcome:
    """What one measured call produced, judged from outside."""

    attempted: int = 0
    failed: int = 0
    iterations: int = 0
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# ---------------------------------------------------------------------------
# reference objective (plain numpy, independent of the library's code)
# ---------------------------------------------------------------------------

_ACT = {
    "identity": (lambda u: u, np.ones_like),
    "logistic": (expit, lambda z: z * (1.0 - z)),
    "tanh": (np.tanh, lambda z: 1.0 - z * z),
}


def reference_objective(weights, act: str, lams, X, Y):
    """Objective (1/N)||Z_J - Y||^2 + sum lam_j ||W_j||^2 and the norm of its
    stacked block gradients, for one activation on every layer."""
    value, deriv = _ACT[act]
    zs = [X]
    for w in weights:
        zs.append(value(w @ zs[-1]))
    n = X.shape[1]
    resid = zs[-1] - Y
    f = float(np.sum(resid * resid)) / n + sum(
        lam * float(np.sum(w * w)) for lam, w in zip(lams, weights))
    delta = (2.0 / n) * resid * deriv(zs[-1])
    total = 0.0
    for j in range(len(weights) - 1, -1, -1):
        g = delta @ zs[j].T + 2.0 * lams[j] * weights[j]
        total += float(np.sum(g * g))
        if j:
            delta = (weights[j].T @ delta) * deriv(zs[j])
    return f, math.sqrt(total)


def toeplitz_gap(w) -> float:
    """Largest distance of an entry from the mean of its diagonal."""
    rows, cols = w.shape
    gaps = [0.0]
    for off in range(-(rows - 1), cols):
        diag = np.diagonal(w, off)
        gaps.append(float(np.max(np.abs(diag - diag.mean()))))
    return max(gaps)


# ---------------------------------------------------------------------------
# train workloads
# ---------------------------------------------------------------------------

class TrainJob:
    """One ``train`` call on a fixed problem, checked from outside.

    ``tol_ratio`` makes the call run to a residual of that share of the
    initial one and requires it; without it the call must lower f.
    """

    def __init__(self, data, net, cfg, act, tol_ratio=None, toeplitz=(),
                 prefix_check=False):
        self.data, self.net, self.act = data, net, act
        if any(r.kind == "l1" for r in net.spec.regularizers):
            raise ValueError("the reference objective covers L2 penalties only")
        self.lams = [r.lam for r in net.spec.regularizers]
        self.tol_ratio = tol_ratio
        self.toeplitz = toeplitz
        self.prefix_check = prefix_check
        self.f0, self.r0 = self._reference(net)
        self.cfg = cfg if tol_ratio is None else replace(cfg, grad_norm_tol=tol_ratio * self.r0)

    def _reference(self, net):
        return reference_objective(net.weights, self.act, self.lams, self.data.X, self.data.Y)

    def call(self):
        try:
            return bsumnet.train(self.net, self.data, L2Loss(), self.cfg)
        except Exception as exc:  # noqa: BLE001 - judged as a failed operation
            return exc

    def check(self, result) -> Outcome:
        oc = Outcome()
        if isinstance(result, Exception):
            oc.record(False, f"train raised {type(result).__name__}: {result}")
        else:
            net, trace = result
            oc.iterations = trace.iterations_run
            f, resid = self._reference(net)
            oc.info["final_f"] = f
            if self.tol_ratio is not None:
                oc.info["iters_to_tol"] = trace.iterations_run
            oc.record(*self._judge(net, trace, f, resid))
        if self.prefix_check:
            oc.record(*self._full_sampler_matches())
        return oc

    def _judge(self, net, trace, f, resid):
        problems = []
        if not (math.isfinite(f) and math.isfinite(resid) and math.isfinite(trace.final_f)):
            problems.append(f"non-finite result f={f} residual={resid}")
        elif abs(f - trace.final_f) > F_RTOL * max(1.0, abs(f)):
            problems.append(f"reported f {trace.final_f!r} != recomputed {f!r}")
        if self.tol_ratio is not None and not resid <= self.tol_ratio * self.r0 * (1 + 1e-9):
            problems.append(f"residual ratio {resid / self.r0:.3e} above {self.tol_ratio:g}")
        if self.tol_ratio is None and not f < self.f0:
            problems.append(f"no descent: f {f!r} >= initial {self.f0!r}")
        for j in self.toeplitz:
            gap = toeplitz_gap(net.weights[j - 1])
            if gap > 1e-12:
                problems.append(f"layer {j} off its Toeplitz set by {gap:.2e}")
        return not problems, "train: " + "; ".join(problems)

    def _full_sampler_matches(self):
        cfg = replace(self.cfg, max_outer_iterations=PREFIX_ITERS, record_every=1,
                      sampler=BatchSampler("full"))
        try:
            net_a, tr_a = bsumnet.train(self.net, self.data, L2Loss(), cfg)
            net_b, tr_b = bsumnet.stochastic_train(self.net, self.data, L2Loss(), cfg)
        except Exception as exc:  # noqa: BLE001
            return False, f"prefix check raised {type(exc).__name__}: {exc}"

        def rows(trace):
            return [(r.k, r.block, r.f, r.normalized_mse, r.block_grad_norm,
                     r.full_grad_norm, r.alpha, r.gamma) for r in trace.rows]

        same = (len(tr_a.rows) > 0 and rows(tr_a) == rows(tr_b)
                and all(np.array_equal(a, b) for a, b in zip(net_a.weights, net_b.weights)))
        return same, "full-sampler stochastic_train rows differ from train"


def _logistic_problem(seed, feasible):
    data = synth_regression(seed=seed, n_samples=N_SAMPLES, n_features=N_FEATURES)
    spec = NetworkSpec((13, 10, 10, 10, 1), (Logistic(),) * 4, feasible,
                       (Regularizer.l2(LAM),) * 4)
    return data, spec


def fo_logistic(seed: int, smoke: bool, workdir: Path) -> TrainJob:
    data, spec = _logistic_problem(seed, (Unconstrained(),) * 4)
    cfg = TrainConfig(upperbound=FirstOrderProx(0.25), schedule=InverseRoot(2.0),
                      max_outer_iterations=ITER_CAP, adapt_gamma=False)
    return TrainJob(data, build_network(spec, "uniform", seed=seed), cfg, "logistic",
                    tol_ratio=0.5 if smoke else 1e-3, prefix_check=True)


def armijo_probe(seed: int, smoke: bool, workdir: Path) -> TrainJob:
    data, spec = _logistic_problem(
        seed, (Unconstrained(), Toeplitz(), Toeplitz(), Unconstrained()))
    cfg = TrainConfig(upperbound=FirstOrderProx(0.25), schedule=ArmijoRule(),
                      max_outer_iterations=ITER_CAP)
    return TrainJob(data, build_network(spec, "uniform", seed=seed), cfg, "logistic",
                    tol_ratio=1e-2 if smoke else 1e-6, toeplitz=(2, 3))


def curvature(seed: int, smoke: bool, workdir: Path) -> TrainJob:
    dims = [13, 16, 16, 1]
    data = synth_regression(seed=seed, n_samples=N_SAMPLES, n_features=N_FEATURES,
                            teacher_dims=dims)
    spec = NetworkSpec(tuple(dims), (Tanh(),) * 3,
                       (Unconstrained(), Toeplitz(), Unconstrained()),
                       (Regularizer.l2(LAM),) * 3)
    cfg = TrainConfig(upperbound=SecondOrderProx(0.1), unit_stepsize=True,
                      max_outer_iterations=6 if smoke else 90)
    return TrainJob(data, build_network(spec, "uniform", seed=seed), cfg, "tanh",
                    toeplitz=(2,))


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

class CliJob:
    """``bsumnet train`` on the scaled README config, checked from its files."""

    def __init__(self, seed: int, scale: int, workdir: Path):
        raw = json.loads((Path(__file__).parent / "readme_config.json").read_text())
        for entry in raw["methods"] + raw["baselines"]:
            entry["max_iterations"] //= scale
        raw["dataset"]["seed"] = seed
        raw["seeds"] = [seed]
        self.out = workdir / "out"
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(raw, indent=2))
        self.stems = [f"{name}_seed{seed}" for name in
                      [m["name"] for m in raw["methods"]] + [b["kind"] for b in raw["baselines"]]]

    def call(self):
        try:
            return bsumnet.cli.main(["train", "--config", str(self.config),
                                     "--out", str(self.out)])
        except Exception as exc:  # noqa: BLE001 - judged as failed operations
            return exc

    def check(self, code) -> Outcome:
        oc = Outcome()
        digests = {}
        for stem in self.stems:
            problems = []
            if code != 0:
                problems.append(f"cli.main returned {code!r}")
            try:
                summary = json.loads((self.out / f"{stem}.summary.json").read_text())
                curve = (self.out / f"{stem}.csv").read_bytes()
            except (OSError, ValueError) as exc:
                oc.record(False, f"{stem}: unreadable output: {exc}")
                continue
            oc.iterations += int(summary.get("iterations", 0))
            if summary.get("status") != "ok":
                problems.append(f"status {summary.get('status')!r}")
            final_f = summary.get("final_f")
            if not (isinstance(final_f, float) and math.isfinite(final_f)):
                problems.append(f"final_f {final_f!r}")
            lines = curve.decode("utf-8").splitlines()
            if not lines or lines[0] != CURVE_HEADER:
                problems.append("curve header differs")
            elif not all(math.isfinite(float(line.split(",")[3])) for line in lines[1:]):
                problems.append("non-finite f in the curve")
            digests[stem] = hashlib.sha256(curve).hexdigest()
            oc.record(not problems, f"{stem}: " + "; ".join(problems))
        oc.info["curve_digests"] = digests
        return oc


def readme_cli(seed: int, smoke: bool, workdir: Path) -> CliJob:
    return CliJob(seed, 1000 if smoke else README_SCALE, workdir)


WORKLOADS = {
    "fo_logistic": fo_logistic,
    "armijo_probe": armijo_probe,
    "curvature": curvature,
    "readme_cli": readme_cli,
}
