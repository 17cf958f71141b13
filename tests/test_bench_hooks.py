"""The benchmark's tracer (perfbench/tracer.py) still hooks into the package.

The tracer replaces named functions and methods of bsumnet while a traced
run lasts. A rename or deletion of one of them would break only the
separate benchmark suite, so this test installs the tracer on the package,
runs one traced training step, and checks that uninstalling restores every
attribute it touched.
"""

import dataclasses
import sys
from pathlib import Path

import pytest
import scipy.linalg

import bsumnet.cli  # noqa: F401 - the tracer patches cli.main
from bsumnet import (ArmijoRule, ExponentialLoss, FirstOrderProx, Identity,
                     InverseRoot, L2Loss, Logistic, Network, Proximal,
                     SecondOrderProx, Tanh, Toeplitz, Unconstrained, harness,
                     train, train_step)
from bsumnet.trainer import TrainConfig
from conftest import make_problem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def package_namespaces():
    """Every module of the package, the classes defined in it, and
    scipy.linalg (whose cho_factor the tracer counts)."""
    mods = [m for name, m in sys.modules.items()
            if name == "bsumnet" or name.startswith("bsumnet.")]
    classes = {v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("bsumnet")}
    return mods + list(classes) + [scipy.linalg]


def traced_step(net, data, cfg, loss=L2Loss()):
    """Run train_step(k=1) under an installed tracer; see traced_run."""
    return traced_run(lambda: train_step(net, data, loss, cfg, 1))


def traced_run(run):
    """Call run() under an installed tracer; check that uninstalling
    restores every attribute and return (tracer, patched attributes)."""
    before = {(id(ns), key): value for ns in package_namespaces()
              for key, value in vars(ns).items()}
    tracer = Tracer()
    try:
        tracer.install()
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        run()
    finally:
        tracer.uninstall()
    for owner, attr in patched:
        assert vars(owner)[attr] is before[(id(owner), attr)], (owner, attr)
    after = {(id(ns), key): value for ns in package_namespaces()
             for key, value in vars(ns).items()}
    assert all(after[k] is v for k, v in before.items())
    return tracer, patched


def test_tracer_installs_and_restores_every_attribute():
    net, data = make_problem([3, 2, 1], Logistic(), L2Loss(), seed=0)
    cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0))
    tracer, patched = traced_step(net, data, cfg)
    assert len(patched) > 20
    assert {s[0] for s in tracer.spans} >= {"trainer.stepsize", "functions.loss",
                                            "functions.activation.value"}


@pytest.mark.parametrize("feasible", [Unconstrained(), Toeplitz()],
                         ids=["unconstrained", "toeplitz"])
def test_schedule_step_on_a_linear_set_records_a_direction_span(feasible):
    # fo_logistic's and readme_cli's steps: the direction time of a step
    # with no search reaches the benchmark through its
    # descent_direction_first_order span
    net, data = make_problem([3, 3, 1], Logistic(), L2Loss(), seed=0, feasible=feasible)
    cfg = TrainConfig(upperbound=FirstOrderProx(0.25), schedule=InverseRoot(2.0),
                      adapt_gamma=False)
    tracer, _ = traced_step(net, data, cfg)
    assert [s[0] for s in tracer.spans].count("upperbounds.direction") == 1


def test_newton_step_records_a_block_hessian_span():
    # the benchmark's per-block Hessian split reads these spans; it goes
    # blind if the trainer stops calling gradients.block_hessian
    net, data = make_problem([3, 2, 1], Tanh(), L2Loss(), seed=0)
    cfg = TrainConfig(upperbound=SecondOrderProx(0.1), unit_stepsize=True)
    tracer, _ = traced_step(net, data, cfg)
    assert ("gradients.block_hessian", 1) in {(s[0], s[4]) for s in tracer.spans}


def test_newton_step_on_a_toeplitz_block_is_traced():
    # curvature's Toeplitz block: its kernel solve and Cholesky must still
    # reach the spans and counters the benchmark reads; its Hessian is
    # assembled in kernel coordinates, without gradients.block_hessian
    net, data = make_problem([3, 3, 1], Tanh(), L2Loss(), seed=0, feasible=Toeplitz())
    cfg = TrainConfig(upperbound=SecondOrderProx(0.1), unit_stepsize=True)
    tracer, _ = traced_step(net, data, cfg)
    names = {s[0] for s in tracer.spans}
    assert "upperbounds.direction" in names
    assert "gradients.block_hessian" not in names
    assert tracer.counts["cholesky_calls"] >= 1


def test_curvature_cycle_reaches_cho_factor_on_every_block():
    # one cycle of curvature's layout: the benchmark's Cholesky counters see
    # all three Newton steps, block_hessian only the two dense blocks
    net, data = make_problem([3, 4, 4, 1], Tanh(), L2Loss(), seed=0)
    spec = dataclasses.replace(net.spec, feasible_sets=(Unconstrained(), Toeplitz(),
                                                        Unconstrained()))
    net = Network(spec, [w if j != 2 else Toeplitz().project(w)
                         for j, w in enumerate(net.weights, 1)])
    cfg = TrainConfig(upperbound=SecondOrderProx(0.1), unit_stepsize=True,
                      max_outer_iterations=3)
    tracer, _ = traced_run(lambda: train(net, data, L2Loss(), cfg))
    hessians = [s[4] for s in tracer.spans if s[0] == "gradients.block_hessian"]
    assert sorted(hessians) == [1, 3]
    counts = tracer.counts
    assert counts["cholesky_calls"] - counts["cholesky_retries"] == 3, counts


def test_armijo_step_records_probe_spans():
    # armijo_probe's per-layer probe and line-search metrics read these
    # spans; memoized probes still pass through the wrapped closures
    net, data = make_problem([3, 3, 1], Logistic(), L2Loss(), seed=0,
                             feasible=Toeplitz())
    cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=ArmijoRule(),
                      adapt_gamma=True)
    tracer, _ = traced_step(net, data, cfg)
    names = [s[0] for s in tracer.spans]
    assert "trainer.armijo" in names
    assert names.count("gradients.probe") >= 3  # gamma search, f(W), f(D)


def test_armijo_probes_forward_only_the_candidate():
    # armijo_probe's activation metrics see each probe's forward: the gamma
    # search's candidate runs layers j..J through Activation.value once
    # each, and the f(W) and Armijo-trial probes, answered by the pass and
    # by the trial slot that holds the candidate, run none
    net, data = make_problem([3, 3, 3, 1], Logistic(), L2Loss(), seed=0,
                             feasible=Toeplitz())
    cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=ArmijoRule(),
                      max_outer_iterations=3, record_every=1)
    runs = []
    tracer, _ = traced_run(lambda: runs.append(train(net, data, L2Loss(), cfg)))
    assert [(r.alpha, r.gamma) for r in runs[0][1].rows] == [(1.0, 0.5)] * 3
    spans = tracer.spans
    probes = [i for i, s in enumerate(spans) if s[0] == "gradients.probe"]
    values = [sum(s[0] == "functions.activation.value" and s[3] == i for s in spans)
              for i in probes]
    assert values == [3, 0, 0, 2, 0, 0, 1, 0, 0]


def test_armijo_step_on_a_toeplitz_net_records_project_spans():
    # armijo_probe's netcore.project metrics read these spans: each gamma
    # candidate of the search is projected by Toeplitz.project
    net, data = make_problem([3, 3, 1], Logistic(), L2Loss(), seed=0,
                             feasible=Toeplitz())
    cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=ArmijoRule())
    tracer, _ = traced_step(net, data, cfg)
    projects = [s for s in tracer.spans if s[0] == "netcore.project"]
    counts = tracer.counts
    assert counts["gamma_searches"] == 1
    assert len(projects) == 1 + counts["gamma_doublings"]


EXACT_BCD = TrainConfig(upperbound=Proximal(0.0), unit_stepsize=True)


@pytest.mark.parametrize("activation,loss,cfg,spans", [
    # exact BCD is the proximal family at gamma = 0: on a certified-convex
    # block its inner solver probes the block objective, on a deep linear
    # net under the L2 loss it is the closed-form block solve
    (Identity(), ExponentialLoss(1.0), EXACT_BCD,
     {"upperbounds.direction", "gradients.probe"}),
    (Identity(), L2Loss(), EXACT_BCD, {"upperbounds.direction"}),
], ids=["exact_bcd", "deep_linear_exact_bcd"])
def test_family_step_records_its_spans(activation, loss, cfg, spans):
    net, data = make_problem([3, 2, 1], activation, loss, lam=0.05, seed=0)
    tracer, _ = traced_step(net, data, cfg, loss)
    assert spans <= {s[0] for s in tracer.spans}


def test_baseline_records_its_span():
    # readme_cli's harness.baseline.self_s reads this span; each baseline is
    # looked up on the module while traced, where the tracer patched it
    net, data = make_problem([3, 2, 1], Logistic(), L2Loss(), seed=0)
    for name in ("baseline_bp_clr", "baseline_adagrad"):
        tracer, _ = traced_run(
            lambda: getattr(harness, name)(net, data, L2Loss(), 0.1, max_iterations=3))
        assert [s[0] for s in tracer.spans].count("harness.baseline") == 1, name
