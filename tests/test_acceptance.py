"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from bsumnet import (Anchor, BatchSampler, BentIdentity, Constant,
                     CrossEntropyLoss, Dataset, ExponentialLoss,
                     FirstOrderProx, FrobeniusBall, Geometric, Identity,
                     InverseRoot, L2Loss, LeakyReluSmooth,
                     Logistic, LogisticLoss, NetworkSpec, Proximal, Recursive,
                     Regularizer, SecondOrderProx, Softplus, SquaredHingeLoss,
                     Tanh, Toeplitz, Unconstrained, build_network,
                     forward, prox_l1_step,
                     stochastic_train, synth_regression, train, train_step)
from bsumnet.gradients import (block_gradient, block_hessian,
                               block_objective_fn, fd_gradient)
from bsumnet.trainer import TrainConfig, _LoopState
from bsumnet.upperbounds import first_order_direction_backtracked
from conftest import brute_force_prox_scalar, kron_block_oracle, labels_for, ridge_oracle

BENCH_DIMS = [13, 10, 10, 10, 1]

ALL_LOSSES = [L2Loss(), ExponentialLoss(1.0), CrossEntropyLoss(),
              SquaredHingeLoss(1.0), LogisticLoss()]
ALL_ACTIVATIONS = [Identity(), Logistic(), Tanh(), Softplus(),
                   LeakyReluSmooth(0.1), BentIdentity()]


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _catalog_net(dims, act, loss, seed):
    """Random network for a (loss, activation) pair; cross-entropy keeps a
    logistic output layer so predictions stay in (0, 1)."""
    depth = len(dims) - 1
    acts = [act] * depth
    if loss.name == "cross_entropy":
        acts[-1] = Logistic()
    spec = NetworkSpec(tuple(dims), tuple(acts), (Unconstrained(),) * depth,
                       (Regularizer.l2(1e-3),) * depth)
    return build_network(spec, "uniform", seed=seed)


def test_criterion_01_gradient_oracle_suite():
    """Analytic block gradients match central finite differences for every
    (loss, activation) pair, every layer, on the benchmark architecture."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    n = 20
    worst = 0.0
    for loss in ALL_LOSSES:
        for act in ALL_ACTIVATIONS:
            net = _catalog_net(BENCH_DIMS, act, loss, seed=11)
            X = rng.standard_normal((BENCH_DIMS[0], n))
            Y = labels_for(loss, BENCH_DIMS[-1], n, rng)
            data = Dataset(X, Y)
            for j in range(1, net.depth + 1):
                analytic = block_gradient(net, data, loss, j)
                value_fn, _ = block_objective_fn(net, data, loss, j)
                numeric = fd_gradient(value_fn, net.weights[j - 1], h=1e-6)
                rel = np.linalg.norm(analytic - numeric) \
                    / max(1.0, np.linalg.norm(numeric))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(1, "gradient oracle suite (30 pairs x 4 layers, rel <= 1e-6)",
            worst <= 1e-6 and elapsed <= 60.0,
            f"worst rel {worst:.2e}, {elapsed:.1f}s")


def _independent_bp_step(net, data, loss, j, alpha, gamma=1.0):
    """Textbook backprop step coded from scratch for the equivalence check."""
    zs = [data.X]
    us = []
    for w, act in zip(net.weights, net.spec.activations):
        us.append(w @ zs[-1])
        zs.append(act.value(us[-1]))
    d = loss.grad_H(zs[-1], data.Y) * net.spec.activations[-1].derivative(us[-1])
    for i in range(net.depth - 1, j - 1, -1):
        d = (net.weights[i].T @ d) * net.spec.activations[i - 1].derivative(us[i - 1])
    grad = d @ zs[j - 1].T + net.spec.regularizers[j - 1].grad(net.weights[j - 1])
    return net.weights[j - 1] - (alpha / gamma) * grad


def test_criterion_02_special_case_equivalences():
    rng = np.random.default_rng(2)
    spec = NetworkSpec.homogeneous([5, 4, 2], Logistic(),
                                   regularizer=Regularizer.l2(0.01))
    net = build_network(spec, "uniform", seed=2)
    data = Dataset(rng.standard_normal((5, 18)), rng.standard_normal((2, 18)))

    # (a) first-order family with gamma = 1 plus a schedule is plain backprop
    cfg_a = TrainConfig(upperbound=FirstOrderProx(1.0), schedule=InverseRoot(0.7),
                        adapt_gamma=False, max_outer_iterations=1)
    worst_a = 0.0
    for k in (1, 2, 3, 5, 8):
        j = ((k - 1) % net.depth) + 1
        stepped, row = train_step(net, data, L2Loss(), cfg_a, k=k)
        bp = _independent_bp_step(net, data, L2Loss(), j, row.alpha)
        worst_a = max(worst_a, float(np.max(np.abs(stepped.weights[j - 1] - bp))))
    ok_a = worst_a <= 1e-14

    # (b) unit stepsize reproduces gradient descent with stepsize 1/gamma
    gamma = 2.0
    cfg_b = TrainConfig(upperbound=FirstOrderProx(gamma), unit_stepsize=True,
                        adapt_gamma=False, max_outer_iterations=1)
    stepped, _ = train_step(net, data, L2Loss(), cfg_b, k=1)
    gd = net.weights[0] - block_gradient(net, data, L2Loss(), 1) / gamma
    ok_b = np.array_equal(stepped.weights[0], gd)
    indep = _independent_bp_step(net, data, L2Loss(), 1, 1.0, gamma=gamma)
    ok_b = ok_b and float(np.max(np.abs(stepped.weights[0] - indep))) <= 1e-14

    # (c) damped Newton with tiny gamma solves the single-layer ridge problem
    lam = 0.1
    spec_r = NetworkSpec.homogeneous([4, 2], Identity(),
                                     regularizer=Regularizer.l2(lam))
    net_r = build_network(spec_r, "uniform", seed=3)
    data_r = Dataset(rng.standard_normal((4, 30)), rng.standard_normal((2, 30)))
    w_star = ridge_oracle(data_r.X, data_r.Y, lam)
    cfg_c = TrainConfig(upperbound=SecondOrderProx(1e-8), unit_stepsize=True,
                        adapt_gamma=False, max_outer_iterations=3,
                        grad_norm_tol=1e-15)
    final, trace = train(net_r, data_r, L2Loss(), cfg_c)
    err_c = float(np.max(np.abs(final.weights[0] - w_star)))
    ok_c = err_c <= 1e-6 and trace.iterations_run <= 3

    _report(2, "special cases: backprop / gradient descent / damped Newton",
            ok_a and ok_b and ok_c,
            f"bp diff {worst_a:.1e}, newton err {err_c:.1e} "
            f"in {trace.iterations_run} it")


def test_criterion_03_deep_linear_exact_bcd():
    rng = np.random.default_rng(3)
    lam = 0.05
    spec = NetworkSpec.homogeneous([4, 3, 2], Identity(),
                                   regularizer=Regularizer.l2(lam))
    net = build_network(spec, "uniform", seed=4)
    data = Dataset(rng.standard_normal((4, 15)), rng.standard_normal((2, 15)))
    cfg = TrainConfig(upperbound=Proximal(0.0), unit_stepsize=True,
                      max_outer_iterations=1, grad_norm_tol=1e-15)
    current = net.copy()
    from bsumnet.gradients import objective_value
    fs = [objective_value(current, data, L2Loss())]
    worst_block = 0.0
    state = _LoopState(cfg, current.spec, L2Loss(), data.n_samples)
    for k in range(1, 13):
        j = ((k - 1) % current.depth) + 1
        oracle = kron_block_oracle(current, data, j, lam)
        current, row = train_step(current, data, L2Loss(), cfg, k=k, state=state)
        worst_block = max(worst_block,
                          float(np.max(np.abs(current.weights[j - 1] - oracle))))
        fs.append(row.f)
    rises = sum(1 for a, b in zip(fs, fs[1:]) if b > a + 1e-12)
    _report(3, "deep-linear exact BCD matches Kronecker oracle, f non-increasing",
            worst_block <= 1e-8 and rises == 0,
            f"block err {worst_block:.1e}, rises {rises}")


def test_criterion_04_convex_block_monotonicity():
    rng = np.random.default_rng(4)
    dims = [4, 5, 1]
    spec = NetworkSpec.homogeneous(dims, Identity(),
                                   regularizer=Regularizer.l2(0.05))
    net = build_network(spec, "uniform", seed=5)
    teacher = build_network(spec, "uniform", seed=6)
    X = rng.standard_normal((4, 25))
    Y = forward(teacher, X).output + 0.05 * rng.standard_normal((1, 25))
    data = Dataset(X, Y)
    cfg = TrainConfig(
        upperbound=Proximal(1.0, max_iters=150, grad_tol=1e-9),
        unit_stepsize=True, max_outer_iterations=2000, record_every=1,
        grad_norm_tol=1e-14, adapt_gamma=False)
    _, trace = train(net, data, ExponentialLoss(1.0), cfg)
    fs = [trace.initial_f] + [r.f for r in trace.rows]
    rises = sum(1 for a, b in zip(fs, fs[1:]) if b > a + 1e-12)
    _report(4, "exponential+identity proximal training monotone over 2000 it",
            rises == 0 and len(fs) >= 2000,
            f"rises {rises}, iterations {len(fs) - 1}, "
            f"f {fs[0]:.4f} -> {fs[-1]:.4f}")


def test_criterion_05_benchmark_scale_convergence():
    t0 = time.perf_counter()
    data = synth_regression(seed=0, n_samples=252, n_features=13,
                            noise_sigma=0.1)
    spec = NetworkSpec.homogeneous(BENCH_DIMS, Logistic(),
                                   regularizer=Regularizer.l2(1e-2))
    net = build_network(spec, "uniform", seed=0)
    cfg = TrainConfig(upperbound=FirstOrderProx(0.25), schedule=InverseRoot(2.0),
                      max_outer_iterations=5000 * 4, grad_norm_tol=1e-15,
                      record_every=1000, adapt_gamma=False)
    _, trace = train(net, data, L2Loss(), cfg)
    elapsed = time.perf_counter() - t0
    ratio = trace.final_grad_norm / trace.initial_grad_norm
    _report(5, "benchmark-scale residual-norm drop below 1e-3 of initial",
            ratio < 1e-3 and elapsed <= 300.0,
            f"ratio {ratio:.2e}, {elapsed:.0f}s")


def test_criterion_06_stepsize_classification():
    table = {
        "inverse_root": (InverseRoot(1.0), True),
        "recursive": (Recursive(1.0, 0.99), True),
        "constant": (Constant(0.5), False),
        "geometric": (Geometric(1.0), False),
    }
    ok = all(s.satisfies_eq7 is want
             for s, want in table.values())
    _report(6, "stepsize classification (inverse-root/recursive vs constant/geometric)",
            ok)


def test_criterion_07_soft_threshold_correctness():
    rng = np.random.default_rng(7)
    gamma, lam = 1.7, 0.6
    w = 2.0 * rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    got = prox_l1_step(w, g, gamma, lam)
    a = w - g / gamma
    worst = max(abs(float(got[idx]) - brute_force_prox_scalar(float(a[idx]), lam / gamma))
                for idx in np.ndindex(a.shape))
    ok_oracle = worst <= 1e-8

    inside = np.abs(a) <= lam / gamma
    ok_zeros = bool(np.all(got[inside] == 0.0)) and bool(inside.any())

    counts = [int(np.count_nonzero(prox_l1_step(w, g, gamma, lam_i)))
              for lam_i in np.linspace(0.0, 4.0, 17)]
    ok_monotone = all(x >= y for x, y in zip(counts, counts[1:]))
    _report(7, "soft threshold vs exact-rational prox oracle, zeros, sparsity path",
            ok_oracle and ok_zeros and ok_monotone,
            f"worst {worst:.1e}, counts {counts[0]}->{counts[-1]}")


def _random_anchor(rng, with_hess=False, with_f_fn=False):
    """Anchor drawn from a random small training problem."""
    losses = [L2Loss(), ExponentialLoss(1.0), SquaredHingeLoss(1.0),
              LogisticLoss()]
    acts = [Logistic(), Tanh(), Softplus(), BentIdentity()]
    loss = losses[int(rng.integers(len(losses)))]
    act = acts[int(rng.integers(len(acts)))]
    dims = [int(rng.integers(2, 4)) for _ in range(3)]
    spec = NetworkSpec.homogeneous(dims, act,
                                   regularizer=Regularizer.l2(float(rng.uniform(0.01, 0.2))))
    net = build_network(spec, "uniform", seed=int(rng.integers(10_000)))
    X = rng.standard_normal((dims[0], 6))
    Y = labels_for(loss, dims[-1], 6, rng)
    data = Dataset(X, Y)
    j = int(rng.integers(1, net.depth + 1))
    value_fn, _ = block_objective_fn(net, data, loss, j)
    w = net.weights[j - 1]
    anchor = Anchor(
        w=w, f_value=value_fn(w), grad=block_gradient(net, data, loss, j),
        hess=block_hessian(net, data, loss, j) if with_hess else None,
        f_fn=value_fn if with_f_fn else None)
    return anchor, value_fn


def test_criterion_08_surrogate_properties():
    rng = np.random.default_rng(8)
    n_anchors = 100
    tight_ok = grad_ok = strong_ok = major_ok = True
    for i in range(n_anchors):
        gamma = float(rng.uniform(0.2, 3.0))
        anchor, value_fn = _random_anchor(rng, with_hess=(i % 2 == 0),
                                          with_f_fn=True)
        kinds = [FirstOrderProx(gamma), Proximal(gamma)]
        if anchor.hess is not None:
            kinds.append(SecondOrderProx(gamma))
        for kind in kinds:
            # P-tangency: the surrogate touches f at the anchor, exactly
            tight_ok &= abs(kind.evaluate(anchor.w, anchor)
                            - anchor.f_value) <= 1e-12
            # P2: the surrogate's gradient at the anchor is the block gradient
            fd = fd_gradient(lambda v: kind.evaluate(v, anchor),
                             anchor.w, h=1e-6)
            rel = np.linalg.norm(fd - anchor.grad) \
                / max(1.0, np.linalg.norm(anchor.grad))
            grad_ok &= rel <= 1e-6

        # P4 strong convexity, exact for the quadratic first-order surrogate
        kind = FirstOrderProx(gamma)
        v = anchor.w + rng.standard_normal(anchor.w.shape)
        u = anchor.w + rng.standard_normal(anchor.w.shape)
        grad_v = anchor.grad + gamma * (v - anchor.w)
        gap = (kind.evaluate(u, anchor)
               - kind.evaluate(v, anchor)
               - float(np.sum(grad_v * (u - v))))
        strong_ok &= gap >= 0.5 * gamma * float(np.sum((u - v) ** 2)) - 1e-10

        # majorization at the accepted direction under backtracked gamma
        diff, g_acc, _ = first_order_direction_backtracked(
            anchor.w, anchor.grad, 1e-3, Unconstrained(), value_fn,
            anchor.f_value)
        g_at_d = (anchor.f_value + float(np.sum(anchor.grad * diff))
                  + 0.5 * g_acc * float(np.sum(diff * diff)))
        f_at_d = value_fn(anchor.w + diff)
        major_ok &= g_at_d >= f_at_d - 1e-10 * max(1.0, abs(f_at_d))
    _report(8, "surrogate tangency/gradient/strong-convexity/majorization "
               f"on {n_anchors} anchors",
            tight_ok and grad_ok and strong_ok and major_ok,
            f"tangency {tight_ok}, gradient {grad_ok}, "
            f"strong {strong_ok}, majorization {major_ok}")


def test_criterion_09_constraint_preservation():
    rng = np.random.default_rng(9)

    spec_t = NetworkSpec.homogeneous([5, 5, 2], Logistic(),
                                     regularizer=Regularizer.l2(1e-3),
                                     feasible=Toeplitz())
    net = build_network(spec_t, "uniform", seed=10)
    data = Dataset(rng.standard_normal((5, 20)), rng.standard_normal((2, 20)))
    cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0),
                      max_outer_iterations=1, grad_norm_tol=1e-16,
                      adapt_gamma=False)
    state = _LoopState(cfg, net.spec, L2Loss(), data.n_samples)
    current = net.copy()
    worst_t = 0.0
    for k in range(1, 1001):
        current, _ = train_step(current, data, L2Loss(), cfg, k, state)
        worst_t = max(worst_t, max(np.linalg.norm(w - Toeplitz().project(w))
                                   for w in current.weights))

    rho = 0.8
    spec_b = NetworkSpec.homogeneous([4, 4, 1], Logistic(),
                                     regularizer=Regularizer.l2(1e-3),
                                     feasible=FrobeniusBall(rho))
    net_b = build_network(spec_b, "uniform", seed=11)
    data_b = Dataset(rng.standard_normal((4, 16)), rng.standard_normal((1, 16)))
    state_b = _LoopState(cfg, net_b.spec, L2Loss(), data_b.n_samples)
    current_b = net_b.copy()
    worst_b = 0.0
    for k in range(1, 1001):
        current_b, _ = train_step(current_b, data_b, L2Loss(), cfg, k, state_b)
        worst_b = max(worst_b, max(np.linalg.norm(w) for w in current_b.weights))
    _report(9, "Toeplitz iterates on subspace, ball iterates inside radius, 1000 it",
            worst_t <= 1e-12 and worst_b <= rho + 1e-12,
            f"toeplitz dist {worst_t:.1e}, max norm {worst_b:.12f}")


@pytest.fixture(scope="module")
def bench_problem():
    data = synth_regression(seed=0, n_samples=252, n_features=13,
                            noise_sigma=0.1)
    spec = NetworkSpec.homogeneous(BENCH_DIMS, Logistic(),
                                   regularizer=Regularizer.l2(1e-2))
    return data, spec


def test_criterion_10_stochastic_consistency(bench_problem):
    data, spec = bench_problem
    loss = L2Loss()

    # (a) full sampler reproduces the batch trace bitwise
    rng_net = build_network(spec, "uniform", seed=1)
    kwargs = dict(upperbound=FirstOrderProx(0.25), schedule=InverseRoot(2.0),
                  max_outer_iterations=200, record_every=4,
                  grad_norm_tol=1e-15, adapt_gamma=False)
    _, t_batch = train(rng_net, data, loss, TrainConfig(**kwargs))
    _, t_full = stochastic_train(rng_net, data, loss,
                                 TrainConfig(sampler=BatchSampler("full"),
                                             **kwargs))
    ok_bitwise = len(t_batch.rows) == len(t_full.rows) and all(
        a.f == b.f and a.full_grad_norm == b.full_grad_norm
        and a.alpha == b.alpha and (a.k, a.block) == (b.k, b.block)
        for a, b in zip(t_batch.rows, t_full.rows))

    # (b) increasing batches B = min(k, N) converge within twice the budget
    net = build_network(spec, "uniform", seed=0)
    cfg_inc = TrainConfig(upperbound=FirstOrderProx(0.25),
                          schedule=InverseRoot(2.0),
                          sampler=BatchSampler("increasing", seed=0),
                          max_outer_iterations=2 * 5000 * 4,
                          grad_norm_tol=1e-15, record_every=10_000,
                          adapt_gamma=False)
    _, t_inc = stochastic_train(net, data, loss, cfg_inc)
    ratio = t_inc.final_grad_norm / t_inc.initial_grad_norm
    ok_increasing = ratio < 1e-3

    # (c) larger fixed batches reach a lower median terminal loss, 5 seeds
    medians = {}
    for B in (50, 200):
        finals = []
        for seed in range(5):
            net_s = build_network(spec, "uniform", seed=seed)
            cfg_s = TrainConfig(upperbound=FirstOrderProx(0.25),
                                schedule=InverseRoot(2.0),
                                sampler=BatchSampler("fixed", batch_size=B,
                                                     seed=seed),
                                max_outer_iterations=4000,
                                grad_norm_tol=1e-15, record_every=4000,
                                adapt_gamma=False)
            _, tr = stochastic_train(net_s, data, loss, cfg_s)
            finals.append(tr.final_f)
        medians[B] = float(np.median(finals))
    ok_order = medians[200] <= medians[50]

    _report(10, "stochastic: bitwise full-batch, increasing-B convergence, "
                "B=200 <= B=50",
            ok_bitwise and ok_increasing and ok_order,
            f"bitwise {ok_bitwise}, inc ratio {ratio:.1e}, "
            f"medians {medians[50]:.6e} vs {medians[200]:.6e}")
