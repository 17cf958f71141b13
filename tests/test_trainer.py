"""Training loop: schedules, special-case equivalences, loop invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsumnet import (ArmijoRule, BatchSampler, Constant, CurvatureError,
                     Dataset, ExponentialLoss, FirstOrderProx, FrobeniusBall,
                     Geometric, Identity, InverseRoot, L2Loss, Logistic,
                     NetworkSpec, Network, Proximal, Recursive, Regularizer,
                     SecondOrderProx, Softplus, SpecError, Tanh, Toeplitz,
                     Unconstrained, build_network, closed_form_linear_block,
                     forward, normalized_mse, stepsize_next, stochastic_train,
                     synth_regression, train, train_step, validate_schedule)
from bsumnet.gradients import block_gradient, objective_value
from bsumnet.trainer import TrainConfig, armijo_stepsize
from bsumnet.upperbounds import InnerSolverConfig
from conftest import make_problem, with_block


class TestStepsizes:
    def test_inverse_root_k4(self):
        assert stepsize_next(InverseRoot(1.0), 4) == 0.5

    def test_geometric_k3(self):
        assert stepsize_next(Geometric(1.0), 3) == 0.125

    def test_recursive_first_update(self):
        state = {}
        alpha = stepsize_next(Recursive(1.0, 0.99), 1, state)
        assert alpha == pytest.approx(0.01)
        # second value continues the recursion from 0.01
        alpha2 = stepsize_next(Recursive(1.0, 0.99), 2, state)
        assert alpha2 == pytest.approx(0.01 * (1 - 0.99 * 0.01))

    def test_constant(self):
        assert stepsize_next(Constant(0.3), 17) == 0.3

    def test_clipped_into_unit_interval(self):
        assert stepsize_next(InverseRoot(5.0), 1) < 1.0
        assert stepsize_next(Geometric(1.0), 2000) == 0.0

    def test_armijo_needs_context(self):
        with pytest.raises(SpecError):
            stepsize_next(ArmijoRule(), 1)

    def test_parameter_validation(self):
        with pytest.raises(SpecError):
            Recursive(alpha0=0.0)
        with pytest.raises(SpecError):
            Recursive(t=1.0)
        with pytest.raises(SpecError):
            Constant(1.0)
        with pytest.raises(SpecError):
            InverseRoot(0.0)


class TestValidateSchedule:
    def test_classification_table(self):
        assert validate_schedule(InverseRoot(1.0)).satisfies_eq7 is True
        assert validate_schedule(Recursive(1.0, 0.99)).satisfies_eq7 is True
        assert validate_schedule(Constant(0.5)).satisfies_eq7 is False
        assert validate_schedule(Geometric(2.0)).satisfies_eq7 is False
        assert validate_schedule(ArmijoRule()).satisfies_eq7 is False

    def test_witness_strings_nonempty(self):
        for sched in (InverseRoot(1.0), Recursive(), Constant(0.2),
                      Geometric(), ArmijoRule()):
            assert validate_schedule(sched).witness

    def test_numeric_partial_sums(self):
        # the flagged-true schedules keep growing their sum while their
        # squared partial sums flatten; geometric's sum flattens outright
        ks = np.arange(1, 100_001, dtype=float)
        inv = 1.0 / np.sqrt(ks)
        assert inv.sum() > 100  # divergent-sum behavior at this horizon
        state = {}
        rec = np.array([stepsize_next(Recursive(1.0, 0.9), int(k), state)
                        for k in range(1, 20_001)])
        # sum still growing at the horizon (~1/(t k) tail), squares flat
        assert rec[10_000:].sum() > 0.5
        assert np.sum(rec * rec) < 1.0
        geo = 1.0 * 0.5 ** ks[:60]
        assert geo.sum() == pytest.approx(1.0, abs=1e-12)


class TestTrainConfigValidation:
    def test_schedule_required_without_fixed_alpha(self):
        with pytest.raises(SpecError):
            TrainConfig(schedule=None)

    def test_unit_stepsize_excludes_schedule(self):
        with pytest.raises(SpecError):
            TrainConfig(schedule=Constant(0.5), unit_stepsize=True)


def small_problem(seed=0, lam=0.01, n=10):
    return make_problem([3, 4, 2], Logistic(), L2Loss(), lam=lam, seed=seed, n=n)


class TestTrainStep:
    def test_zero_alpha_leaves_net_unchanged(self):
        net, data = make_problem([3, 2], Logistic(), L2Loss(), seed=1)
        # geometric stepsize underflows to exactly 0.0 at large k
        cfg = TrainConfig(upperbound=FirstOrderProx(1.0), schedule=Geometric(1.0),
                          max_outer_iterations=1, adapt_gamma=False)
        new_net, row = train_step(net, data, L2Loss(), cfg, k=2001)
        assert row.alpha == 0.0
        assert np.array_equal(new_net.weights[0], net.weights[0])

    def test_bp_special_case_matches_direct_step(self):
        # gamma=1 first-order family + schedule alpha == W - alpha * grad
        net, data = small_problem(seed=2)
        cfg = TrainConfig(upperbound=FirstOrderProx(1.0),
                          schedule=InverseRoot(0.8), adapt_gamma=False,
                          max_outer_iterations=1)
        for k in (1, 2, 3, 7):
            j = ((k - 1) % net.depth) + 1
            new_net, row = train_step(net, data, L2Loss(), cfg, k=k)
            alpha = 0.8 / np.sqrt(k)
            bp = net.weights[j - 1] - alpha * block_gradient(net, data, L2Loss(), j)
            assert np.max(np.abs(new_net.weights[j - 1] - bp)) <= 1e-14

    def test_unit_stepsize_is_scaled_gradient_descent(self):
        net, data = small_problem(seed=3)
        gamma = 2.5
        cfg = TrainConfig(upperbound=FirstOrderProx(gamma), unit_stepsize=True,
                          adapt_gamma=False, max_outer_iterations=1)
        new_net, row = train_step(net, data, L2Loss(), cfg, k=1)
        want = net.weights[0] - block_gradient(net, data, L2Loss(), 1) / gamma
        assert np.array_equal(new_net.weights[0], want)

    def test_single_block_mutation(self):
        net, data = small_problem(seed=4)
        cfg = TrainConfig(schedule=Constant(0.5), adapt_gamma=False,
                          max_outer_iterations=1)
        for k in (1, 2):
            j = ((k - 1) % net.depth) + 1
            new_net, _ = train_step(net, data, L2Loss(), cfg, k=k)
            for i in range(1, net.depth + 1):
                same = np.array_equal(new_net.weights[i - 1], net.weights[i - 1])
                assert same == (i != j)

    def test_convex_combination_distance_identity(self):
        net, data = small_problem(seed=5)
        alpha = 0.37
        cfg = TrainConfig(schedule=Constant(alpha), adapt_gamma=False,
                          upperbound=FirstOrderProx(0.7), max_outer_iterations=1)
        new_net, row = train_step(net, data, L2Loss(), cfg, k=1)
        d = net.weights[0] - block_gradient(net, data, L2Loss(), 1) / 0.7
        lhs = np.linalg.norm(new_net.weights[0] - net.weights[0])
        rhs = alpha * np.linalg.norm(d - net.weights[0])
        assert abs(lhs - rhs) <= 1e-12

    def test_l1_block_uses_prox_step(self):
        spec = NetworkSpec.homogeneous([4, 1], Identity(),
                                       regularizer=Regularizer.l1(0.3))
        net = build_network(spec, "uniform", seed=6)
        rng = np.random.default_rng(6)
        data = Dataset(rng.standard_normal((4, 12)), rng.standard_normal((1, 12)))
        cfg = TrainConfig(upperbound=FirstOrderProx(1.0), unit_stepsize=True,
                          adapt_gamma=False, max_outer_iterations=1)
        new_net, _ = train_step(net, data, L2Loss(), cfg, k=1)
        g = block_gradient(net, data, L2Loss(), 1, include_reg=False)
        a = net.weights[0] - g
        want = np.where(a > 0.3, a - 0.3, np.where(a < -0.3, a + 0.3, 0.0))
        np.testing.assert_array_equal(new_net.weights[0], want)

    def test_l1_toeplitz_block_takes_the_exact_prox(self):
        # on a Toeplitz block each diagonal is one variable repeated, so the
        # exact prox soft-thresholds the diagonal's mean of W - G/gamma
        spec = NetworkSpec.homogeneous([5, 6, 1], Identity(),
                                       regularizer=Regularizer.l1(0.3),
                                       feasible=Toeplitz())
        rng = np.random.default_rng(9)
        cfg = TrainConfig(upperbound=FirstOrderProx(1.0), unit_stepsize=True,
                          adapt_gamma=False, max_outer_iterations=1)
        for seed in range(20):
            net = build_network(spec, "uniform", seed=seed, scale=1.0)
            data = Dataset(rng.standard_normal((5, 12)), rng.standard_normal((1, 12)))
            new_net, _ = train_step(net, data, L2Loss(), cfg, k=1)
            a = net.weights[0] - block_gradient(net, data, L2Loss(), 1, include_reg=False)
            want = np.empty_like(a)
            for off in range(-5, 5):
                m = np.diagonal(a, off).mean()
                t = np.sign(m) * max(abs(m) - 0.3, 0.0)
                rows = np.arange(max(-off, 0), min(6, 5 - off))
                want[rows, rows + off] = t
            np.testing.assert_allclose(new_net.weights[0], want, rtol=0, atol=1e-12)


class TestArmijo:
    def test_newton_direction_accepted_immediately(self):
        # quadratic objective, exact minimizer direction: alpha_init accepted
        a = np.array([[1.0, -2.0]])
        w = np.array([[0.0, 0.0]])

        def f(v):
            return float(np.sum((v - a) ** 2))

        alpha, ok = armijo_stepsize(f, w, a, 2 * (w - a), ArmijoRule(alpha_init=1.0))
        assert ok and alpha == 1.0

    def test_ascent_direction_returns_zero(self):
        a = np.array([[1.0]])
        w = np.array([[0.0]])

        def f(v):
            return float(np.sum((v - a) ** 2))

        alpha, ok = armijo_stepsize(f, w, w - (a - w), 2 * (w - a), ArmijoRule())
        assert not ok and alpha == 0.0

    def test_non_finite_slope_rejected_without_probes(self):
        calls = []

        def f(v):
            calls.append(v)
            return float(np.sum(v * v))

        w = np.ones((2, 2))
        d = np.zeros((2, 2))
        d[0, 1] = np.nan
        alpha, ok = armijo_stepsize(f, w, d, 2 * w, ArmijoRule())
        assert (alpha, ok) == (0.0, False)
        assert calls == []

    def test_accepted_alpha_satisfies_sufficient_decrease(self):
        rng = np.random.default_rng(7)
        net, data = small_problem(seed=8)
        rule = ArmijoRule(shrink=0.5, slope=1e-4, alpha_init=1.0)
        for j in (1, 2):
            w = net.weights[j - 1]
            grad = block_gradient(net, data, L2Loss(), j)
            d = w - grad  # gamma=1 direction

            def f(v, j=j):
                return objective_value(with_block(net, j, v), data, L2Loss())

            alpha, ok = armijo_stepsize(f, w, d, grad, rule)
            assert ok
            slope = float(np.sum(grad * (d - w)))
            assert f(w + alpha * (d - w)) <= f(w) + rule.slope * alpha * slope


class TestTrainLoop:
    def test_stationary_start_stops_after_one_cycle(self):
        # H == Y exactly and no regularizer: every direction equals W
        rng = np.random.default_rng(9)
        w1 = rng.standard_normal((2, 3))
        w2 = rng.standard_normal((2, 2))
        spec = NetworkSpec.homogeneous([3, 2, 2], Identity())
        net = Network(spec, [w1, w2])
        X = rng.standard_normal((3, 6))
        data = Dataset(X, w2 @ (w1 @ X))
        cfg = TrainConfig(upperbound=FirstOrderProx(1.0), schedule=Constant(0.5),
                          max_outer_iterations=100, grad_norm_tol=1e-9,
                          adapt_gamma=False)
        final, trace = train(net, data, L2Loss(), cfg)
        assert trace.converged
        assert trace.iterations_run == net.depth
        for w_new, w_old in zip(final.weights, net.weights):
            np.testing.assert_allclose(w_new, w_old, atol=1e-12)

    def test_cyclic_coverage(self):
        net, data = small_problem(seed=10)
        cfg = TrainConfig(schedule=Constant(0.2), adapt_gamma=False,
                          max_outer_iterations=2 * net.depth, record_every=1,
                          grad_norm_tol=1e-16)
        _, trace = train(net, data, L2Loss(), cfg)
        blocks = [r.block for r in trace.rows]
        assert blocks == [1, 2, 1, 2]

    def test_objective_decreases_overall(self):
        net, data = small_problem(seed=11, n=20)
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0),
                          max_outer_iterations=400, grad_norm_tol=1e-12,
                          adapt_gamma=True)
        _, trace = train(net, data, L2Loss(), cfg)
        assert trace.final_f < trace.initial_f

    def test_deep_linear_exact_bcd_matches_closed_form_and_descends(self):
        rng = np.random.default_rng(12)
        lam = 0.05
        spec = NetworkSpec.homogeneous([3, 3, 2], Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=12)
        data = Dataset(rng.standard_normal((3, 15)), rng.standard_normal((2, 15)))
        cfg = TrainConfig(upperbound=Proximal(0.0), unit_stepsize=True,
                          max_outer_iterations=8, grad_norm_tol=1e-14,
                          record_every=1)
        current = net.copy()
        fs = [objective_value(current, data, L2Loss())]
        for k in range(1, 9):
            j = ((k - 1) % 2) + 1
            want = closed_form_linear_block(current, data, j, lam)
            current2, row = train_step(current, data, L2Loss(), cfg, k=k)
            np.testing.assert_allclose(current2.weights[j - 1], want, atol=1e-10)
            fs.append(row.f)
            current = current2
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_monotone_descent_in_certified_convex_regime(self):
        dims = [4, 5, 1]
        spec = NetworkSpec.homogeneous(dims, Softplus(),
                                       regularizer=Regularizer.l2(0.05))
        net = build_network(spec, "uniform", seed=13)
        teacher = build_network(spec, "uniform", seed=14)
        rng = np.random.default_rng(13)
        X = rng.standard_normal((4, 20))
        Y = forward(teacher, X).output + 0.05 * rng.standard_normal((1, 20))
        data = Dataset(X, Y)
        cfg = TrainConfig(upperbound=Proximal(1.0, InnerSolverConfig(max_iters=100)),
                          unit_stepsize=True, max_outer_iterations=60,
                          record_every=1, grad_norm_tol=1e-14, adapt_gamma=False)
        _, trace = train(net, data, ExponentialLoss(1.0), cfg)
        fs = [trace.initial_f] + trace.f_values()
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_proximal_kind_requires_certificate(self):
        net, data = small_problem(seed=15)  # logistic: not certified
        cfg = TrainConfig(upperbound=Proximal(1.0), schedule=Constant(0.5),
                          max_outer_iterations=2, adapt_gamma=False)
        with pytest.raises(CurvatureError):
            train_step(net, data, L2Loss(), cfg, k=1)
        cfg_override = TrainConfig(upperbound=Proximal(1.0), schedule=Constant(0.5),
                                   max_outer_iterations=2, adapt_gamma=False,
                                   curvature_override=True)
        new_net, _ = train_step(net, data, L2Loss(), cfg_override, k=1)
        assert new_net.weights[0].shape == net.weights[0].shape

    def test_second_order_path_runs(self):
        net, data = make_problem([3, 2], Logistic(), L2Loss(), lam=0.05, seed=16)
        cfg = TrainConfig(upperbound=SecondOrderProx(1e-4), unit_stepsize=True,
                          adapt_gamma=False, max_outer_iterations=6,
                          grad_norm_tol=1e-12, record_every=1)
        _, trace = train(net, data, L2Loss(), cfg)
        assert trace.final_grad_norm < trace.initial_grad_norm

    def test_toeplitz_iterates_stay_on_subspace(self):
        spec = NetworkSpec.homogeneous([4, 4, 2], Logistic(),
                                       regularizer=Regularizer.l2(1e-3),
                                       feasible=Toeplitz())
        net = build_network(spec, "uniform", seed=17)
        rng = np.random.default_rng(17)
        data = Dataset(rng.standard_normal((4, 12)), rng.standard_normal((2, 12)))
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0),
                          max_outer_iterations=50, grad_norm_tol=1e-14,
                          adapt_gamma=False)
        state = None
        current = net.copy()
        from bsumnet.trainer import _LoopState
        state = _LoopState(cfg, current.depth, data.n_samples)
        for k in range(1, 51):
            current, _ = train_step(current, data, L2Loss(), cfg, k, state)
            for fs, w in zip(spec.feasible_sets, current.weights):
                assert fs.distance(w) <= 1e-12

    def test_frobenius_ball_iterates_stay_inside(self):
        rho = 0.8
        spec = NetworkSpec.homogeneous([3, 3, 1], Logistic(),
                                       regularizer=Regularizer.l2(1e-3),
                                       feasible=FrobeniusBall(rho))
        net = build_network(spec, "uniform", seed=18)
        rng = np.random.default_rng(18)
        data = Dataset(rng.standard_normal((3, 10)), rng.standard_normal((1, 10)))
        cfg = TrainConfig(upperbound=FirstOrderProx(0.2), schedule=Constant(0.9),
                          max_outer_iterations=60, grad_norm_tol=1e-14,
                          adapt_gamma=False)
        final, _ = train(net, data, L2Loss(), cfg)
        for w in final.weights:
            assert np.linalg.norm(w) <= rho + 1e-12

    def test_per_layer_settings(self):
        net, data = small_problem(seed=19)
        cfg = TrainConfig(
            upperbound=(FirstOrderProx(1.0), FirstOrderProx(2.0)),
            schedule=(Constant(0.5), Constant(0.25)),
            max_outer_iterations=2, record_every=1, adapt_gamma=False,
            grad_norm_tol=1e-16)
        _, trace = train(net, data, L2Loss(), cfg)
        assert trace.rows[0].gamma == 1.0 and trace.rows[0].alpha == 0.5
        assert trace.rows[1].gamma == 2.0 and trace.rows[1].alpha == 0.25

    def test_armijo_schedule_in_loop(self):
        net, data = small_problem(seed=20, n=16)
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5),
                          schedule=ArmijoRule(alpha_init=0.9),
                          max_outer_iterations=40, record_every=1,
                          grad_norm_tol=1e-12, adapt_gamma=False)
        _, trace = train(net, data, L2Loss(), cfg)
        assert trace.final_f < trace.initial_f
        assert all(0.0 <= r.alpha <= 0.9 for r in trace.rows)

    def test_overflow_aborts_with_partial_trace(self):
        # a tiny gamma makes the first-order step explosive; the exponential
        # loss overflows mid-run and the loop must abort, not crash
        rng = np.random.default_rng(21)
        spec = NetworkSpec.homogeneous([2, 2], Identity(),
                                       regularizer=Regularizer.l2(1e-6))
        net = Network(spec, [np.eye(2) * 0.5])
        data = Dataset(rng.standard_normal((2, 8)),
                       rng.standard_normal((2, 8)) + 2.0)
        cfg = TrainConfig(upperbound=FirstOrderProx(1e-9), schedule=Constant(0.9),
                          max_outer_iterations=50, adapt_gamma=False)
        _, trace = train(net, data, ExponentialLoss(1.0), cfg)
        assert trace.aborted
        assert trace.iterations_run >= 1
        assert "exponent" in trace.abort_reason

    def test_non_finite_objective_aborts(self):
        # a step far too long for the curvature: f overflows within a few
        # cycles while every weight stays finite for a while
        data = synth_regression(seed=0, n_features=5, teacher_dims=[5, 4, 1])
        net = build_network(NetworkSpec.homogeneous([5, 4, 1], Identity()),
                            "uniform", seed=0)
        cfg = TrainConfig(upperbound=FirstOrderProx(1e-3), schedule=Constant(0.9),
                          adapt_gamma=False, max_outer_iterations=200)
        with np.errstate(over="ignore", invalid="ignore"):
            out, trace = train(net, data, L2Loss(), cfg)
            f_out = objective_value(out, data, L2Loss())
        assert trace.aborted
        assert "non-finite" in trace.abort_reason
        assert trace.iterations_run < cfg.max_outer_iterations
        assert not np.isfinite(trace.final_f)
        assert not np.isfinite(f_out)


class TestStochasticTrain:
    def test_full_sampler_reproduces_batch_trace_bitwise(self):
        net, data = small_problem(seed=22, n=14)
        kwargs = dict(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0),
                      max_outer_iterations=30, record_every=1,
                      grad_norm_tol=1e-13, adapt_gamma=True)
        _, batch_trace = train(net, data, L2Loss(), TrainConfig(**kwargs))
        _, stoch_trace = stochastic_train(
            net, data, L2Loss(),
            TrainConfig(sampler=BatchSampler("full"), **kwargs))
        assert len(batch_trace.rows) == len(stoch_trace.rows)
        for a, b in zip(batch_trace.rows, stoch_trace.rows):
            assert (a.k, a.block) == (b.k, b.block)
            assert a.f == b.f and a.full_grad_norm == b.full_grad_norm
            assert a.alpha == b.alpha and a.gamma == b.gamma

    def test_requires_first_order_family(self):
        net, data = small_problem(seed=23)
        cfg = TrainConfig(upperbound=SecondOrderProx(1.0), schedule=Constant(0.5),
                          sampler=BatchSampler("fixed", batch_size=4, seed=0),
                          max_outer_iterations=4, adapt_gamma=False)
        with pytest.raises(SpecError):
            stochastic_train(net, data, L2Loss(), cfg)

    def test_fixed_batch_run_descends(self):
        net, data = small_problem(seed=24, n=30)
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0),
                          sampler=BatchSampler("fixed", batch_size=10, seed=3),
                          max_outer_iterations=300, grad_norm_tol=1e-13,
                          adapt_gamma=False)
        _, trace = stochastic_train(net, data, L2Loss(), cfg)
        assert trace.final_f < trace.initial_f

    def test_increasing_batches_reach_full(self):
        net, data = small_problem(seed=25, n=12)
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0),
                          sampler=BatchSampler("increasing", seed=0),
                          max_outer_iterations=40, grad_norm_tol=1e-13,
                          adapt_gamma=False)
        _, trace = stochastic_train(net, data, L2Loss(), cfg)
        assert trace.iterations_run == 40


@st.composite
def first_order_runs(draw):
    """Small first-order problems: depth 1-3, logistic / tanh / softplus,
    unconstrained or Toeplitz layers, fixed or adaptive gamma, and an
    inverse-root, recursive or Armijo stepsize."""
    depth = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4), min_size=depth + 1, max_size=depth + 1))
    act = draw(st.sampled_from([Logistic(), Tanh(), Softplus()]))
    sets = tuple(draw(st.sampled_from([Unconstrained(), Toeplitz()])) for _ in range(depth))
    spec = NetworkSpec(tuple(dims), (act,) * depth, sets, (Regularizer.l2(1e-2),) * depth)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 8))
    data = Dataset(rng.standard_normal((dims[0], n)), rng.standard_normal((dims[-1], n)))
    schedule = draw(st.sampled_from([InverseRoot(1.0), Recursive(0.9, 0.5), ArmijoRule()]))
    cfg = TrainConfig(upperbound=FirstOrderProx(draw(st.sampled_from([0.1, 1.0]))),
                      schedule=schedule, max_outer_iterations=draw(st.integers(1, 12)),
                      record_every=1, grad_norm_tol=1e-13,
                      adapt_gamma=draw(st.booleans()))
    return build_network(spec, "uniform", seed=seed), data, cfg


def _without_clock(row):
    return dataclasses.replace(row, wall_seconds=0.0)


class TestFullSamplerEquivalence:
    @given(first_order_runs())
    @settings(max_examples=60, deadline=None)
    def test_full_sampler_is_bitwise_train(self, run):
        net, data, cfg = run
        net_batch, t_batch = train(net, data, L2Loss(), cfg)
        net_full, t_full = stochastic_train(
            net, data, L2Loss(), dataclasses.replace(cfg, sampler=BatchSampler("full")))
        assert [_without_clock(r) for r in t_batch.rows] == \
            [_without_clock(r) for r in t_full.rows]
        assert all(np.array_equal(a, b) for a, b in zip(net_batch.weights, net_full.weights))


class TestNormalizedMse:
    def test_zero_at_perfect_fit(self):
        y = np.random.default_rng(26).standard_normal((2, 7))
        assert normalized_mse(y, y) == 0.0

    def test_one_at_mean_predictor(self):
        y = np.random.default_rng(27).standard_normal((2, 9))
        ybar = np.repeat(y.mean(axis=1, keepdims=True), 9, axis=1)
        assert normalized_mse(ybar, y) == pytest.approx(1.0)
