"""Training loop: schedules, special-case equivalences, loop invariants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsumnet import (ArmijoRule, BatchSampler, Constant, CurvatureError,
                     Dataset, ExponentialLoss, FirstOrderProx, FrobeniusBall,
                     Geometric, Identity, InverseRoot, L2Loss, Logistic,
                     NetworkSpec, Network, NonSmoothError, Proximal, Recursive,
                     Regularizer, SecondOrderProx, SizeError, Softplus, SpecError, Tanh,
                     Toeplitz, Unconstrained, build_network, closed_form_linear_block,
                     forward, normalized_mse, stepsize_next, stochastic_train,
                     synth_regression, train, train_step)
from bsumnet import trainer
from bsumnet.functions import sqnorm
from bsumnet.gradients import (BatchStream, NetworkPass, block_gradient, block_hessian,
                               objective_value)
from bsumnet.trainer import TrainConfig, _LoopState, armijo_stepsize
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
        assert InverseRoot(1.0).satisfies_eq7 is True
        assert Recursive(1.0, 0.99).satisfies_eq7 is True
        assert Constant(0.5).satisfies_eq7 is False
        assert Geometric(2.0).satisfies_eq7 is False
        assert ArmijoRule().satisfies_eq7 is False

    def test_witness_strings_nonempty(self):
        for sched in (InverseRoot(1.0), Recursive(), Constant(0.2),
                      Geometric(), ArmijoRule()):
            assert sched.witness

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

    def test_blocks_pairs_each_block_with_its_family_and_schedule(self):
        net, _ = small_problem()
        cfg = TrainConfig(upperbound=(FirstOrderProx(1.0), SecondOrderProx(2.0)),
                          schedule=Constant(0.5))
        assert cfg.blocks(net.spec, L2Loss()) == ((FirstOrderProx(1.0), Constant(0.5)),
                                                  (SecondOrderProx(2.0), Constant(0.5)))
        newton = TrainConfig(upperbound=SecondOrderProx(), unit_stepsize=True)
        assert newton.blocks(net.spec, L2Loss()) == ((SecondOrderProx(), None),) * 2

    @staticmethod
    def steps_taken(monkeypatch, net, data, cfg, error):
        """Run ``train`` expecting ``error``; the number of steps entered."""
        entered = []
        step = trainer._step
        monkeypatch.setattr(trainer, "_step", lambda *a: entered.append(a) or step(*a))
        with pytest.raises(error):
            train(net, data, L2Loss(), cfg)
        return len(entered)

    @pytest.mark.parametrize("settings,error", [
        ({"upperbound": SecondOrderProx(), "schedule": Constant(0.5)}, NonSmoothError),
        ({"schedule": ArmijoRule()}, NonSmoothError),
        ({"schedule": (Constant(0.5),)}, SpecError),
    ], ids=["second_order", "armijo", "one_entry_schedule"])
    def test_run_rules_raise_before_the_first_step(self, monkeypatch, settings, error):
        # L1 on block 2 only: block 1 would take a step if the rules were
        # checked block by block
        net, data = make_problem([3, 4, 1], Logistic(), L2Loss(), seed=4)
        spec = dataclasses.replace(net.spec, regularizers=(Regularizer.l2(0.01),
                                                           Regularizer.l1(0.01)))
        net = Network(spec, net.weights)
        cfg = TrainConfig(max_outer_iterations=4, **settings)
        assert self.steps_taken(monkeypatch, net, data, cfg, error) == 0

    def test_newton_block_over_the_hessian_budget_raises_before_the_first_step(
            self, monkeypatch):
        # 2 x 101 and 101 x 1 fit the 10,000-entry budget, 101 x 101 does not;
        # block 1 would take a step if the budget were checked on block 2's turn
        net, data = make_problem([2, 101, 101, 1], Tanh(), L2Loss(), seed=4, n=4)
        cfg = TrainConfig(upperbound=SecondOrderProx(), unit_stepsize=True,
                          max_outer_iterations=3)
        assert self.steps_taken(monkeypatch, net, data, cfg, SizeError) == 0
        with pytest.raises(SizeError, match="block 2: 10201 parameters, over the 10000"):
            cfg.blocks(net.spec, L2Loss())
        first_order = TrainConfig(upperbound=FirstOrderProx(), unit_stepsize=True)
        assert len(first_order.blocks(net.spec, L2Loss())) == 3
        at_budget = NetworkSpec.homogeneous([1, 100, 100, 1], Tanh())
        assert len(cfg.blocks(at_budget, L2Loss())) == 3

    def test_toeplitz_block_is_budgeted_by_its_kernel(self):
        # the 120 x 120 middle block has 14,400 weights but 239 diagonal
        # values, the unknowns its Newton step solves for
        net, data = make_problem([2, 120, 120, 1], Tanh(), L2Loss(), lam=1e-2, seed=4, n=8)
        spec = dataclasses.replace(net.spec, feasible_sets=(Unconstrained(), Toeplitz(),
                                                            Unconstrained()))
        net = Network(spec, [w if j != 2 else Toeplitz().project(w)
                             for j, w in enumerate(net.weights, 1)])
        cfg = TrainConfig(upperbound=SecondOrderProx(0.1), unit_stepsize=True,
                          max_outer_iterations=6, record_every=1)
        assert len(cfg.blocks(spec, L2Loss())) == 3
        _, trace = train(net, data, L2Loss(), cfg)
        before = [trace.initial_f] + [row.f for row in trace.rows[:-1]]
        steps = [(f0, row.f) for f0, row in zip(before, trace.rows) if row.block == 2]
        assert len(steps) == 2
        assert all(f1 < f0 for f0, f1 in steps), steps

    @pytest.mark.parametrize("settings", [
        {"schedule": (Constant(0.5), None)},
        {"upperbound": (FirstOrderProx(1.0), None), "schedule": Constant(0.5)},
    ], ids=["schedule", "upperbound"])
    def test_none_per_layer_entry_is_a_spec_error(self, monkeypatch, settings):
        # never read as unit stepsize, nor left to fail on its block's turn
        net, data = make_problem([3, 4, 1], Logistic(), L2Loss(), seed=4)
        cfg = TrainConfig(max_outer_iterations=4, **settings)
        assert self.steps_taken(monkeypatch, net, data, cfg, SpecError) == 0


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

    def test_rejected_armijo_step_keeps_the_block_whatever_the_direction(self, monkeypatch):
        # an inf in D, signed as the gradient, gives the slope +inf, so the
        # search returns alpha 0; 0.0 * inf must not reach W_j
        net, data = make_problem([3, 4, 1], Logistic(), L2Loss(), seed=3)
        direction = FirstOrderProx.direction

        def poisoned(kind, fb, j, grad, adapt):
            d, gamma, _ = direction(kind, fb, j, grad, adapt)
            d = d.copy()
            d[0, 0] = np.copysign(np.inf, grad[0, 0])
            return d, gamma, None  # a new D: the Armijo test forms its slope

        monkeypatch.setattr(FirstOrderProx, "direction", poisoned)
        cfg = TrainConfig(schedule=ArmijoRule(), adapt_gamma=False)
        full = NetworkPass(net, data, L2Loss())
        w = full.net.weights[0].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = _LoopState(cfg, net.spec, L2Loss(), data.n_samples)
            _, alpha, _, _ = trainer._step(full, 1, state)
        assert alpha == 0.0
        assert full.net.weights[0].tobytes() == w.tobytes()

    def test_bp_special_case_matches_direct_step(self):
        # gamma=1 first-order family + schedule alpha == W - alpha * grad, bit
        # for bit: the step is W + alpha (grad / -1)
        net, data = small_problem(seed=2)
        cfg = TrainConfig(upperbound=FirstOrderProx(1.0),
                          schedule=InverseRoot(0.8), adapt_gamma=False,
                          max_outer_iterations=1)
        for k in (1, 2, 3, 7):
            j = ((k - 1) % net.depth) + 1
            new_net, row = train_step(net, data, L2Loss(), cfg, k=k)
            alpha = 0.8 / np.sqrt(k)
            bp = net.weights[j - 1] - alpha * block_gradient(net, data, L2Loss(), j)
            assert np.array_equal(new_net.weights[j - 1], bp)

    @pytest.mark.parametrize("feasible", [Unconstrained(), Toeplitz()],
                             ids=["unconstrained", "toeplitz"])
    def test_schedule_step_on_a_linear_set_is_the_fused_update(self, feasible, monkeypatch):
        # alpha is known before the step and P is linear and fixes W, so the
        # step to D = P(W - G/gamma) is installed as W + alpha P(G)/(-gamma)
        # without forming D; a Toeplitz block stays exactly on its set
        net, data = make_problem([4, 4, 4, 1], Logistic(), L2Loss(), seed=5,
                                 feasible=feasible)
        gamma = 0.3
        cfg = TrainConfig(upperbound=FirstOrderProx(gamma), schedule=InverseRoot(0.7),
                          adapt_gamma=False)
        monkeypatch.setattr(FirstOrderProx, "direction", None)  # no D is formed
        state = _LoopState(cfg, net.spec, L2Loss(), data.n_samples)
        full = NetworkPass(net.copy(), data, L2Loss())
        for k in range(1, 10):
            j = (k - 1) % net.depth + 1
            w = full.net.weights[j - 1]
            g = block_gradient(full.net, data, L2Loss(), j)
            _, alpha, got_gamma, _ = trainer._step(full, k, state)
            want = w + alpha * (feasible.project(g) / -gamma)
            got = full.net.weights[j - 1]
            assert (alpha, got_gamma) == (stepsize_next(InverseRoot(0.7), k), gamma)
            assert got.tobytes() == want.tobytes()
            if isinstance(feasible, Toeplitz):  # gap 0: one value per diagonal
                rows, cols = got.shape
                assert all(len(set(np.diagonal(got, o))) == 1 for o in range(1 - rows, cols))

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
    @pytest.mark.parametrize("alpha_init", [-0.5, 0.0, 1.0 + 1e-12, 4.0])
    def test_first_trial_stays_on_the_segment(self, alpha_init):
        # a first trial beyond 1 leaves the segment [W, D]: 4D - 3W at 4
        with pytest.raises(SpecError, match="armijo parameters out of range"):
            ArmijoRule(alpha_init=alpha_init)

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
        for bad in (np.nan, -np.inf, np.inf):
            d = np.zeros((2, 2))
            d[0, 1] = bad
            alpha, ok = armijo_stepsize(f, w, d, 2 * w, ArmijoRule())
            assert (alpha, ok) == (0.0, False)
            assert calls == [], bad

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
        spec = NetworkSpec.homogeneous(dims, Identity(),
                                       regularizer=Regularizer.l2(0.05))
        net = build_network(spec, "uniform", seed=13)
        teacher = build_network(spec, "uniform", seed=14)
        rng = np.random.default_rng(13)
        X = rng.standard_normal((4, 20))
        Y = forward(teacher, X).output + 0.05 * rng.standard_normal((1, 20))
        data = Dataset(X, Y)
        cfg = TrainConfig(upperbound=Proximal(1.0, max_iters=100),
                          unit_stepsize=True, max_outer_iterations=60,
                          record_every=1, grad_norm_tol=1e-14, adapt_gamma=False)
        _, trace = train(net, data, ExponentialLoss(1.0), cfg)
        fs = [trace.initial_f] + [r.f for r in trace.rows]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_proximal_kind_requires_certificate(self):
        net, data = small_problem(seed=15)  # logistic: not certified
        cfg = TrainConfig(upperbound=Proximal(1.0), schedule=Constant(0.5),
                          max_outer_iterations=2, adapt_gamma=False)
        with pytest.raises(CurvatureError, match="block 1 not certified strongly convex"):
            cfg.blocks(net.spec, L2Loss())
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

    def test_second_order_rows_report_the_gamma_that_factored(self):
        # an unpenalized tanh net started far out: at gamma 1e-8 the damped
        # Hessian is indefinite, so the Newton step doubles gamma until it
        # factors, and the row must carry that gamma, not the configured one
        net, data = make_problem([4, 6, 6, 1], Tanh(), L2Loss(), reg=Regularizer.none(),
                                 seed=0, n=60, init_scale=2.0)
        hess = block_hessian(net, data, L2Loss(), 1)
        want = 1e-8
        while np.linalg.eigvalsh(hess + want * np.eye(len(hess)))[0] <= 0:
            want *= 2.0
        cfg = TrainConfig(upperbound=SecondOrderProx(1e-8), unit_stepsize=True,
                          max_outer_iterations=30, record_every=1)
        _, trace = train(net, data, L2Loss(), cfg)
        assert trace.rows[0].gamma == want > 1e-8
        assert all(r.gamma >= 1e-8 for r in trace.rows)

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
        state = _LoopState(cfg, current.spec, L2Loss(), data.n_samples)
        for k in range(1, 51):
            current, _ = train_step(current, data, L2Loss(), cfg, k, state)
            for fs, w in zip(spec.feasible_sets, current.weights):
                assert np.linalg.norm(w - fs.project(w)) <= 1e-12

    def test_frobenius_ball_iterates_stay_inside(self):
        rho = 0.8
        spec = NetworkSpec.homogeneous([3, 3, 1], Logistic(),
                                       regularizer=Regularizer.l2(1e-3),
                                       feasible=FrobeniusBall(rho))
        rng = np.random.default_rng(18)
        data = Dataset(rng.standard_normal((3, 10)), rng.standard_normal((1, 10)))
        # every Armijo trial lies on the segment [W, D], whose ends lie in the ball
        for schedule in (Constant(0.9), ArmijoRule()):
            net = build_network(spec, "uniform", seed=18)
            cfg = TrainConfig(upperbound=FirstOrderProx(0.2), schedule=schedule,
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

    @pytest.mark.parametrize("per_layer", [False, True], ids=["shared", "per_layer"])
    def test_recursive_schedule_state(self, per_layer):
        # a shared schedule advances one state every iteration; a per-layer
        # tuple advances each block's own state once per visit of its block
        net, data = small_problem(seed=23)
        cfg = TrainConfig(schedule=(Recursive(), Recursive()) if per_layer else Recursive(),
                          max_outer_iterations=12, record_every=1, grad_norm_tol=1e-300)
        _, trace = train(net, data, L2Loss(), cfg)
        states = [{}, {}]
        want = [stepsize_next(Recursive(), k, states[(k - 1) % 2 if per_layer else 0])
                for k in range(1, 13)]
        assert [r.alpha for r in trace.rows] == want

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
        net, _ = small_problem()
        cfg = TrainConfig(upperbound=SecondOrderProx(1.0), schedule=Constant(0.5),
                          sampler=BatchSampler("fixed", batch_size=4, seed=0),
                          max_outer_iterations=4, adapt_gamma=False)
        with pytest.raises(SpecError, match="mini-batch samplers"):
            cfg.blocks(net.spec, L2Loss())

    @pytest.mark.parametrize("sampler", [BatchSampler("fixed", batch_size=4, seed=1),
                                         BatchSampler("increasing", seed=2)],
                             ids=["fixed", "increasing"])
    def test_train_takes_every_sampler(self, sampler):
        net, data = small_problem(seed=23, n=12)
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0),
                          sampler=sampler, max_outer_iterations=20, record_every=1,
                          grad_norm_tol=1e-13, adapt_gamma=False)
        net_t, t_train = train(net, data, L2Loss(), cfg)
        net_s, t_stoch = stochastic_train(net, data, L2Loss(), cfg)
        assert [_without_clock(r) for r in t_train.rows] == \
            [_without_clock(r) for r in t_stoch.rows]
        assert all(np.array_equal(a, b) for a, b in zip(net_t.weights, net_s.weights))

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


class TestRecordedBlockGradientNorm:
    """A row's block_grad_norm, taken only when the row is recorded, is
    bitwise the norm of the block gradient a fresh pass takes at the iterate
    step k started from (on step k's batch with a mini-batch sampler)."""

    @pytest.mark.parametrize("record_every,sampler,schedule,reg", [
        (1, BatchSampler(), InverseRoot(1.0), Regularizer.l2(1e-2)),
        (None, BatchSampler(), InverseRoot(1.0), Regularizer.l2(1e-2)),
        (2, BatchSampler(), ArmijoRule(), Regularizer.l2(1e-2)),
        (1, BatchSampler("fixed", batch_size=5, seed=4), Recursive(0.9, 0.5),
         Regularizer.l2(1e-2)),
        (1, BatchSampler(), InverseRoot(1.0), Regularizer.l1(1e-2)),
    ], ids=["every_row", "default_rows", "armijo", "fixed_batch", "l1"])
    def test_rows_match_a_fresh_gradient(self, record_every, sampler, schedule, reg):
        net, data = make_problem([3, 4, 3, 1], Logistic(), L2Loss(), seed=5, n=15, reg=reg)
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=schedule, sampler=sampler,
                          record_every=record_every, max_outer_iterations=9,
                          grad_norm_tol=1e-13)
        _, trace = train(net, data, L2Loss(), cfg)
        stream = BatchStream(sampler, data.n_samples)
        batches = [stream.next(k) for k in range(1, 10)]
        assert [r.k for r in trace.rows] == list(range(record_every or 3, 10, record_every or 3))
        for row in trace.rows:
            start = train(net, data, L2Loss(), dataclasses.replace(
                cfg, max_outer_iterations=row.k - 1))[0] if row.k > 1 else net
            batch = data if sampler.mode == "full" else data.restrict(batches[row.k - 1])
            g = NetworkPass(start, batch, L2Loss()).grad(row.block)
            assert row.block_grad_norm == math.sqrt(sqnorm(g)), row.k

    def test_train_step_row_matches_a_fresh_gradient(self):
        net, data = make_problem([3, 4, 3, 1], Logistic(), L2Loss(), seed=6, n=15)
        cfg = TrainConfig(upperbound=FirstOrderProx(0.5), schedule=InverseRoot(1.0))
        for k in (1, 2, 3):
            _, row = train_step(net, data, L2Loss(), cfg, k)
            g = NetworkPass(net, data, L2Loss()).grad(k)
            assert row.block == k and row.block_grad_norm == math.sqrt(sqnorm(g))


@st.composite
def first_order_runs(draw, schedules=(InverseRoot(1.0), Recursive(0.9, 0.5), ArmijoRule())):
    """Small first-order problems: depth 1-3, logistic / tanh / softplus,
    unconstrained, Toeplitz or Frobenius-ball layers, L2 1e-2, and a
    stepsize from ``schedules`` with fixed or adaptive gamma (None: unit
    stepsize with adaptive gamma)."""
    depth = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4), min_size=depth + 1, max_size=depth + 1))
    act = draw(st.sampled_from([Logistic(), Tanh(), Softplus()]))
    sets = tuple(draw(st.sampled_from([Unconstrained(), Toeplitz(), FrobeniusBall(0.5)]))
                 for _ in range(depth))
    spec = NetworkSpec(tuple(dims), (act,) * depth, sets, (Regularizer.l2(1e-2),) * depth)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 8))
    data = Dataset(rng.standard_normal((dims[0], n)), rng.standard_normal((dims[-1], n)))
    schedule = draw(st.sampled_from(schedules))
    cfg = TrainConfig(upperbound=FirstOrderProx(draw(st.sampled_from([0.1, 1.0]))),
                      schedule=schedule, unit_stepsize=schedule is None,
                      max_outer_iterations=draw(st.integers(1, 12)),
                      record_every=1, grad_norm_tol=1e-13,
                      adapt_gamma=schedule is None or draw(st.booleans()))
    return build_network(spec, "uniform", seed=seed), data, cfg


@st.composite
def proximal_runs(draw):
    """Small problems whose top layers are the identity, so that their
    blocks are certified strongly convex: the proximal family on those,
    the first-order family on the logistic / tanh / softplus layers below,
    over unconstrained, Toeplitz or Frobenius-ball layers with L2 1e-2,
    and Armijo steps or unit steps, with adaptive gamma."""
    depth = draw(st.integers(1, 3))
    top = draw(st.integers(1, depth))
    dims = draw(st.lists(st.integers(1, 4), min_size=depth + 1, max_size=depth + 1))
    act = draw(st.sampled_from([Logistic(), Tanh(), Softplus()]))
    sets = tuple(draw(st.sampled_from([Unconstrained(), Toeplitz(), FrobeniusBall(0.5)]))
                 for _ in range(depth))
    spec = NetworkSpec(tuple(dims), (act,) * (depth - top) + (Identity(),) * top, sets,
                       (Regularizer.l2(1e-2),) * depth)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 8))
    data = Dataset(rng.standard_normal((dims[0], n)), rng.standard_normal((dims[-1], n)))
    gamma = draw(st.sampled_from([0.0, 0.1, 1.0]))
    kinds = (FirstOrderProx(0.1),) * (depth - top) + (Proximal(gamma, max_iters=50),) * top
    schedule = draw(st.sampled_from([ArmijoRule(), None]))
    cfg = TrainConfig(upperbound=kinds, schedule=schedule, unit_stepsize=schedule is None,
                      max_outer_iterations=draw(st.integers(1, 12)),
                      record_every=1, grad_norm_tol=1e-13)
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


class TestDataLayout:
    @pytest.mark.parametrize("problem", ["fo_logistic", "curvature"])
    def test_runs_keep_their_bits_on_fortran_and_strided_data(self, problem):
        # the benchmark's first-order logistic and Newton problems, 60 steps:
        # the Dataset keeps C-ordered copies, so a Fortran-ordered or strided
        # view of the same data gives the C-ordered run bit for bit
        if problem == "fo_logistic":
            data = synth_regression(seed=0, n_samples=252, n_features=13)
            spec = NetworkSpec.homogeneous([13, 10, 10, 10, 1], Logistic(),
                                           regularizer=Regularizer.l2(1e-2))
            cfg = TrainConfig(upperbound=FirstOrderProx(0.25), schedule=InverseRoot(2.0),
                              adapt_gamma=False, max_outer_iterations=60, record_every=1)
        else:
            dims = [13, 16, 16, 1]
            data = synth_regression(seed=0, n_samples=252, n_features=13, teacher_dims=dims)
            spec = NetworkSpec(tuple(dims), (Tanh(),) * 3,
                               (Unconstrained(), Toeplitz(), Unconstrained()),
                               (Regularizer.l2(1e-2),) * 3)
            cfg = TrainConfig(upperbound=SecondOrderProx(0.1), unit_stepsize=True,
                              max_outer_iterations=60, record_every=1)
        net = build_network(spec, "uniform", seed=0)

        def strided(a):
            wide = np.zeros((len(a), 2 * a.shape[1]))
            wide[:, ::2] = a
            return wide[:, ::2]

        runs = []
        for layout in (np.ascontiguousarray, np.asfortranarray, strided):
            got, trace = train(net, Dataset(layout(data.X), layout(data.Y)), L2Loss(), cfg)
            runs.append(([_without_clock(r) for r in trace.rows],
                         [w.tobytes() for w in got.weights]))
        assert runs[1] == runs[0] and runs[2] == runs[0]


def _is_feasible(feasible, w) -> bool:
    if isinstance(feasible, Toeplitz):
        diagonals = (np.diagonal(w, o) for o in range(1 - w.shape[0], w.shape[1]))
        return all(np.all(d == d[0]) for d in diagonals)
    if isinstance(feasible, FrobeniusBall):
        return np.linalg.norm(w) <= feasible.radius * (1.0 + 1e-14)
    return True


class TestRunProperties:
    @staticmethod
    def assert_f_never_rises_and_iterates_stay_feasible(net, data, cfg):
        _, trace = train(net, data, L2Loss(), cfg)
        fs = [trace.initial_f] + [r.f for r in trace.rows]
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))
        state = _LoopState(cfg, net.spec, L2Loss(), data.n_samples)
        for k in range(1, trace.iterations_run + 1):
            net, _ = train_step(net, data, L2Loss(), cfg, k, state)
            assert all(_is_feasible(s, w)
                       for s, w in zip(net.spec.feasible_sets, net.weights))

    @given(first_order_runs(schedules=(ArmijoRule(), None)))
    @settings(max_examples=150, deadline=None)
    def test_f_never_rises_and_iterates_stay_feasible(self, run):
        self.assert_f_never_rises_and_iterates_stay_feasible(*run)

    @given(proximal_runs())
    @settings(max_examples=80, deadline=None)
    def test_proximal_on_certified_blocks_never_raises_f(self, run):
        self.assert_f_never_rises_and_iterates_stay_feasible(*run)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_newton_on_the_curvature_benchmark_never_raises_f(self, seed):
        # the curvature workload's run, a row each iteration: no step of the
        # unguarded damped Newton raises f there, and no Cholesky retry doubles gamma
        dims = (13, 16, 16, 1)
        spec = NetworkSpec(dims, (Tanh(),) * 3, (Unconstrained(), Toeplitz(), Unconstrained()),
                           (Regularizer.l2(1e-2),) * 3)
        data = synth_regression(seed=seed, n_samples=252, n_features=13, teacher_dims=dims)
        cfg = TrainConfig(upperbound=SecondOrderProx(0.1), unit_stepsize=True,
                          max_outer_iterations=90, record_every=1)
        _, trace = train(build_network(spec, "uniform", seed=seed), data, L2Loss(), cfg)
        fs = [trace.initial_f] + [r.f for r in trace.rows]
        assert len(trace.rows) == 90
        assert all(b <= a for a, b in zip(fs, fs[1:])), seed
        assert {r.gamma for r in trace.rows} == {0.1}


class TestNormalizedMse:
    def test_zero_at_perfect_fit(self):
        y = np.random.default_rng(26).standard_normal((2, 7))
        assert normalized_mse(y, y) == 0.0

    def test_one_at_mean_predictor(self):
        y = np.random.default_rng(27).standard_normal((2, 9))
        ybar = np.repeat(y.mean(axis=1, keepdims=True), 9, axis=1)
        assert normalized_mse(ybar, y) == pytest.approx(1.0)
