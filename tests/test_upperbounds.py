"""Surrogate families: directions, projections, prox steps, block solves."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsumnet import (Anchor, CurvatureError, Dataset,
                     ExponentialLoss, FirstOrderProx, FrobeniusBall, Identity,
                     L2Loss, Logistic,
                     NetworkPass, NetworkSpec, Network, Proximal, Regularizer,
                     SecondOrderProx, SingularError, Softplus, SpecError, Tanh,
                     Toeplitz, Unconstrained, build_network,
                     closed_form_linear_block, synth_regression,
                     descent_direction_first_order,
                     descent_direction_proximal, descent_direction_second_order,
                     prox_l1_step)
from bsumnet.gradients import (block_gradient, block_hessian, block_objective_fn,
                               fd_gradient, objective_value)
from bsumnet.upperbounds import descent_direction_linear, first_order_direction_backtracked
from conftest import (brute_force_prox_scalar, kron_block_oracle, make_problem,
                      ridge_oracle, with_block)


class TestProjectFeasible:
    def test_unconstrained_identity_map(self):
        w = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(Unconstrained().project(w), w)

    def test_toeplitz_diagonal_means(self):
        got = Toeplitz().project(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(got, [[2.5, 2.0], [3.0, 2.5]])

    def test_toeplitz_is_orthogonal_projection(self):
        # projection residual is Frobenius-orthogonal to the subspace
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 4))
        p = Toeplitz().project(w)
        q = Toeplitz().project(rng.standard_normal((4, 4)))
        assert abs(np.sum((w - p) * q)) <= 1e-12

    def test_ball_projection_norm(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 3)) * 10
        got = FrobeniusBall(1.0).project(w)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


class TestFirstOrderDirection:
    def test_zero_gradient_fixed_point(self):
        w = np.random.default_rng(3).standard_normal((2, 3))
        d = descent_direction_first_order(w, np.zeros_like(w), 2.0)
        assert np.array_equal(d, w)

    def test_gamma_one_is_plain_gradient_step(self):
        rng = np.random.default_rng(4)
        w, g = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        d = descent_direction_first_order(w, g, 1.0)
        np.testing.assert_array_equal(d, w - g)

    def test_toeplitz_output_stays_toeplitz(self):
        rng = np.random.default_rng(5)
        w = Toeplitz().project(rng.standard_normal((3, 3)))
        g = rng.standard_normal((3, 3))
        d = descent_direction_first_order(w, g, 0.5, Toeplitz())
        assert np.linalg.norm(d - Toeplitz().project(d)) <= 1e-12

    def test_gamma_must_be_positive(self):
        with pytest.raises(SpecError):
            descent_direction_first_order(np.zeros((1, 1)), np.zeros((1, 1)), 0.0)


def kernel_form(hess, shape, feasible=Toeplitz()):
    """A dense block Hessian in the coordinates the Newton solve takes on
    ``feasible``: P'HP, with P the 0/1 map of its kernel index, if it has one."""
    index = feasible.kernel_index(shape)
    if index is None:
        return hess
    p_map = np.eye(index.max() + 1)[index]
    return p_map.T @ hess @ p_map


class TestSecondOrderDirection:
    def test_zero_hessian_recovers_first_order(self):
        rng = np.random.default_rng(6)
        w, g = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        d, _ = descent_direction_second_order(w, g, np.zeros((6, 6)), 4.0)
        np.testing.assert_allclose(d, w - g / 4.0, atol=1e-12)

    def test_newton_exact_on_quadratic(self):
        # f(W) = ||W - A||_F^2 has gradient 2(W - A) and Hessian 2I
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2))
        d, _ = descent_direction_second_order(w, 2 * (w - a), 2 * np.eye(4), 1e-12)
        np.testing.assert_allclose(d, a, atol=1e-9)

    def test_ridge_block_with_exact_hessian(self):
        rng = np.random.default_rng(8)
        lam = 0.1
        spec = NetworkSpec.homogeneous([4, 2], Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=8)
        X = rng.standard_normal((4, 25))
        Y = rng.standard_normal((2, 25))
        data = Dataset(X, Y)
        g = block_gradient(net, data, L2Loss(), 1)
        h = block_hessian(net, data, L2Loss(), 1)
        d, _ = descent_direction_second_order(net.weights[0], g, h, 1e-8)
        want = ridge_oracle(X, Y, lam)
        assert np.max(np.abs(d - want)) <= 1e-6

    def test_indefinite_hessian_gets_damped(self):
        w = np.zeros((1, 2))
        g = np.ones((1, 2))
        hess = np.diag([-1.0, -1.0])
        d, gamma = descent_direction_second_order(w, g, hess, 0.5)
        # first PD damping is gamma = 2 (0.5 and 1.0 leave it singular/indefinite)
        assert gamma == 2.0
        np.testing.assert_allclose(d, w - g / (hess[0, 0] + 2.0), atol=1e-12)

    def test_curvature_error_after_budget(self):
        hess = np.diag([-1e30])
        with pytest.raises(CurvatureError):
            descent_direction_second_order(np.zeros((1, 1)), np.ones((1, 1)),
                                           hess, 1e-10)

    @staticmethod
    def late_failing_hessian(k, rng):
        # L L^T with the last diagonal entry lowered past its pivot: every
        # leading minor but the full one is positive, so the Cholesky
        # factorization fails at the last pivot, after it has written the others
        low = np.tril(rng.standard_normal((k, k)), -1) + np.diag(rng.uniform(1.0, 2.0, k))
        hess = low @ low.T
        hess[-1, -1] -= low[-1, -1] ** 2 + 3.0
        return hess

    @staticmethod
    def accepted_gamma(kernel_hess, ties, gamma):
        while np.linalg.eigvalsh(kernel_hess + gamma * np.diag(ties)).min() <= 0:
            gamma *= 2.0
        return gamma

    def test_gamma_retry_solves_from_the_undamped_hessian(self):
        rng = np.random.default_rng(41)
        w, g = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        hess = self.late_failing_hessian(6, rng)
        kept = hess.copy()
        gamma = self.accepted_gamma(hess, np.ones(6), 0.01)
        assert gamma >= 0.04  # at least two failed factorizations first
        d, used = descent_direction_second_order(w, g, hess, 0.01)
        assert used == gamma
        want = w - np.linalg.solve(hess + gamma * np.eye(6), g.reshape(-1)).reshape(w.shape)
        np.testing.assert_allclose(d, want, rtol=1e-10, atol=1e-12)
        assert np.array_equal(hess, kept)

    def test_gamma_retry_on_a_toeplitz_block(self):
        # H = P T^{-1} R T^{-1} P' has kernel Hessian P'HP = R, with P the
        # diagonal map of a 3x3 Toeplitz block and T = P'P its tie counts;
        # the solver takes the kernel form, reduced from H
        rng = np.random.default_rng(42)
        index = Toeplitz().kernel_index((3, 3))
        ties = np.bincount(index).astype(float)
        p_map = np.eye(len(ties))[index] / ties
        kernel_hess = self.late_failing_hessian(len(ties), rng)
        hess = p_map @ kernel_hess @ p_map.T
        hess = kernel_form((hess + hess.T) / 2, (3, 3))
        kept = hess.copy()
        w, g = Toeplitz().project(rng.standard_normal((3, 3))), rng.standard_normal((3, 3))
        gamma = self.accepted_gamma(kernel_hess, ties, 0.01)
        assert gamma >= 0.04
        v = np.linalg.solve(kernel_hess + gamma * np.diag(ties), np.bincount(index, g.ravel()))
        d, used = descent_direction_second_order(w, g, hess, 0.01, Toeplitz())
        assert used == gamma
        np.testing.assert_allclose(d, w - v[index].reshape(3, 3), rtol=1e-10, atol=1e-12)
        assert np.array_equal(hess, kept)

    @pytest.mark.parametrize("feasible", [Unconstrained(), Toeplitz()], ids=["dense", "toeplitz"])
    @pytest.mark.parametrize("operand", ["hess", "grad"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_value_error(self, feasible, operand, bad):
        rng = np.random.default_rng(43)
        w, g = feasible.project(rng.standard_normal((3, 3))), rng.standard_normal((3, 3))
        low = rng.standard_normal((9, 9))
        hess = kernel_form(low @ low.T + np.eye(9), (3, 3), feasible)
        # the lower triangle, which the factorization does not read, of the
        # 9 x 9 Hessian or the 5 x 5 kernel form
        row, col = (5, 2) if len(hess) == 9 else (3, 1)
        (hess[row:, col:] if operand == "hess" else g)[0, 0] = bad
        kept = hess.copy()
        with pytest.raises(ValueError):
            descent_direction_second_order(w, g, hess, 0.1, feasible)
        assert np.array_equal(hess, kept, equal_nan=True)

    @pytest.mark.parametrize("feasible", [Unconstrained(), Toeplitz()], ids=["dense", "toeplitz"])
    def test_only_the_upper_triangle_is_read(self, feasible):
        rng = np.random.default_rng(44)
        w, g = feasible.project(rng.standard_normal((3, 4))), rng.standard_normal((3, 4))
        low = rng.standard_normal((12, 12))
        hess = kernel_form(low @ low.T + np.eye(12), (3, 4), feasible)
        want, _ = descent_direction_second_order(w, g, hess, 0.1, feasible)
        below = np.tril_indices(len(hess), -1)
        hess[below] = 1e3 * rng.standard_normal(len(below[0]))
        assert np.array_equal(descent_direction_second_order(w, g, hess, 0.1, feasible)[0], want)

    def test_warm_newton_step_allocates_no_stage_tensors(self):
        # the curvature benchmark's problem; a step that allocated every
        # R-pass stage tensor and pair gather afresh peaked at 1,740, 1,430
        # and 543 KB on blocks 1-3
        dims = (13, 16, 16, 1)
        spec = NetworkSpec(dims, (Tanh(),) * 3, (Unconstrained(), Toeplitz(), Unconstrained()),
                           (Regularizer.l2(1e-2),) * 3)
        data = synth_regression(seed=0, n_samples=252, n_features=13, teacher_dims=dims)
        fb = NetworkPass(build_network(spec, "uniform", seed=0), data, L2Loss())
        for j, old_kb in ((1, 1740), (2, 1430), (3, 543)):
            SecondOrderProx(0.1).direction(fb, j, fb.grad(j), False)
            tracemalloc.start()
            try:
                SecondOrderProx(0.1).direction(fb, j, fb.grad(j), False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < old_kb * 1024 / 2, (j, peak // 1024)

    def test_unit_step_on_a_toeplitz_block_does_not_raise_f(self):
        # [13,10,10,1] tanh net, Toeplitz middle block, gamma = 1e-3: the
        # projected Newton point raised f at the unit step at seed 6
        dims = (13, 10, 10, 1)
        spec = NetworkSpec(dims, (Tanh(),) * 3, (Unconstrained(), Toeplitz(), Unconstrained()),
                           (Regularizer.l2(1e-2),) * 3)
        for seed in range(30):
            fb = NetworkPass(build_network(spec, "uniform", seed=seed),
                             synth_regression(seed=seed), L2Loss())
            d, _ = SecondOrderProx(1e-3).direction(fb, 2, fb.grad(2), False)
            assert fb.probe(2, d).objective() <= fb.objective(), seed


class TestProximalDirection:
    def test_zero_objective_returns_center(self):
        w = np.random.default_rng(9).standard_normal((2, 2))
        d, converged = descent_direction_proximal(
            lambda v: 0.0, lambda v: np.zeros_like(v), w, 2.0)
        assert converged
        assert np.array_equal(d, w)

    def test_quadratic_prox_closed_form(self):
        # argmin ||V - A||^2 + (gamma/2)||V - W||^2 with gamma=2 is (A + W)/2
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 3))
        w = rng.standard_normal((2, 3))
        d, converged = descent_direction_proximal(
            lambda v: float(np.sum((v - a) ** 2)), lambda v: 2 * (v - a), w, 2.0)
        assert converged
        np.testing.assert_allclose(d, (a + w) / 2, atol=1e-7)

    def test_never_worse_than_center(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((2, 2))

        def value(v):
            return float(np.cosh(v).sum())

        def grad(v):
            return np.sinh(v)

        gamma = 1.5
        d, _ = descent_direction_proximal(value, grad, w, gamma,
                                          max_iters=3)
        phi_d = value(d) + 0.5 * gamma * float(np.sum((d - w) ** 2))
        assert phi_d <= value(w) + 1e-12

    def test_matches_long_run_oracle_on_convex_block(self):
        net, data = make_problem([3, 2, 1], Identity(), ExponentialLoss(1.0),
                                 lam=0.05, seed=12, n=8)
        value_fn, grad_fn = block_objective_fn(net, data, ExponentialLoss(1.0), 2)
        w = net.weights[1]
        fast, _ = descent_direction_proximal(
            value_fn, grad_fn, w, 1.0,
            max_iters=500, grad_tol=1e-8)
        slow, _ = descent_direction_proximal(
            value_fn, grad_fn, w, 1.0,
            max_iters=5000, grad_tol=1e-11)
        assert np.max(np.abs(fast - slow)) <= 1e-6

    def test_projected_variant_stays_feasible(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 3)) * 4
        w = FrobeniusBall(1.0).project(rng.standard_normal((3, 3)))
        d, _ = descent_direction_proximal(
            lambda v: float(np.sum((v - a) ** 2)), lambda v: 2 * (v - a),
            w, 1.0, FrobeniusBall(1.0))
        assert np.linalg.norm(d) <= 1.0 + 1e-12


class TestLinearDirection:
    # the tracer wraps this name; it must stay (W, grad) -> -grad
    def test_returns_negated_gradient(self):
        g = np.array([[1.0, -2.0]])
        d = descent_direction_linear(np.zeros((1, 2)), g)
        np.testing.assert_array_equal(d, -g)

    def test_update_formula_alpha_one(self):
        # with alpha = 1 the convex combination lands exactly on -grad
        g = np.array([[3.0, 0.5]])
        w = np.array([[1.0, 1.0]])
        d = descent_direction_linear(w, g)
        update = (1 - 1.0) * w + 1.0 * d
        np.testing.assert_array_equal(update, -g)

    def test_zero_gradient_update(self):
        w = np.array([[2.0, -1.0]])
        d = descent_direction_linear(w, np.zeros_like(w))
        alpha = 0.3
        np.testing.assert_allclose((1 - alpha) * w + alpha * d, (1 - alpha) * w)


class TestProxL1Step:
    def test_zero_lambda_reduces_to_first_order(self):
        rng = np.random.default_rng(14)
        w, g = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        got = prox_l1_step(w, g, 2.0, 0.0)
        np.testing.assert_array_equal(got, w - g / 2.0)

    def test_piecewise_values(self):
        w = np.array([[2.0, -0.3, -2.0]])
        got = prox_l1_step(w, np.zeros_like(w), 1.0, 0.5)
        np.testing.assert_array_equal(got, [[1.5, 0.0, -1.5]])
        assert got[0, 1] == 0.0

    def test_threshold_band_is_exactly_zero(self):
        rng = np.random.default_rng(15)
        w = rng.uniform(-0.5, 0.5, size=(4, 4))
        got = prox_l1_step(w, np.zeros_like(w), 1.0, 0.5)
        assert np.all(got == 0.0)

    def test_matches_brute_force_scalar_prox(self):
        # prox_{ (lam/gamma) |.| }(a) entrywise, against grid + golden refine
        rng = np.random.default_rng(16)
        w = rng.standard_normal((2, 3)) * 2
        g = rng.standard_normal((2, 3))
        gamma, lam = 1.7, 0.6
        got = prox_l1_step(w, g, gamma, lam)
        a = w - g / gamma
        for idx in np.ndindex(a.shape):
            want = brute_force_prox_scalar(float(a[idx]), lam / gamma)
            assert abs(got[idx] - want) <= 1e-8

    def test_nonzero_count_monotone_in_lambda(self):
        rng = np.random.default_rng(17)
        w = rng.standard_normal((5, 5))
        g = rng.standard_normal((5, 5))
        counts = [int(np.count_nonzero(prox_l1_step(w, g, 1.0, lam)))
                  for lam in np.linspace(0.0, 3.0, 13)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestEvaluateUpperbound:
    def _anchor(self, seed=18, with_hess=False):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((2, 2))
        grad = rng.standard_normal((2, 2))
        hess = None
        if with_hess:
            m = rng.standard_normal((4, 4))
            hess = (m + m.T) / 2
        return Anchor(w=w, f_value=float(rng.uniform(0.5, 2.0)), grad=grad,
                      hess=hess)

    def test_tangency_first_order(self):
        anchor = self._anchor()
        got = FirstOrderProx(3.0).evaluate(anchor.w, anchor)
        assert got == anchor.f_value

    def test_tangency_second_order(self):
        anchor = self._anchor(with_hess=True)
        got = SecondOrderProx(3.0).evaluate(anchor.w, anchor)
        assert got == anchor.f_value

    def test_zero_gradient_pure_quadratic(self):
        anchor = self._anchor()
        anchor.grad = np.zeros_like(anchor.grad)
        e = np.array([[0.3, -0.2], [0.1, 0.4]])
        got = FirstOrderProx(2.0).evaluate(anchor.w + e, anchor)
        assert got == pytest.approx(anchor.f_value + 1.0 * float(np.sum(e * e)))

    def test_gradient_consistency_via_fd(self):
        anchor = self._anchor(with_hess=True)
        for kind in (FirstOrderProx(1.5), SecondOrderProx(1.5)):
            fd = fd_gradient(lambda v: kind.evaluate(v, anchor),
                             anchor.w, h=1e-6)
            rel = np.linalg.norm(fd - anchor.grad) / max(1.0, np.linalg.norm(anchor.grad))
            assert rel <= 1e-6

    def test_strong_convexity_identity_first_order(self):
        # g is exactly quadratic: the strong-convexity gap equals
        # (gamma/2)||W - V||^2 up to rounding
        anchor = self._anchor()
        gamma = 2.5
        kind = FirstOrderProx(gamma)
        rng = np.random.default_rng(19)
        for _ in range(20):
            v = anchor.w + rng.standard_normal((2, 2))
            w = anchor.w + rng.standard_normal((2, 2))
            grad_v = anchor.grad + gamma * (v - anchor.w)
            lhs = kind.evaluate(w, anchor) \
                - kind.evaluate(v, anchor) \
                - float(np.sum(grad_v * (w - v)))
            rhs = 0.5 * gamma * float(np.sum((w - v) ** 2))
            assert lhs >= rhs - 1e-10

    def test_second_order_needs_hessian(self):
        anchor = self._anchor(with_hess=False)
        with pytest.raises(SpecError):
            SecondOrderProx(1.0).evaluate(anchor.w, anchor)

    def test_proximal_needs_value_callable(self):
        anchor = self._anchor()
        with pytest.raises(SpecError):
            Proximal(1.0).evaluate(anchor.w, anchor)


@st.composite
def anchored_blocks(draw):
    """A small softplus/L2 problem, a block j and the anchor at W_j."""
    depth = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=depth + 1, max_size=depth + 1))
    seed = draw(st.integers(0, 2**31 - 1))
    net, data = make_problem(dims, Softplus(), L2Loss(), lam=0.01, seed=seed, n=6)
    j = draw(st.integers(1, depth))
    value_fn, _ = block_objective_fn(net, data, L2Loss(), j)
    anchor = Anchor(w=net.weights[j - 1], f_value=objective_value(net, data, L2Loss()),
                    grad=block_gradient(net, data, L2Loss(), j),
                    hess=block_hessian(net, data, L2Loss(), j), f_fn=value_fn)
    return anchor, value_fn


class TestSurrogateProperties:
    @given(anchored_blocks(), st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_every_surrogate_touches_f_at_the_anchor(self, block, gamma):
        anchor, _ = block
        for kind in (FirstOrderProx(gamma), SecondOrderProx(gamma), Proximal(gamma)):
            assert kind.evaluate(anchor.w, anchor) == anchor.f_value

    @given(anchored_blocks(), st.floats(1e-4, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_backtracked_gamma_majorizes_at_its_direction(self, block, gamma0):
        anchor, value_fn = block
        d, gamma = first_order_direction_backtracked(
            anchor.w, anchor.grad, gamma0, Unconstrained(), value_fn, anchor.f_value)
        f_d = value_fn(d)
        assert FirstOrderProx(gamma).evaluate(d, anchor) >= f_d - 1e-12 * max(1.0, abs(f_d))


SETS = st.sampled_from([Unconstrained(), Toeplitz(), FrobeniusBall(0.5)])

# a family's step minimizes its model over the feasible set, and the current
# block is feasible, so the model may not rise from W to D beyond the
# rounding of recomputing it: this tolerance, relative to max(1, |f(W)|)
MODEL_TOL = 1e-10


@st.composite
def family_steps(draw, activation, loss, sets=SETS):
    """A small problem with smooth (L2) blocks over a drawn feasible set, a
    block j, the pass at the current weights and the anchor there."""
    depth = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=depth + 1, max_size=depth + 1))
    seed = draw(st.integers(0, 2**31 - 1))
    net, data = make_problem(dims, activation, loss, lam=0.05, seed=seed, n=6,
                             feasible=draw(sets))
    j = draw(st.integers(1, depth))
    fb = NetworkPass(net, data, loss)
    value_fn, _ = block_objective_fn(net, data, loss, j)
    anchor = Anchor(w=net.weights[j - 1], f_value=fb.objective(), grad=fb.grad(j),
                    hess=block_hessian(net, data, loss, j), f_fn=value_fn)
    return fb, j, anchor


def toeplitz_basis(rows, cols):
    """0/1 matrix whose column k marks, in row-major vec(W), the entries of
    the k-th diagonal from the bottom-left."""
    flat = np.arange(rows * cols).reshape(rows, cols)
    offsets = range(1 - rows, cols)
    basis = np.zeros((rows * cols, len(offsets)))
    for k, offset in enumerate(offsets):
        basis[np.diagonal(flat, offset), k] = 1.0
    return basis


def assert_step_minimizes(kind, fb, j, anchor, adapt=False):
    """Take kind's step on block j; D must be feasible and must not raise
    the model (at the gamma the step used) above its value at W."""
    d, gamma = kind.direction(fb, j, anchor.grad, adapt)
    feasible = fb.net.spec.feasible_sets[j - 1]
    np.testing.assert_allclose(feasible.project(d), d, rtol=0, atol=1e-12)
    model = replace(kind, gamma=gamma)
    tol = MODEL_TOL * max(1.0, abs(anchor.f_value))
    assert model.evaluate(d, anchor) <= model.evaluate(anchor.w, anchor) + tol
    return gamma


class TestFamilyStepMinimizesItsModel:
    @given(family_steps(Logistic(), L2Loss()), st.floats(1e-3, 1e2), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_first_order(self, problem, gamma, adapt):
        gamma_used = assert_step_minimizes(FirstOrderProx(gamma), *problem, adapt=adapt)
        assert gamma_used == gamma or (adapt and gamma_used > gamma)

    @given(family_steps(Identity(), ExponentialLoss(1.0)),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e2)))
    @settings(max_examples=30, deadline=None)
    def test_proximal_on_certified_convex_blocks(self, problem, gamma):
        kind = Proximal(gamma, max_iters=50)
        assert assert_step_minimizes(kind, *problem) == gamma

    @given(family_steps(Identity(), L2Loss(), sets=st.just(Unconstrained())))
    @settings(max_examples=30, deadline=None)
    def test_proximal_at_zero_on_deep_linear_blocks(self, problem):
        # the closed-form route: no curvature certificate is needed
        assert assert_step_minimizes(Proximal(0.0), *problem) == 0.0

    # the second-order tests leave FrobeniusBall out: its step is the
    # projected Newton point, which need not minimize the model over the ball

    @given(family_steps(Tanh(), L2Loss(), sets=st.just(Unconstrained())),
           st.floats(1e-3, 1e2))
    @settings(max_examples=30, deadline=None)
    def test_second_order_on_unconstrained_blocks(self, problem, gamma):
        # on a non-convex block the solve damps with gamma doubled until it
        # factors, and its step lowers the model at the gamma it reports; the
        # configured model lies below that one and touches it at W, so the
        # step lowers the configured model too
        used = assert_step_minimizes(SecondOrderProx(gamma), *problem)
        assert used >= gamma and math.frexp(used / gamma)[0] == 0.5

    @given(family_steps(Tanh(), L2Loss(), sets=st.just(Toeplitz())),
           st.floats(1e-3, 1e2))
    @settings(max_examples=40, deadline=None)
    def test_second_order_on_toeplitz_blocks(self, problem, gamma):
        fb, j, anchor = problem
        w, grad, hess = anchor.w, anchor.grad, anchor.hess
        basis = toeplitz_basis(*w.shape)
        reduced = basis.T @ (hess + gamma * np.eye(w.size)) @ basis
        assume(np.linalg.eigvalsh(reduced)[0] > 0)  # else the model is unbounded below
        model = SecondOrderProx(gamma)
        assert assert_step_minimizes(model, fb, j, anchor) == gamma
        d, _ = model.direction(fb, j, grad, False)
        for offset in range(1 - w.shape[0], w.shape[1]):
            diagonal = np.diagonal(d, offset)
            assert np.all(diagonal == diagonal[0])
        oracle = w - (basis @ np.linalg.solve(reduced, basis.T @ grad.reshape(-1))).reshape(w.shape)
        projected = Toeplitz().project(descent_direction_second_order(w, grad, hess, gamma)[0])
        tol = MODEL_TOL * max(1.0, abs(anchor.f_value))
        assert model.evaluate(d, anchor) <= model.evaluate(oracle, anchor) + tol
        assert model.evaluate(d, anchor) <= model.evaluate(projected, anchor) + tol


class TestBacktrackedGamma:
    def test_majorizes_at_accepted_direction(self):
        net, data = make_problem([3, 4, 1], Softplus(), L2Loss(), lam=0.01,
                                 seed=20, n=10)
        value_fn, grad_fn = block_objective_fn(net, data, L2Loss(), 1)
        w = net.weights[0]
        f_anchor = value_fn(w)
        grad = grad_fn(w)
        d, gamma = first_order_direction_backtracked(
            w, grad, 1e-3, Unconstrained(), value_fn, f_anchor)
        diff = d - w
        g_at_d = f_anchor + float(np.sum(grad * diff)) \
            + 0.5 * gamma * float(np.sum(diff * diff))
        assert g_at_d >= value_fn(d) - 1e-10
        assert gamma >= 1e-3


class TestClosedFormLinearBlock:
    def test_single_layer_is_textbook_ridge(self):
        rng = np.random.default_rng(21)
        lam = 0.2
        spec = NetworkSpec.homogeneous([4, 2], Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=21)
        data = Dataset(rng.standard_normal((4, 30)), rng.standard_normal((2, 30)))
        got = closed_form_linear_block(net, data, 1, lam)
        np.testing.assert_allclose(got, ridge_oracle(data.X, data.Y, lam),
                                   atol=1e-10)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(22)
        lam = 0.05
        spec = NetworkSpec.homogeneous([3, 4, 2], Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=22)
        data = Dataset(rng.standard_normal((3, 20)), rng.standard_normal((2, 20)))
        for j in (1, 2):
            w_star = closed_form_linear_block(net, data, j, lam)
            at_opt = with_block(net, j, w_star)
            g = block_gradient(at_opt, data, L2Loss(), j)
            assert np.linalg.norm(g) <= 1e-8

    def test_middle_block_matches_kron_oracle(self):
        rng = np.random.default_rng(23)
        lam = 0.1
        spec = NetworkSpec.homogeneous([3, 3, 3, 2], Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=23)
        data = Dataset(rng.standard_normal((3, 15)), rng.standard_normal((2, 15)))
        for j in (1, 2, 3):
            got = closed_form_linear_block(net, data, j, lam)
            want = kron_block_oracle(net, data, j, lam)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_minimality_against_random_probes(self):
        rng = np.random.default_rng(24)
        lam = 0.03
        spec = NetworkSpec.homogeneous([3, 2, 2], Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=24)
        data = Dataset(rng.standard_normal((3, 12)), rng.standard_normal((2, 12)))
        j = 2
        w_star = closed_form_linear_block(net, data, j, lam)
        value_fn, _ = block_objective_fn(net, data, L2Loss(), j)
        base = value_fn(w_star)
        for _ in range(100):
            probe = w_star + 0.1 * rng.standard_normal(w_star.shape)
            assert value_fn(probe) >= base - 1e-12

    def test_singular_without_regularization(self):
        # rank-deficient downstream factor makes the normal equations singular
        spec = NetworkSpec.homogeneous([2, 2, 2], Identity())
        net = build_network(spec, "uniform", seed=25)
        net.weights[1][:] = 0.0
        data = Dataset(np.eye(2), np.eye(2))
        with pytest.raises(SingularError):
            closed_form_linear_block(net, data, 1, 0.0)

    def test_rank_deficient_factor_refused_without_regularization(self):
        # A is 2x3, so A'A has rank 2: its zero eigenvalue comes out at
        # rounding level, not exactly zero
        rng = np.random.default_rng(27)
        spec = NetworkSpec.homogeneous([3, 3, 2], Identity())
        net = build_network(spec, "uniform", seed=27)
        data = Dataset(rng.standard_normal((3, 10)), rng.standard_normal((2, 10)))
        with pytest.raises(SingularError):
            closed_form_linear_block(net, data, 1, 0.0)

    def test_requires_identity_activations(self):
        net, data = make_problem([3, 2], Softplus(), L2Loss(), seed=26)
        with pytest.raises(SpecError):
            closed_form_linear_block(net, data, 1, 0.1)


class TestDirectionDeterminism:
    def test_first_and_second_order_repeat_bitwise(self):
        # the surrogate minimizer is unique; repeated solves must agree exactly
        rng = np.random.default_rng(30)
        w, g = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        m = rng.standard_normal((6, 6))
        hess = m @ m.T
        a1 = descent_direction_first_order(w, g, 0.7, Toeplitz())
        a2 = descent_direction_first_order(w, g, 0.7, Toeplitz())
        assert np.array_equal(a1, a2)
        b1, _ = descent_direction_second_order(w, g, hess, 0.3)
        b2, _ = descent_direction_second_order(w, g, hess, 0.3)
        assert np.array_equal(b1, b2)
