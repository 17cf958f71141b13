"""Activation/loss/regularizer catalog: values, derivatives, declared traits."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from bsumnet import (ACTIVATIONS, LOSSES, BentIdentity, CrossEntropyLoss,
                     Dataset, DomainError, ExponentialLoss, Identity, L2Loss,
                     LeakyReluSmooth, Logistic, LogisticLoss, NetworkSpec,
                     NonSmoothError, Regularizer, Softplus, SquaredHingeLoss,
                     Tanh, build_network, classify_convexity, forward)
from bsumnet.functions import (L2Regularizer, _sigmoid, loss_grad_H, loss_value,
                               sqnorm)
from bsumnet.trainer import normalized_mse
from bsumnet.gradients import block_hessian
from conftest import labels_for

ALL_ACTIVATIONS = [Identity(), Logistic(), Tanh(), Softplus(),
                   LeakyReluSmooth(0.1), BentIdentity()]
ALL_LOSSES = [L2Loss(), ExponentialLoss(1.0), CrossEntropyLoss(),
              SquaredHingeLoss(1.0), LogisticLoss()]


def valid_h(loss, d, n, rng):
    """Prediction matrices inside the loss's domain, away from clamp zones."""
    if loss.name == "cross_entropy":
        return rng.uniform(0.05, 0.95, size=(d, n))
    return rng.standard_normal((d, n))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

class TestActivationValues:
    def test_logistic_at_zero(self):
        out = Logistic().value(np.zeros((2, 3)))
        assert np.array_equal(out, np.full((2, 3), 0.5))

    def test_identity_unchanged(self):
        u = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(Identity().value(u), u)

    def test_softplus_at_zero_is_ln2(self):
        out = Softplus().value(np.zeros((1, 1)))
        assert out[0, 0] == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_logistic_derivative_at_zero(self):
        out = Logistic().derivative(np.zeros((2, 2)))
        assert np.array_equal(out, np.full((2, 2), 0.25))

    def test_identity_derivative_is_ones(self):
        out = Identity().derivative(np.ones((2, 5)))
        assert np.array_equal(out, np.ones((2, 5)))

    def test_leaky_alpha_domain(self):
        with pytest.raises(DomainError):
            LeakyReluSmooth(1.5)


class TestSigmoidKernel:
    """The one logistic kernel against scipy's scalar expit, the oracle: 4 ulp
    where u >= -708; below, the capped exponent leaves an absolute error of
    at most 1.3e-308 (sigma(-709) = 1.2e-308 is subnormal)."""

    SPECIALS = [np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0, -745.0,
                1e308, -1e308, -0.0]

    @staticmethod
    def assert_matches_expit(kernel, u):
        want = expit(np.asarray(u, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel(u)
        assert np.shape(got) == np.shape(want)
        u = np.asarray(u, dtype=float)
        nan = np.isnan(u)
        assert np.array_equal(np.isnan(got), nan)
        hi, lo = u >= -708.0, u < -708.0
        assert np.all(np.abs(got[hi] - want[hi]) <= 4 * np.spacing(want[hi]))
        assert np.all(np.abs(got[lo] - want[lo]) <= 1.3e-308)

    @pytest.mark.parametrize("kernel", [_sigmoid, Logistic().value],
                             ids=["_sigmoid", "Logistic.value"])
    def test_random_and_special_inputs(self, kernel):
        u = np.random.default_rng(125).uniform(-40, 40, size=(10, 252))
        u[0, :len(self.SPECIALS)] = self.SPECIALS
        before = u.copy()
        self.assert_matches_expit(kernel, u)
        self.assert_matches_expit(kernel, u.T)
        assert np.array_equal(u, before, equal_nan=True)
        assert kernel(np.inf) == 1.0 and np.isnan(kernel(np.nan))

    @pytest.mark.parametrize("u", [0.3, -2.5, [1, -2, 0, 700], np.array(-1.7)],
                             ids=["float", "negative float", "int list", "0-d array"])
    @pytest.mark.parametrize("kernel", [_sigmoid, Logistic().value],
                             ids=["_sigmoid", "Logistic.value"])
    def test_scalars_lists_and_0d_arrays(self, kernel, u):
        self.assert_matches_expit(kernel, u)


class TestActivationDerivativesAgainstFD:
    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_central_difference_1000_points(self, act):
        rng = np.random.default_rng(123)
        u = rng.uniform(-6, 6, size=1000)
        h = 1e-6
        numeric = (act.value(u + h) - act.value(u - h)) / (2 * h)
        analytic = act.derivative(u)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert np.max(rel) <= 1e-6

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_second_derivative_central_difference(self, act):
        rng = np.random.default_rng(124)
        u = rng.uniform(-6, 6, size=1000)
        h = 1e-6
        numeric = (act.derivative(u + h) - act.derivative(u - h)) / (2 * h)
        analytic = act.second_derivative(u)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert np.max(rel) <= 1e-6
        # the engine passes the cached output z = sigma(u)
        assert np.array_equal(act.second_derivative(u, act.value(u)), analytic)


class TestActivationTraits:
    """Declared traits must agree with randomized secant probes: a flag means
    no counterexample exists among the samples, an unset flag means the probe
    finds one."""

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_convexity_flag(self, act):
        rng = np.random.default_rng(7)
        a = rng.uniform(-8, 8, size=10_000)
        b = rng.uniform(-8, 8, size=10_000)
        gap = (act.value(a) + act.value(b)) / 2 - act.value((a + b) / 2)
        if act.convex:
            assert np.min(gap) >= -1e-12
        else:
            assert np.min(gap) < -1e-9

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_concavity_flag(self, act):
        rng = np.random.default_rng(8)
        a = rng.uniform(-8, 8, size=10_000)
        b = rng.uniform(-8, 8, size=10_000)
        gap = act.value((a + b) / 2) - (act.value(a) + act.value(b)) / 2
        if act.concave:
            assert np.min(gap) >= -1e-12
        else:
            assert np.min(gap) < -1e-9

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_nondecreasing_flag(self, act):
        rng = np.random.default_rng(9)
        lo = rng.uniform(-8, 8, size=10_000)
        hi = lo + rng.uniform(0, 4, size=10_000)
        diff = act.value(hi) - act.value(lo)
        assert act.nondecreasing == bool(np.min(diff) >= -1e-12)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestLossValues:
    def test_l2_perfect_fit(self):
        y = np.random.default_rng(0).standard_normal((2, 5))
        assert loss_value(L2Loss(), y, y) == 0.0

    def test_exponential_at_fit_is_c(self):
        y = np.random.default_rng(1).standard_normal((1, 4))
        assert loss_value(ExponentialLoss(1.0), y, y) == pytest.approx(1.0)
        assert loss_value(ExponentialLoss(2.5), y, y) == pytest.approx(2.5)

    def test_squared_hinge_single_term(self):
        val = loss_value(SquaredHingeLoss(1.0), np.array([[0.5]]), np.array([[1.0]]))
        assert val == pytest.approx(0.125)

    def test_l2_gradient_at_fit_is_zero(self):
        y = np.random.default_rng(2).standard_normal((3, 4))
        assert np.array_equal(loss_grad_H(L2Loss(), y, y), np.zeros((3, 4)))

    def test_l2_gradient_single_entry(self):
        g = loss_grad_H(L2Loss(), np.array([[2.0]]), np.array([[1.0]]))
        assert g[0, 0] == pytest.approx(2.0)

    def test_exponential_overflow_raises(self):
        big = np.full((1, 1), 1e4)
        with pytest.raises(OverflowError):
            loss_value(ExponentialLoss(1e-2), big, -big)

    def test_cross_entropy_domain(self):
        y = np.array([[1.0]])
        with pytest.raises(DomainError):
            loss_value(CrossEntropyLoss(), np.array([[1.5]]), y)
        with pytest.raises(DomainError):
            loss_value(CrossEntropyLoss(), np.array([[-0.1]]), y)

    def test_label_domains_enforced(self):
        h = np.full((1, 2), 0.5)
        with pytest.raises(DomainError):
            loss_value(CrossEntropyLoss(), h, np.array([[0.3, 1.0]]))
        with pytest.raises(DomainError):
            loss_value(SquaredHingeLoss(), h, np.array([[0.0, 1.0]]))
        with pytest.raises(DomainError):
            loss_value(LogisticLoss(), h, np.array([[2.0, -1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            loss_value(L2Loss(), np.zeros((1, 2)), np.zeros((2, 1)))


class TestLossGradientsAgainstFD:
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
    def test_100_random_pairs(self, loss):
        rng = np.random.default_rng(31)
        h_fd = 1e-6
        for _ in range(100):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            H = valid_h(loss, d, n, rng)
            Y = labels_for(loss, d, n, rng)
            analytic = loss_grad_H(loss, H, Y)
            numeric = np.zeros_like(H)
            for idx in np.ndindex(H.shape):
                hp, hm = H.copy(), H.copy()
                hp[idx] += h_fd
                hm[idx] -= h_fd
                numeric[idx] = (loss_value(loss, hp, Y) - loss_value(loss, hm, Y)) / (2 * h_fd)
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))
            assert rel <= 1e-6, f"{loss.name}: rel error {rel}"


class TestLossCurvatureAgainstFD:
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
    def test_operator_matches_difference_of_gradient(self, loss):
        # blockdiag(C_n) V + kappa g <g, V> is the directional derivative
        # of grad_H along V
        rng = np.random.default_rng(32)
        eps = 1e-6
        for _ in range(100):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            H = valid_h(loss, d, n, rng)
            Y = labels_for(loss, d, n, rng)
            V = rng.standard_normal((d, n))
            curv, kappa = loss.curvature_H(H, Y)
            assert curv.shape == (d, d, n)
            g = loss.grad_H(H, Y)
            applied = np.einsum("abn,bn->an", curv, V) + kappa * g * np.sum(g * V)
            numeric = (loss.grad_H(H + eps * V, Y) - loss.grad_H(H - eps * V, Y)) / (2 * eps)
            rel = np.linalg.norm(applied - numeric) / max(1.0, np.linalg.norm(numeric))
            assert rel <= 1e-6, f"{loss.name}: rel error {rel}"


class TestLossMonotoneTraits:
    def test_cross_entropy_direction_depends_on_label(self):
        # increasing H lowers the loss where y=1 and raises it where y=0,
        # so no single monotone direction exists
        h1 = np.array([[0.4]])
        h2 = np.array([[0.6]])
        up = loss_value(CrossEntropyLoss(), h2, np.array([[0.0]])) \
            - loss_value(CrossEntropyLoss(), h1, np.array([[0.0]]))
        down = loss_value(CrossEntropyLoss(), h2, np.array([[1.0]])) \
            - loss_value(CrossEntropyLoss(), h1, np.array([[1.0]]))
        assert up > 0 > down
        assert CrossEntropyLoss().monotone == "none"

    def test_margin_losses_nonincreasing_in_margin(self):
        rng = np.random.default_rng(5)
        for loss in (SquaredHingeLoss(1.0), LogisticLoss()):
            m1 = rng.uniform(-2, 2, size=(1, 6))
            m2 = m1 + rng.uniform(0, 2, size=(1, 6))
            y = np.ones((1, 6))
            assert loss_value(loss, m2, y) <= loss_value(loss, m1, y) + 1e-12
            assert loss.monotone == "nonincreasing"

    def test_exponential_nondecreasing_in_residual_energy(self):
        y = np.zeros((1, 4))
        h_small = np.full((1, 4), 0.3)
        h_big = np.full((1, 4), 0.9)
        assert loss_value(ExponentialLoss(1.0), h_big, y) \
            > loss_value(ExponentialLoss(1.0), h_small, y)
        assert ExponentialLoss(1.0).monotone == "nondecreasing"


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

class TestRegularizers:
    def test_l2_identity_example(self):
        reg = Regularizer.l2(0.5)
        w = np.eye(2)
        assert reg.value(w) == pytest.approx(1.0)
        np.testing.assert_array_equal(reg.grad(w), w)

    def test_none_is_zero(self):
        reg = Regularizer.none()
        w = np.random.default_rng(0).standard_normal((3, 2))
        assert reg.value(w) == 0.0
        assert np.array_equal(reg.grad(w), np.zeros((3, 2)))

    def test_l1_value(self):
        reg = Regularizer.l1(1.0)
        w = np.array([[-2.0, 0.0], [1.0, 3.0]])
        assert reg.value(w) == pytest.approx(6.0)

    def test_l1_gradient_refused(self):
        with pytest.raises(NonSmoothError):
            Regularizer.l1(0.5).grad(np.ones((2, 2)))

    def test_strong_convexity_modulus(self):
        assert Regularizer.l2(0.1).strong_convexity == pytest.approx(0.2)
        assert Regularizer.l1(0.1).strong_convexity == 0.0
        assert Regularizer.none().strong_convexity == 0.0

    def test_negative_strength_rejected(self):
        with pytest.raises(DomainError):
            Regularizer.l2(-1.0)


# ---------------------------------------------------------------------------
# block curvature classification
# ---------------------------------------------------------------------------

class _ConcaveToyLoss:
    """Concave nonincreasing stand-in used to exercise the concave branch."""

    name = "concave_toy"
    convex_in_H = False
    concave_in_H = True
    monotone = "nonincreasing"


class TestClassifyConvexity:
    def test_exponential_softplus_is_strongly_convex(self):
        curv = classify_convexity(ExponentialLoss(1.0), [Softplus(), Softplus()],
                                  Regularizer.l2(0.1))
        assert curv.is_strongly_convex
        assert curv.modulus == pytest.approx(0.2)

    def test_logistic_activation_breaks_both_premises(self):
        curv = classify_convexity(L2Loss(), [Logistic()], Regularizer.l2(0.1))
        assert curv.kind == "unknown"

    def test_cross_entropy_identity_is_unknown(self):
        curv = classify_convexity(CrossEntropyLoss(), [Identity()],
                                  Regularizer.l2(0.1))
        assert curv.kind == "unknown"

    def test_margin_loss_identity_fires_c2(self):
        curv = classify_convexity(SquaredHingeLoss(1.0), [Identity()],
                                  Regularizer.l2(0.3))
        assert curv.is_strongly_convex
        assert curv.modulus == pytest.approx(0.6)

    def test_weak_regularizer_blocks_certificate(self):
        curv = classify_convexity(ExponentialLoss(1.0), [Softplus()],
                                  Regularizer.none())
        assert curv.kind == "unknown"

    def test_concave_branch(self):
        curv = classify_convexity(_ConcaveToyLoss(), [Softplus()],
                                  Regularizer.none())
        assert curv.is_concave
        curv2 = classify_convexity(_ConcaveToyLoss(), [Softplus()],
                                   Regularizer.l2(0.1))
        assert not curv2.is_concave

    def test_certificates_survive_hessian_probe(self):
        """Soundness spot-check: on 10 random configurations drawn from the
        regression regime the framework targets (default inits, realizable
        targets plus noise), any strongly-convex certificate must agree with
        a finite-difference Hessian probe of each block."""
        rng = np.random.default_rng(99)
        losses = [L2Loss(), ExponentialLoss(1.0), SquaredHingeLoss(1.0),
                  LogisticLoss(), CrossEntropyLoss()]
        acts = ALL_ACTIVATIONS
        checked_sc = 0
        for trial in range(10):
            loss = losses[int(rng.integers(len(losses)))]
            act = acts[int(rng.integers(len(acts)))]
            lam = float(rng.uniform(0.02, 0.3))
            dims = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
            reg = Regularizer.l2(lam)
            spec = NetworkSpec.homogeneous(dims, act, regularizer=reg)
            net = build_network(spec, "uniform", seed=trial)
            X = rng.standard_normal((dims[0], 6))
            if loss.name in ("l2", "exponential"):
                teacher = build_network(spec, "uniform", seed=100 + trial)
                Y = forward(teacher, X).output + 0.05 * rng.standard_normal((dims[-1], 6))
            else:
                Y = labels_for(loss, dims[-1], 6, rng)
                if loss.name == "cross_entropy" and act.name != "logistic":
                    continue  # predictions would leave (0,1)
            data = Dataset(X, Y)
            for j in range(1, net.depth + 1):
                curv = classify_convexity(loss, spec.activations[j - 1:], reg)
                if not curv.is_strongly_convex:
                    continue
                hess = block_hessian(net, data, loss, j)
                min_eig = float(np.linalg.eigvalsh(hess).min())
                assert min_eig > -1e-6, \
                    f"{loss.name}/{act.name} block {j}: min eig {min_eig}"
                checked_sc += 1
        assert checked_sc >= 1  # the draw must actually exercise certificates


class TestLossConvexityTraits:
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
    def test_midpoint_inequality_in_predictions(self, loss):
        # every catalog loss is declared convex in H: the midpoint value
        # never exceeds the chord on sampled prediction pairs
        rng = np.random.default_rng(41)
        for _ in range(200):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            h1 = valid_h(loss, d, n, rng)
            h2 = valid_h(loss, d, n, rng)
            y = labels_for(loss, d, n, rng)
            mid = loss_value(loss, (h1 + h2) / 2, y)
            chord = (loss_value(loss, h1, y) + loss_value(loss, h2, y)) / 2
            assert mid <= chord + 1e-10
        assert loss.convex_in_H


# ---------------------------------------------------------------------------
# squared norms
# ---------------------------------------------------------------------------

@st.composite
def blocks(draw):
    """Arrays from 1x1 to 16x300, C-ordered or as a transposed view."""
    rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        return scale * rng.standard_normal((cols, rows)).T
    return scale * rng.standard_normal((rows, cols))


class TestSquaredNorm:
    """The BLAS squared norm against np.sum(x * x), the oracle. Either
    order of summation is within n * eps * sum(x^2) of the exact value."""

    @given(blocks())
    @settings(max_examples=80, deadline=None)
    def test_matches_elementwise_sum(self, x):
        bound = x.size * np.finfo(float).eps * np.sum(x * x)
        assert abs(sqnorm(x) - np.sum(x * x)) <= bound

    @given(blocks(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_l2_loss_and_regularizer_match_sum_forms(self, H, seed):
        Y = np.random.default_rng(seed).standard_normal(H.shape)
        eps = np.finfo(float).eps
        want = np.sum((Y - H) ** 2) / H.shape[1]
        assert abs(L2Loss().value(H, Y) - want) <= H.size * eps * want
        want = 0.3 * np.sum(H * H)
        assert abs(L2Regularizer(0.3).value(H) - want) <= H.size * eps * want

    @given(blocks(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_normalized_mse_matches_sum_form(self, H, seed):
        Y = np.random.default_rng(seed).standard_normal(H.shape)
        resid = np.sum((Y - H) ** 2)
        denom = np.sum((Y - Y.mean(axis=1, keepdims=True)) ** 2)
        want = resid / denom if denom > 0 else resid
        # numerator and denominator each within n * eps relative
        assert abs(normalized_mse(H, Y) - want) <= 2 * H.size * np.finfo(float).eps * want
