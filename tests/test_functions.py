"""Activation/loss/regularizer catalog: values, derivatives, curvature classes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from bsumnet import (ACTIVATIONS, LOSSES, ArmijoRule, BatchSampler, BentIdentity,
                     CrossEntropyLoss, Dataset, DomainError, ExponentialLoss,
                     Identity, L2Loss, LeakyReluSmooth, Logistic, LogisticLoss,
                     Network, NetworkPass, NetworkSpec, NonSmoothError, Regularizer,
                     Softplus, SquaredHingeLoss, Tanh, TrainConfig, Unconstrained,
                     build_network, classify_convexity, forward, train)
from bsumnet.functions import (L2Regularizer, _sigmoid, loss_grad_H, loss_value,
                               sqnorm)
from bsumnet.trainer import normalized_mse
from bsumnet.gradients import block_hessian
from conftest import labels_for, make_problem

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


class TestLabelSets:
    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_declared_labels_are_checked_where_targets_enter(self, name):
        loss = LOSSES[name]()
        rng = np.random.default_rng(3)
        # the test suite's own table of valid targets agrees with the declaration
        drawn = np.unique(labels_for(loss, 2, 64, rng))
        if loss.labels is None:
            assert drawn.size == 128  # real-valued draws
        else:
            assert set(drawn) == set(loss.labels)
        net = build_network(NetworkSpec.homogeneous([2, 1], Logistic()), "uniform", seed=1)
        X = rng.standard_normal((2, 4))
        H = forward(net, X).output
        accepted = loss.labels if loss.labels is not None else (-2.5, 0.0, 0.3, 7.0)
        for y in accepted:
            Y = np.full((1, 4), y)
            assert np.isfinite(loss_value(loss, H, Y))
            assert np.all(np.isfinite(loss_grad_H(loss, H, Y)))
            assert np.isfinite(NetworkPass(net, Dataset(X, Y), loss).objective())
        outside = [] if loss.labels is None else \
            [y for y in (-1.0, 0.0, 0.5, 1.0, 2.0, np.nan) if y not in loss.labels]
        for y in outside:
            Y = np.array([[accepted[0]] * 3 + [y]])
            with pytest.raises(DomainError):
                loss_value(loss, H, Y)
            with pytest.raises(DomainError):
                loss_grad_H(loss, H, Y)
            with pytest.raises(DomainError):
                NetworkPass(net, Dataset(X, Y), loss)

    def test_targets_are_checked_once_per_pass_built(self, monkeypatch):
        # probes and mini-batch passes are built from the run's checked state,
        # so one train call checks its targets once with any sampler, however
        # many probes its Armijo steps take
        net, data = make_problem([3, 4, 1], Logistic(), LogisticLoss(), seed=4)
        counts = {"checks": 0, "probes": 0}
        check, probe = LogisticLoss.check_labels, NetworkPass.probe

        def counted_check(self, Y):
            counts["checks"] += 1
            return check(self, Y)

        def counted_probe(self, *args):
            counts["probes"] += 1
            return probe(self, *args)

        monkeypatch.setattr(LogisticLoss, "check_labels", counted_check)
        monkeypatch.setattr(NetworkPass, "probe", counted_probe)
        for sampler in (BatchSampler(), BatchSampler("fixed", 4),
                        BatchSampler("increasing")):
            counts.update(checks=0, probes=0)
            train(net, data, LogisticLoss(), TrainConfig(
                schedule=ArmijoRule(), sampler=sampler, max_outer_iterations=20))
            assert counts["probes"] > 1, sampler.mode
            assert counts["checks"] == 1, sampler.mode


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

    def test_margin_losses_nonincreasing_in_margin(self):
        rng = np.random.default_rng(5)
        for loss in (SquaredHingeLoss(1.0), LogisticLoss()):
            m1 = rng.uniform(-2, 2, size=(1, 6))
            m2 = m1 + rng.uniform(0, 2, size=(1, 6))
            y = np.ones((1, 6))
            assert loss_value(loss, m2, y) <= loss_value(loss, m1, y) + 1e-12

    def test_exponential_nondecreasing_in_residual_energy(self):
        y = np.zeros((1, 4))
        h_small = np.full((1, 4), 0.3)
        h_big = np.full((1, 4), 0.9)
        assert loss_value(ExponentialLoss(1.0), h_big, y) \
            > loss_value(ExponentialLoss(1.0), h_small, y)


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

def _homogeneous_with_tail(dims, act, identity_tail, reg):
    """Unconstrained layers of ``act``; the output layer is the identity
    when ``identity_tail``."""
    depth = len(dims) - 1
    acts = (act,) * (depth - 1) + ((Identity(),) if identity_tail else (act,))
    return NetworkSpec(tuple(dims), acts, (Unconstrained(),) * depth, (reg,) * depth)


class TestClassifyConvexity:
    def test_exponential_softplus_is_unknown(self):
        # the exponential loss decreases in H wherever H < Y, and a softplus
        # layer above block 1 can make its objective indefinite
        curv = classify_convexity(ExponentialLoss(1.0), [Softplus(), Softplus()],
                                  Regularizer.l2(0.1))
        assert curv == "unknown"

    def test_logistic_activation_breaks_both_premises(self):
        curv = classify_convexity(L2Loss(), [Logistic()], Regularizer.l2(0.1))
        assert curv == "unknown"

    def test_cross_entropy_identity_is_strongly_convex(self):
        curv = classify_convexity(CrossEntropyLoss(), [Identity()],
                                  Regularizer.l2(0.1))
        assert curv == "strongly_convex"

    def test_margin_loss_identity_is_strongly_convex(self):
        curv = classify_convexity(SquaredHingeLoss(1.0), [Identity()],
                                  Regularizer.l2(0.3))
        assert curv == "strongly_convex"

    def test_weak_regularizer_blocks_certificate(self):
        curv = classify_convexity(ExponentialLoss(1.0), [Identity()],
                                  Regularizer.none())
        assert curv == "unknown"

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_certificates_survive_hessian_probe(self, act, loss):
        """Soundness as a property: eight draws of each loss x activation,
        240 over the grid, four with the activation's own output layer and
        four with the identity. Each block certified strongly convex has an
        exact Hessian whose least eigenvalue is at least the modulus 2*lam."""
        case = ALL_LOSSES.index(loss) + 5 * ALL_ACTIVATIONS.index(act)
        rng = np.random.default_rng([99, case])
        checked = 0
        for trial in range(case, 240, 30):
            lam = float(rng.uniform(0.02, 0.3))
            dims = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 5)))]
            reg = Regularizer.l2(lam)
            spec = _homogeneous_with_tail(dims, act, trial // 30 % 2 == 1, reg)
            net = build_network(spec, "uniform", seed=trial)
            X = rng.standard_normal((dims[0], 6))
            if loss.name in ("l2", "exponential"):
                teacher = build_network(spec, "uniform", seed=1000 + trial)
                Y = forward(teacher, X).output + 0.05 * rng.standard_normal((dims[-1], 6))
            else:
                Y = labels_for(loss, dims[-1], 6, rng)
            if loss.name == "cross_entropy":
                # nonnegative inputs and weights keep every layer's output
                # nonnegative; the output layer is scaled into [0, 1/2]
                X = np.abs(X)
                weights = [np.abs(w) for w in net.weights]
                net = Network(spec, weights)
                weights[-1] = weights[-1] / (2.0 * forward(net, X).output.max())
                net = Network(spec, weights)
            data = Dataset(X, Y)
            for j in range(1, net.depth + 1):
                if classify_convexity(loss, spec.activations[j - 1:], reg) != "strongly_convex":
                    continue
                min_eig = float(np.linalg.eigvalsh(block_hessian(net, data, loss, j))[0])
                assert min_eig >= 2 * lam - 1e-8, \
                    f"trial {trial}, {loss.name}/{act.name} block {j}: min eig {min_eig}"
                checked += 1
        # every catalog loss is convex in H, so each identity-tail draw
        # certifies at least its output block
        assert checked >= 4

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS[1:], ids=lambda a: a.name)
    def test_non_identity_layer_above_refuses_block(self, act):
        # one non-identity activation anywhere from block j up leaves the
        # block objective a loss of a nonlinear map: no verdict is certified
        reg = Regularizer.l2(0.1)
        for loss in ALL_LOSSES:
            for tail in ([act], [act, Identity()], [Identity(), act, Identity()]):
                assert classify_convexity(loss, tail, reg) == "unknown"
                assert classify_convexity(loss, tail, Regularizer.none()) == "unknown"

    def test_softplus_repro_block_is_refused(self):
        # a [2,2,1] softplus net under the exponential loss: block 1's exact
        # Hessian is indefinite, so no rule may certify it
        spec = NetworkSpec.homogeneous([2, 2, 1], Softplus(),
                                       regularizer=Regularizer.l2(0.05))
        net = build_network(spec, "uniform", seed=157)
        rng = np.random.default_rng(157)
        X = rng.standard_normal((2, 6))
        data = Dataset(X, rng.standard_normal((1, 6)))
        hess = block_hessian(net, data, ExponentialLoss(1.0), 1)
        assert np.linalg.eigvalsh(hess)[0] < -6.8
        assert classify_convexity(ExponentialLoss(1.0), spec.activations,
                                  spec.regularizers[0]) == "unknown"


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
