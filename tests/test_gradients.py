"""Backprop recursion, block gradients, mini-batch arithmetic, FD oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bsumnet import (ACTIVATIONS, LOSSES, BatchSampler, Dataset,
                     ExponentialLoss, Identity, L2Loss, Logistic, LogisticLoss,
                     NetworkSpec, Network, NonSmoothError, Regularizer,
                     ShapeError, Softplus, SpecError, Tanh, Toeplitz, Unconstrained,
                     build_network, forward, synth_regression)
from bsumnet import gradients
from bsumnet.gradients import (BatchStream, NetworkPass, block_gradient,
                               block_hessian, block_objective_fn,
                               delta_recursion, fd_gradient, objective_value)
from conftest import (dense_block_hessian, fd_block_hessian, labels_for, make_problem,
                      scalar_block_gradient, scalar_deltas, with_block)


def rel_err(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))


class TestDeltaRecursion:
    def test_identity_activation_passes_loss_gradient_through(self):
        net, data = make_problem([3, 2, 2], Identity(), L2Loss(), seed=0)
        outs = forward(net, data.X)
        deltas = delta_recursion(net, outs, L2Loss(), data.Y)
        grad_h = L2Loss().grad_H(outs.output, data.Y)
        assert np.array_equal(deltas[-1], grad_h)

    def test_single_layer_base_case(self):
        net, data = make_problem([4, 2], Logistic(), L2Loss(), seed=1)
        outs = forward(net, data.X)
        deltas = delta_recursion(net, outs, L2Loss(), data.Y)
        loss_grad = L2Loss().grad_H(outs.output, data.Y)
        sig = Logistic().derivative(outs.pre_activations[0])
        np.testing.assert_array_equal(deltas[0], loss_grad * sig)

    def test_three_layer_logistic_vs_scalar_oracle(self):
        net, data = make_problem([3, 4, 3, 2], Logistic(), L2Loss(), seed=2, n=5)
        outs = forward(net, data.X)
        deltas = delta_recursion(net, outs, L2Loss(), data.Y)
        oracle = scalar_deltas(net, data.X, data.Y, L2Loss())
        for got, want in zip(deltas, oracle):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


class TestBlockGradient:
    def test_zero_at_perfect_fit_without_regularizer(self):
        # single identity layer fitting Y = W X exactly
        rng = np.random.default_rng(3)
        w = rng.standard_normal((2, 3))
        X = rng.standard_normal((3, 8))
        spec = NetworkSpec.homogeneous([3, 2], Identity())
        net = Network(spec, [w.copy()])
        data = Dataset(X, w @ X)
        g = block_gradient(net, data, L2Loss(), 1)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_regularizer_term_survives_zero_residual(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 3))
        X = rng.standard_normal((3, 8))
        spec = NetworkSpec.homogeneous([3, 2], Identity(),
                                       regularizer=Regularizer.l2(0.25))
        net = Network(spec, [w.copy()])
        data = Dataset(X, w @ X)
        g = block_gradient(net, data, L2Loss(), 1)
        np.testing.assert_allclose(g, 2 * 0.25 * w, atol=1e-13)

    def test_matches_scalar_loop_oracle(self):
        net, data = make_problem([3, 4, 2], Logistic(), L2Loss(), lam=0.01,
                                 seed=5, n=4)
        for j in (1, 2):
            got = block_gradient(net, data, L2Loss(), j)
            want = scalar_block_gradient(net, data.X, data.Y, L2Loss(), j,
                                         reg=net.spec.regularizers[j - 1])
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_matches_fd_on_small_catalog(self):
        # the acceptance suite sweeps the full catalog at benchmark dims;
        # this keeps a quick cross-check in the unit tests
        for loss in (L2Loss(), ExponentialLoss(1.0), LogisticLoss()):
            net, data = make_problem([4, 3, 1], Softplus(), loss, lam=1e-3,
                                     seed=6, n=6)
            for j in (1, 2):
                analytic = block_gradient(net, data, loss, j)
                value_fn, _ = block_objective_fn(net, data, loss, j)
                numeric = fd_gradient(value_fn, net.weights[j - 1], h=1e-6)
                assert rel_err(analytic, numeric) <= 1e-6

    def test_l2_delta_linear_in_residual(self):
        net, data = make_problem([3, 2], Identity(), L2Loss(), seed=7)
        outs = forward(net, data.X)
        d1 = delta_recursion(net, outs, L2Loss(), data.Y)[-1]
        # targets 2Y - H double the residual H - Y, so the last delta doubles
        d2 = delta_recursion(net, outs, L2Loss(), 2 * data.Y - outs.output)[-1]
        np.testing.assert_allclose(d2, 2 * d1, atol=1e-12)

    def test_l1_combined_gradient_refused(self):
        net, data = make_problem([3, 2], Identity(), L2Loss(),
                                 reg=Regularizer.l1(0.1), seed=8)
        with pytest.raises(NonSmoothError):
            block_gradient(net, data, L2Loss(), 1)
        g = block_gradient(net, data, L2Loss(), 1, include_reg=False)
        assert g.shape == (2, 3)

    def test_layer_index_bounds(self):
        net, data = make_problem([3, 2], Identity(), L2Loss(), seed=9)
        with pytest.raises(SpecError):
            block_gradient(net, data, L2Loss(), 0)
        with pytest.raises(SpecError):
            block_gradient(net, data, L2Loss(), 2)


class TestStochasticGradient:
    def test_full_batch_is_bitwise_identical(self):
        net, data = make_problem([3, 4, 2], Logistic(), L2Loss(), lam=0.01,
                                 seed=10, n=9)
        for j in (1, 2):
            full = block_gradient(net, data, L2Loss(), j)
            batch = block_gradient(net, data.restrict(np.arange(data.n_samples)),
                                   L2Loss(), j)
            assert np.array_equal(full, batch)

    def test_single_sample_gradient(self):
        net, data = make_problem([3, 2, 1], Logistic(), L2Loss(), lam=0.05,
                                 seed=11, n=7)
        n = 3
        got = block_gradient(net, data.restrict([n]), L2Loss(), 1)
        single = data.restrict([n])
        want = scalar_block_gradient(net, single.X, single.Y, L2Loss(), 1,
                                     reg=net.spec.regularizers[0])
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("batch_size", [4, 5])
    def test_partition_identity(self, batch_size):
        # size-weighted average of disjoint-batch gradients == full gradient
        net, data = make_problem([3, 3, 2], Logistic(), L2Loss(), lam=0.02,
                                 seed=12, n=12)
        n = data.n_samples
        for j in (1, 2):
            full = block_gradient(net, data, L2Loss(), j)
            acc = np.zeros_like(full)
            for start in range(0, n, batch_size):
                idx = np.arange(start, min(start + batch_size, n))
                g = block_gradient(net, data.restrict(idx), L2Loss(), j)
                acc += (len(idx) / n) * g
            np.testing.assert_allclose(acc, full, atol=1e-12, rtol=0)

    def test_empty_batch_rejected(self):
        net, data = make_problem([3, 2], Identity(), L2Loss(), seed=13)
        with pytest.raises(SpecError):
            block_gradient(net, data.restrict([]), L2Loss(), 1)


class TestFdGradient:
    def test_squared_frobenius(self):
        w = np.random.default_rng(14).standard_normal((3, 2))
        g = fd_gradient(lambda v: float(np.sum(v * v)), w, h=1e-6)
        np.testing.assert_allclose(g, 2 * w, atol=1e-9)

    def test_constant_function(self):
        w = np.ones((2, 2))
        g = fd_gradient(lambda v: 3.25, w, h=1e-6)
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_linear_function_exact(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((2, 3))
        w = rng.standard_normal((2, 3))
        g = fd_gradient(lambda v: float(np.sum(a * v)), w, h=1e-6)
        np.testing.assert_allclose(g, a, atol=1e-9)


class TestBlockHessian:
    def test_deep_linear_matches_kron_oracle(self):
        rng = np.random.default_rng(16)
        dims = [3, 2]
        lam = 0.1
        spec = NetworkSpec.homogeneous(dims, Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=16)
        X = rng.standard_normal((3, 10))
        Y = rng.standard_normal((2, 10))
        data = Dataset(X, Y)
        hess = block_hessian(net, data, L2Loss(), 1)
        oracle = np.kron(np.eye(2), (2.0 / 10) * (X @ X.T)) + 2 * lam * np.eye(6)
        np.testing.assert_allclose(hess, oracle, atol=1e-8)

    def test_pure_regularizer_hessian(self):
        # zero input data kills the data term entirely
        spec = NetworkSpec.homogeneous([2, 2], Identity(),
                                       regularizer=Regularizer.l2(0.3))
        net = build_network(spec, "uniform", seed=17)
        data = Dataset(np.zeros((2, 4)), np.zeros((2, 4)))
        hess = block_hessian(net, data, L2Loss(), 1)
        np.testing.assert_allclose(hess, 2 * 0.3 * np.eye(4), atol=1e-10)

    def test_symmetry_of_raw_differences(self):
        net, data = make_problem([3, 3, 1], Logistic(), L2Loss(), lam=0.01,
                                 seed=18, n=6)
        h = 1e-5
        w = net.weights[0]
        n = w.size
        raw = np.zeros((n, n))
        probe = net.copy()
        flat = probe.weights[0].reshape(-1)
        for a in range(n):
            orig = flat[a]
            flat[a] = orig + h
            gp = block_gradient(probe, data, L2Loss(), 1).reshape(-1)
            flat[a] = orig - h
            gm = block_gradient(probe, data, L2Loss(), 1).reshape(-1)
            flat[a] = orig
            raw[:, a] = (gp - gm) / (2 * h)
        assert np.max(np.abs(raw - raw.T)) <= 1e-5
        sym = block_hessian(net, data, L2Loss(), 1)
        assert np.array_equal(sym, sym.T)

    def test_deep_linear_hessian_constant_in_w(self):
        rng = np.random.default_rng(19)
        spec = NetworkSpec.homogeneous([3, 2, 2], Identity(),
                                       regularizer=Regularizer.l2(0.05))
        data = Dataset(rng.standard_normal((3, 8)), rng.standard_normal((2, 8)))
        a = build_network(spec, "uniform", seed=20)
        b = with_block(a, 1, rng.standard_normal((2, 3)))
        ha = block_hessian(a, data, L2Loss(), 1)
        hb = block_hessian(b, data, L2Loss(), 1)
        np.testing.assert_allclose(ha, hb, atol=1e-5)

    def test_l1_layer_refused(self):
        net, data = make_problem([3, 2], Identity(), L2Loss(),
                                 reg=Regularizer.l1(0.1), seed=21)
        with pytest.raises(NonSmoothError):
            block_hessian(net, data, L2Loss(), 1)

    @pytest.mark.parametrize("loss", [cls() for cls in LOSSES.values()],
                             ids=lambda l: l.name)
    @pytest.mark.parametrize("act", [cls() for cls in ACTIVATIONS.values()],
                             ids=lambda a: a.name)
    @given(dims=st.lists(st.integers(1, 4), min_size=3, max_size=4),
           seed=st.integers(0, 2**16), l2=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_exact_matches_fd_oracle(self, act, loss, dims, seed, l2):
        depth = len(dims) - 1
        acts = [act] * depth
        if loss.name == "cross_entropy":
            acts[-1] = Logistic()  # predictions must lie in [0, 1]
        reg = Regularizer.l2(0.01) if l2 else Regularizer.none()
        spec = NetworkSpec(tuple(dims), tuple(acts), (Unconstrained(),) * depth,
                           (reg,) * depth)
        net = build_network(spec, "uniform", seed=seed)
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((dims[0], 6)),
                       labels_for(loss, dims[-1], 6, rng))
        for j in range(1, depth + 1):
            hess = block_hessian(net, data, loss, j)
            oracle = fd_block_hessian(net, data, loss, j)
            assert np.array_equal(hess, hess.T)
            scale = max(float(np.max(np.abs(oracle))), 1e-3)
            assert np.max(np.abs(hess - oracle)) <= 1e-6 * scale, (j, dims)

    @pytest.mark.parametrize("loss", [cls() for cls in LOSSES.values()],
                             ids=lambda l: l.name)
    @pytest.mark.parametrize("act", [cls() for cls in ACTIVATIONS.values()],
                             ids=lambda a: a.name)
    @given(dims=st.lists(st.integers(1, 4), min_size=3, max_size=4),
           seed=st.integers(0, 2**16), l2=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_pair_assembly_matches_dense_oracle(self, act, loss, dims, seed, l2):
        # the pair GEMM reads M_n's entries s <= r only, the oracle all ordered
        # pairs from its own einsum recursion: equal up to rounding, which
        # cancelling terms can lift to 2e-13 of |H| (softplus, squared hinge,
        # dims [1, 1, 3, 1], seed 157: H = -2.6e-6)
        depth = len(dims) - 1
        acts = [act] * depth
        if loss.name == "cross_entropy":
            acts[-1] = Logistic()  # predictions must lie in [0, 1]
        reg = Regularizer.l2(0.01) if l2 else Regularizer.none()
        spec = NetworkSpec(tuple(dims), tuple(acts), (Unconstrained(),) * depth,
                           (reg,) * depth)
        net = build_network(spec, "uniform", seed=seed)
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((dims[0], 6)),
                       labels_for(loss, dims[-1], 6, rng))
        for j in range(1, depth + 1):
            hess = block_hessian(net, data, loss, j)
            oracle = dense_block_hessian(net, data, loss, j)
            assert np.array_equal(hess, hess.T)
            assert np.max(np.abs(hess - oracle)) <= 1e-10 * np.max(np.abs(oracle)), (j, dims)

    def test_cached_pass_gives_the_same_hessian(self):
        net, data = make_problem([3, 3, 2], Softplus(), LogisticLoss(), seed=23)
        cache = NetworkPass(net, data, LogisticLoss())
        for j in (1, 2):
            assert np.array_equal(block_hessian(net, data, LogisticLoss(), j, cache=cache),
                                  block_hessian(net, data, LogisticLoss(), j))

    @pytest.mark.parametrize("loss", [L2Loss(), ExponentialLoss(1.0)], ids=lambda l: l.name)
    def test_scratch_reuse_in_any_block_order_is_bitwise(self, loss):
        # widths that rise and fall, so each scratch role grows and is
        # reused at smaller shapes; the exponential loss adds the kappa term
        net, data = make_problem([3, 5, 2, 4, 1], Tanh(), loss, lam=1e-2, seed=29, n=9)
        fresh = {j: NetworkPass(net, data, loss).hessian(j) for j in range(1, net.depth + 1)}
        fb = NetworkPass(net, data, loss)
        order = list(range(1, net.depth + 1))
        for j in order + order[::-1]:
            assert np.array_equal(fb.hessian(j), fresh[j]), j

    @pytest.mark.parametrize("dims", [(3, 4, 3, 1), (2, 3, 2, 3, 2)], ids=["d_J=1", "d_J=2"])
    def test_hessian_after_set_block_matches_a_fresh_pass(self, dims):
        net, data = make_problem(list(dims), Tanh(), L2Loss(), lam=1e-2, seed=31, n=9)
        rng = np.random.default_rng(31)
        fb = NetworkPass(net, data, L2Loss())
        for j in range(1, net.depth + 1):
            fb.hessian(j)
        for k, w in enumerate(net.weights, start=1):
            fb.set_block(k, w + 0.1 * rng.standard_normal(w.shape))
            fresh = NetworkPass(Network(net.spec, list(fb.net.weights)), data, L2Loss())
            for j in range(1, net.depth + 1):
                assert np.array_equal(fb.hessian(j), fresh.hessian(j)), (k, j)

    def test_deep_net_matches_fd_oracle(self):
        # depth 4: block 1's R-pass runs the forward GEMMs past RU_{j+2}
        net, data = make_problem([2, 3, 2, 3, 2], Softplus(), ExponentialLoss(2.0), seed=32, n=7)
        for j in range(1, net.depth + 1):
            hess = block_hessian(net, data, ExponentialLoss(2.0), j)
            oracle = fd_block_hessian(net, data, ExponentialLoss(2.0), j)
            assert np.max(np.abs(hess - oracle)) <= 1e-6 * np.max(np.abs(oracle)), j

    def test_returned_hessian_is_not_overwritten_by_later_calls(self):
        net, data = make_problem([3, 4, 4, 1], Tanh(), L2Loss(), lam=1e-2, seed=30)
        fb = NetworkPass(net, data, L2Loss())
        first = block_hessian(net, data, L2Loss(), 2, cache=fb)
        kept = first.copy()
        for j in (1, 2, 3, 2):
            block_hessian(net, data, L2Loss(), j, cache=fb)
        assert np.array_equal(first, kept)


class TestKernelHessian:
    """P'HP in a block's diagonal values, assembled from the factored R-pass,
    against the dense Hessian reduced by the 0/1 diagonal map P."""

    @staticmethod
    def reduced(hess, shape):
        p_map = np.eye(sum(shape) - 1)[Toeplitz().kernel_index(shape)]
        return p_map.T @ hess @ p_map

    @pytest.mark.parametrize("loss", [cls() for cls in LOSSES.values()],
                             ids=lambda l: l.name)
    @pytest.mark.parametrize("act", [cls() for cls in ACTIVATIONS.values()],
                             ids=lambda a: a.name)
    def test_matches_reduced_dense_hessian(self, act, loss):
        # blocks 3x2, 5x3 and 3x5 below the 2x3 output block (j = J, d_J = 2,
        # where the exponential loss adds its kappa term); at depth 4, block
        # 1's R-pass crosses two layers before the last contraction
        dims = [2, 3, 5, 3, 2]
        acts = [act] * 4
        if loss.name == "cross_entropy":
            acts[-1] = Logistic()  # predictions must lie in [0, 1]
        spec = NetworkSpec(tuple(dims), tuple(acts), (Unconstrained(),) * 4,
                           (Regularizer.l2(0.01),) * 4)
        for seed in range(3):
            net = build_network(spec, "uniform", seed=seed)
            rng = np.random.default_rng(seed)
            data = Dataset(rng.standard_normal((2, 6)), labels_for(loss, 2, 6, rng))
            fb = NetworkPass(net, data, loss)
            for j in range(1, 5):
                want = self.reduced(block_hessian(net, data, loss, j), net.weights[j - 1].shape)
                got = fb.kernel_hessian(j)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (seed, j)

    def test_scratch_shared_with_the_dense_assembly_is_bitwise(self):
        # both assemblies and the R-pass draw on one scratch, whose roles grow
        # and shrink with widths that rise and fall
        net, data = make_problem([3, 5, 2, 4, 1], Tanh(), ExponentialLoss(1.0), lam=1e-2,
                                 seed=29, n=9)
        fb = NetworkPass(net, data, ExponentialLoss(1.0))
        order = list(range(1, net.depth + 1))
        for j in order + order[::-1]:
            fresh = NetworkPass(net, data, ExponentialLoss(1.0))
            assert np.array_equal(fb.kernel_hessian(j), fresh.kernel_hessian(j)), j
            assert np.array_equal(fb.hessian(j), fresh.hessian(j)), j

    def test_wide_block_assembles_in_bounded_scratch(self, monkeypatch):
        # a 60 x 60 Toeplitz block at N = 252: in one chunk the shifted copies
        # alone are 252 * 60 * 119 doubles (14 MB); chunked, each scratch role
        # holds at most _KERNEL_SCRATCH doubles
        dims = (3, 60, 60, 1)
        spec = NetworkSpec(dims, (Tanh(),) * 3, (Unconstrained(), Toeplitz(), Unconstrained()),
                           (Regularizer.l2(1e-2),) * 3)
        net = build_network(spec, "uniform", seed=0)
        data = synth_regression(seed=0, n_samples=252, n_features=3, teacher_dims=dims)
        fb = NetworkPass(net, data, L2Loss())
        fb.grad(2)
        tracemalloc.start()
        try:
            chunked = fb.kernel_hessian(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * gradients._KERNEL_SCRATCH * 8, peak // 1024
        monkeypatch.setattr(gradients, "_KERNEL_SCRATCH", 1 << 40)
        whole = NetworkPass(net, data, L2Loss()).kernel_hessian(2)
        assert np.max(np.abs(chunked - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("chunk", [None, 100], ids=["one_chunk", "chunked"])
    def test_gram_return_at_the_curvature_benchmark_shape(self, monkeypatch, chunk):
        # block 2 of [13,16,16,1] at N = 252 is j = J-1 with d_J = 1: its
        # curvature is the Gram term alone, and A_n is one einsum from the
        # windows; with 100 samples a chunk, chunks end at 100 and 200
        dims = (13, 16, 16, 1)
        spec = NetworkSpec(dims, (Tanh(),) * 3, (Unconstrained(), Toeplitz(), Unconstrained()),
                           (Regularizer.l2(1e-2),) * 3)
        data = synth_regression(seed=0, n_samples=252, n_features=13, teacher_dims=dims)
        for seed in range(3):
            net = build_network(spec, "uniform", seed=seed)
            fb = NetworkPass(net, data, L2Loss())
            c = fb._curvature(2)
            assert c.q is None and c.row is None and c.w.shape == (1, 16)
            if chunk is not None:
                monkeypatch.setattr(gradients, "_KERNEL_SCRATCH", chunk * 16 * 31)
            got = fb.kernel_hessian(2)
            monkeypatch.undo()
            want = self.reduced(block_hessian(net, data, L2Loss(), 2), (16, 16))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), seed


class TestHessianMatchesRecursionOracle:
    """``hessian`` and ``kernel_hessian`` on random nets against the einsum
    recursion of ``conftest.dense_block_hessian``, which shares no R-pass
    with the library: depths 2-5, widths 1-5, d_J of 1 or 2, every
    activation and loss, dense and Toeplitz blocks."""

    @pytest.mark.parametrize("loss", [cls() for cls in LOSSES.values()],
                             ids=lambda l: l.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_block_matches_the_oracle(self, loss, data):
        depth = data.draw(st.integers(2, 5), label="depth")
        dims = data.draw(st.lists(st.integers(1, 5), min_size=depth, max_size=depth),
                         label="dims") + [data.draw(st.sampled_from([1, 2]), label="d_J")]
        acts = [data.draw(st.sampled_from(sorted(ACTIVATIONS)), label="act")] * depth
        acts = [ACTIVATIONS[name]() for name in acts]
        if loss.name == "cross_entropy":
            acts[-1] = Logistic()  # predictions must lie in [0, 1]
        feasible = tuple(data.draw(st.sampled_from([Unconstrained(), Toeplitz()]), label="set")
                         for _ in range(depth))
        reg = data.draw(st.sampled_from([Regularizer.none(), Regularizer.l2(0.01)]), label="reg")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        spec = NetworkSpec(tuple(dims), tuple(acts), feasible, (reg,) * depth)
        net = build_network(spec, "uniform", seed=seed)
        rng = np.random.default_rng(seed)
        sample = Dataset(rng.standard_normal((dims[0], 6)), labels_for(loss, dims[-1], 6, rng))
        fb = NetworkPass(net, sample, loss)
        for j in range(1, depth + 1):
            oracle = dense_block_hessian(net, sample, loss, j)
            got = {"dense": (fb.hessian(j), oracle)}
            if isinstance(feasible[j - 1], Toeplitz):
                shape = net.weights[j - 1].shape
                got["kernel"] = (fb.kernel_hessian(j), TestKernelHessian.reduced(oracle, shape))
            for kind, (hess, want) in got.items():
                err = np.max(np.abs(hess - want))
                assert err <= 1e-10 * np.max(np.abs(want)), (kind, j, dims, err)


class TestTransposeProduct:
    # the engine forms W^T D with ndarray.dot, fresh for the deltas and into
    # the scratch for the bends; zeros of both signs, as a zero product is
    # -0.0 from a plain multiply and +0.0 from a sum started at +0.0
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))

    @given(data=st.data(), rows=st.integers(1, 3), cols=st.integers(1, 6),
           n=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_matmul(self, data, rows, cols, n):
        w = data.draw(arrays(float, (rows, cols), elements=self.entries))
        x = data.draw(arrays(float, (rows, n), elements=self.entries))
        want = np.matmul(w.T, x)
        out = np.full((cols, n), np.nan)
        assert w.T.dot(x, out=out) is out
        for got in (w.T.dot(x), out):
            if rows == 1 and (cols == 1 or n == 1):
                # numpy's vector kernel may keep a zero product's sign here:
                # a width-1 hidden layer or a one-sample batch
                assert np.array_equal(got, want)
            elif rows == 1:
                # an outer product; one that underflows to zero from two
                # nonzero factors (6.1e-275 * -2.8e-226) may keep its sign
                # in ndarray.dot and not in np.matmul, every other bit agrees
                underflow = (want == 0) & (w.T != 0) & (x != 0)
                assert np.array_equal(got, want)
                assert got[~underflow].tobytes() == want[~underflow].tobytes()
            else:
                assert got.tobytes() == want.tobytes()


class TestObjectiveHelpers:
    def test_objective_includes_all_regularizers(self):
        net, data = make_problem([3, 2, 1], Logistic(), L2Loss(), lam=0.1, seed=22)
        outs = forward(net, data.X)
        base = L2Loss().value(outs.output, data.Y)
        expected = base + sum(r.value(w) for r, w in
                              zip(net.spec.regularizers, net.weights))
        assert objective_value(net, data, L2Loss()) == pytest.approx(expected)

    def test_block_objective_consistent_with_gradient(self):
        net, data = make_problem([3, 3, 1], Softplus(), L2Loss(), lam=0.01, seed=23)
        value_fn, grad_fn = block_objective_fn(net, data, L2Loss(), 2)
        w = net.weights[1]
        assert value_fn(w) == pytest.approx(objective_value(net, data, L2Loss()))
        np.testing.assert_allclose(grad_fn(w),
                                   block_gradient(net, data, L2Loss(), 2),
                                   atol=1e-14)


class TestTargetRows:
    def test_targets_with_wrong_row_count_raise(self):
        # Y would broadcast against the 2-row output in every loss
        net = build_network(NetworkSpec.homogeneous([3, 2], Logistic()), "uniform", seed=0)
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((3, 5)), rng.standard_normal((1, 5)))
        with pytest.raises(ShapeError):
            objective_value(net, data, L2Loss())
        with pytest.raises(ShapeError):
            value_fn, _ = block_objective_fn(net, data, L2Loss(), 1)
            value_fn(net.weights[0])
        with pytest.raises(ShapeError):
            block_gradient(net, data, L2Loss(), 1)


class TestBatchStream:
    def test_full_mode_returns_all(self):
        stream = BatchStream(BatchSampler("full"), 7)
        assert np.array_equal(stream.next(1), np.arange(7))

    def test_fixed_batches_distinct_within_batch(self):
        stream = BatchStream(BatchSampler("fixed", batch_size=4, seed=0), 10)
        for k in range(1, 30):
            batch = stream.next(k)
            assert len(batch) == 4
            assert len(set(batch.tolist())) == 4

    def test_deterministic_given_seed(self):
        a = BatchStream(BatchSampler("fixed", batch_size=3, seed=5), 9)
        b = BatchStream(BatchSampler("fixed", batch_size=3, seed=5), 9)
        for k in range(1, 12):
            assert np.array_equal(a.next(k), b.next(k))

    def test_increasing_reaches_full_size(self):
        n = 6
        stream = BatchStream(BatchSampler("increasing", seed=1), n)
        sizes = [len(stream.next(k)) for k in range(1, 10)]
        assert sizes == [1, 2, 3, 4, 5, 6, 6, 6, 6]

    def test_negative_seed_rejected(self):
        with pytest.raises(SpecError, match="sampler seed must be >= 0"):
            BatchSampler("fixed", batch_size=4, seed=-1)

    def test_oversized_fixed_batch_rejected(self):
        with pytest.raises(SpecError):
            BatchStream(BatchSampler("fixed", batch_size=11, seed=0), 10)


class TestBudgetsAndGuards:
    def test_hessian_size_budget(self):
        spec = NetworkSpec.homogeneous([101, 101], Identity(),
                                       regularizer=Regularizer.l2(0.1))
        net = build_network(spec, "zeros", seed=0)
        data = Dataset(np.zeros((101, 2)), np.zeros((101, 2)))
        from bsumnet import SizeError
        with pytest.raises(SizeError):
            block_hessian(net, data, L2Loss(), 1)

    def test_fd_gradient_needs_positive_step(self):
        with pytest.raises(SpecError):
            fd_gradient(lambda v: 0.0, np.zeros((1, 1)), h=0.0)

    def test_wrongly_shaped_block_is_a_shape_error(self):
        # W_2 of [2, 3, 1] is (1, 3); a (2, 3) block would broadcast its
        # (2, N) output against the (1, N) targets
        net, data = make_problem([2, 3, 1], Logistic(), L2Loss(), seed=0)
        value_fn, grad_fn = block_objective_fn(net, data, L2Loss(), 2)
        fb = NetworkPass(net, data, L2Loss())
        for call in (value_fn, grad_fn, lambda w: fb.probe(2, w),
                     lambda w: fb.set_block(2, w)):
            with pytest.raises(ShapeError, match=r"W_2 has shape \(2, 3\), spec wants \(1, 3\)"):
                call(np.zeros((2, 3)))
        assert fb.net.weights[1].shape == (1, 3)

    @pytest.mark.parametrize("j", [0, -1, 3])
    def test_set_block_outside_the_layers_changes_nothing(self, j):
        # W_0 = W_J's shape once replaced W_J; W_-1 was a ShapeError
        net, data = make_problem([3, 2, 1], Logistic(), L2Loss(), seed=0)
        fb = NetworkPass(net, data, L2Loss())
        f, grads = fb.objective(), [g.copy() for g in fb.grads()]
        with pytest.raises(SpecError, match=rf"layer index {j} outside 1\.\.2"):
            fb.set_block(j, net.weights[-1] + 1.0)
        assert all(a is b for a, b in zip(fb.net.weights, net.weights))
        assert fb.objective() == f
        assert all(np.array_equal(a, b) for a, b in zip(fb.grads(), grads))
        fb.set_block(2, net.weights[1] + 0.1)
        want = NetworkPass(with_block(net, 2, net.weights[1] + 0.1), data, L2Loss())
        assert fb.objective() == want.objective()
        assert fb.hessian(1).tobytes() == want.hessian(1).tobytes()

    @pytest.mark.parametrize("method", ["grad", "probe", "deltas", "hessian", "kernel_hessian"])
    @pytest.mark.parametrize("j", [0, -1, 3])
    def test_queries_outside_the_layers_change_nothing(self, method, j):
        # grad(0) and grad(-1) answered from the cached gradients of blocks 2
        # and 1, deltas(0) returned the list; the others raised IndexError,
        # numpy's shape errors or a ShapeError naming W_-1
        net, data = make_problem([3, 4, 1], Logistic(), L2Loss(), seed=0)
        fb = NetworkPass(net, data, L2Loss())
        fb.grads()
        w = net.weights[1] + 0.1
        fb.set_block(2, w)  # a query would refresh layer 2 first
        state = {key: (value, list(value) if isinstance(value, list) else None)
                 for key, value in vars(fb).items()}
        args = (net.weights[1] + 0.2,) if method == "probe" else ()
        with pytest.raises(SpecError, match=rf"layer index {j} outside 1\.\.2"):
            getattr(fb, method)(j, *args)
        for key, (value, items) in state.items():
            assert vars(fb)[key] is value, key
            if items is not None:
                assert all(a is b for a, b in zip(value, items)), key
        assert fb.objective() == NetworkPass(with_block(net, 2, w), data, L2Loss()).objective()

    def test_a_write_to_the_callers_network_is_seen(self):
        # without a cache the value closure probes a pass on a copy of the
        # network, so the caller's array after an in-place write is keyed
        # as new content, not taken for the pass's own W_j
        net, data = make_problem([3, 4, 1], Logistic(), L2Loss(), seed=0)
        value, _ = block_objective_fn(net, data, L2Loss(), 2)
        before = value(net.weights[1])
        net.weights[1] += 0.1
        want = NetworkPass(net, data, L2Loss()).objective()
        assert want != before
        assert value(net.weights[1]) == want
