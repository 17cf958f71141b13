"""Network construction, forward propagation, and feasible sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsumnet import (Dataset, FrobeniusBall, Identity, Logistic, Network,
                     NetworkSpec, Regularizer, ShapeError, SpecError, Tanh,
                     Toeplitz, Unconstrained, build_network, forward)
from conftest import scalar_output


def loop_toeplitz_project(w):
    """Reference projection: one diagonal at a time, each set to its mean."""
    rows, cols = w.shape
    out = np.empty_like(w)
    for off in range(-(rows - 1), cols):
        diag = np.diagonal(w, offset=off)
        idx = np.arange(len(diag))
        if off >= 0:
            out[idx, idx + off] = diag.mean()
        else:
            out[idx - off, idx] = diag.mean()
    return out


def diagonal_key(rows, cols):
    return (np.arange(cols) - np.arange(rows)[:, None] + rows - 1).ravel()


def oracle_toeplitz_project(w):
    """Bitwise reference: each diagonal's first entry from per-call offsets,
    kept where the diagonal is constant, else the bincount mean."""
    offsets = np.arange(1 - w.shape[0], w.shape[1])
    key = diagonal_key(*w.shape)
    first = w[np.maximum(-offsets, 0), np.maximum(offsets, 0)]
    mean = np.bincount(key, weights=w.ravel()) / np.bincount(key)
    varies = np.bincount(key, weights=(w.ravel() != first[key]))
    return np.where(varies > 0, mean, first)[key].reshape(w.shape)


def projection_input(kind, shape, seed=0):
    rng = np.random.default_rng(seed)
    key = diagonal_key(*shape)
    if kind == "random":
        return rng.standard_normal(shape)
    if kind == "toeplitz":
        return rng.standard_normal(shape[0] + shape[1] - 1)[key].reshape(shape)
    if kind == "signed_zeros":
        # +0.0 and -0.0 at random, and the first diagonal all -0.0
        w = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        w[key.reshape(shape) == 0] = -0.0
        return w
    w = rng.standard_normal(shape)  # NaN entries
    w.ravel()[::3] = np.nan
    return w


def spec_of(dims, act, feasible=None):
    return NetworkSpec.homogeneous(dims, act, feasible=feasible)


class TestBuildNetwork:
    def test_zeros_scheme(self):
        net = build_network(spec_of([2, 2], Identity()), "zeros", seed=0)
        assert np.array_equal(net.weights[0], np.zeros((2, 2)))

    def test_toeplitz_membership_after_init(self):
        spec = spec_of([4, 4], Logistic(), feasible=Toeplitz())
        net = build_network(spec, "gaussian", seed=7)
        w = net.weights[0]
        assert np.linalg.norm(w - Toeplitz().project(w)) <= 1e-12

    def test_frobenius_ball_membership_after_init(self):
        spec = spec_of([5, 4], Logistic(), feasible=FrobeniusBall(0.5))
        net = build_network(spec, "gaussian", seed=3, scale=10.0)
        assert np.linalg.norm(net.weights[0]) <= 0.5 + 1e-12

    def test_deterministic_bitwise(self):
        spec = spec_of([3, 5, 2], Logistic())
        a = build_network(spec, "uniform", seed=11)
        b = build_network(spec, "uniform", seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_seed_changes_weights(self):
        spec = spec_of([3, 2], Logistic())
        a = build_network(spec, "uniform", seed=1)
        b = build_network(spec, "uniform", seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SpecError):
            build_network(spec_of([2, 2], Identity()), "xavier", seed=0)

    @pytest.mark.parametrize("init", ["uniform", "gaussian"])
    @pytest.mark.parametrize("seed,scale", [(-1, None), (0, 0.0), (0, -1.0)])
    def test_negative_seed_and_nonpositive_scale_rejected(self, init, seed, scale):
        # numpy once raised its own ValueError for these, and a zero scale
        # gave all-zero weights, which the "zeros" scheme is for
        with pytest.raises(SpecError, match="need seed >= 0 and scale None or > 0"):
            build_network(spec_of([2, 2], Identity()), init, seed=seed, scale=scale)

    def test_default_scale_is_inv_sqrt_fanin(self):
        spec = spec_of([100, 3], Identity())
        net = build_network(spec, "uniform", seed=0)
        assert np.max(np.abs(net.weights[0])) <= 0.1


class TestSpecValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(SpecError):
            NetworkSpec((2, 3), (Identity(), Identity()), (Unconstrained(),),
                        (Regularizer.none(),))

    def test_bad_dims(self):
        with pytest.raises(SpecError):
            NetworkSpec.homogeneous([2, 0], Identity())
        with pytest.raises(SpecError):
            NetworkSpec.homogeneous([2], Identity())

    def test_weight_shape_checked(self):
        spec = spec_of([2, 3], Identity())
        with pytest.raises(ShapeError):
            Network(spec, [np.zeros((2, 3))])

    def test_frobenius_ball_needs_positive_radius(self):
        with pytest.raises(SpecError):
            FrobeniusBall(0.0)


class TestDataset:
    def test_column_count_must_agree(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 3)), np.zeros((1, 4)))

    def test_restrict_copies(self):
        d = Dataset(np.arange(6.0).reshape(2, 3), np.arange(3.0).reshape(1, 3))
        sub = d.restrict(np.array([2, 0]))
        assert np.array_equal(sub.X, d.X[:, [2, 0]])
        assert sub.X.flags["C_CONTIGUOUS"]


class TestForward:
    def test_identity_composition(self):
        spec = spec_of([3, 3, 3], Identity())
        net = Network(spec, [np.eye(3), np.eye(3)])
        X = np.random.default_rng(0).standard_normal((3, 7))
        outs = forward(net, X)
        assert np.array_equal(outs.output, X)

    def test_zero_weight_logistic_gives_half(self):
        net = build_network(spec_of([4, 2], Logistic()), "zeros", seed=0)
        out = forward(net, np.random.default_rng(1).standard_normal((4, 5))).output
        assert np.array_equal(out, np.full((2, 5), 0.5))

    def test_against_scalar_loop_oracle(self):
        spec = spec_of([4, 3, 5, 2], Logistic())
        net = build_network(spec, "uniform", seed=5)
        X = np.random.default_rng(2).standard_normal((4, 3))
        got = forward(net, X).output
        want = scalar_output(net, X)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_network_output_matches_forward(self):
        spec = spec_of([2, 4, 1], Tanh())
        net = build_network(spec, "uniform", seed=9)
        X = np.random.default_rng(3).standard_normal((2, 6))
        assert np.array_equal(forward(net, X).output,
                              forward(net, X).post_activations[-1])

    def test_shape_error_on_wrong_rows(self):
        net = build_network(spec_of([3, 2], Identity()), "uniform", seed=0)
        with pytest.raises(ShapeError):
            forward(net, np.zeros((4, 5)))

    def test_shape_propagation_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            depth = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
            n = int(rng.integers(1, 9))
            net = build_network(spec_of(dims, Logistic()), "uniform",
                                seed=int(rng.integers(1000)))
            outs = forward(net, rng.standard_normal((dims[0], n)))
            for j in range(1, depth + 1):
                assert outs.pre_activations[j - 1].shape == (dims[j], n)
                assert outs.post_activations[j].shape == (dims[j], n)
            assert all(np.all(np.isfinite(z)) for z in outs.post_activations)

    def test_forward_is_pure_and_deterministic(self):
        spec = spec_of([3, 4, 2], Logistic())
        net = build_network(spec, "uniform", seed=4)
        X = np.random.default_rng(5).standard_normal((3, 8))
        a = forward(net, X)
        b = forward(net, X)
        assert np.array_equal(a.output, b.output)
        for u, v in zip(a.pre_activations, b.pre_activations):
            assert np.array_equal(u, v)

    @pytest.mark.parametrize("act", [Logistic(), Tanh()])
    def test_bounded_activations_stay_bounded(self, act):
        spec = spec_of([3, 6, 6, 2], act)
        net = build_network(spec, "gaussian", seed=8, scale=50.0)
        X = 100.0 * np.random.default_rng(6).standard_normal((3, 10))
        outs = forward(net, X)
        for z in outs.post_activations[1:]:
            assert np.all(np.abs(z) <= 1.0)


class TestFeasibleSets:
    def test_toeplitz_projection_example(self):
        got = Toeplitz().project(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(got, np.array([[2.5, 2.0], [3.0, 2.5]]))

    def test_toeplitz_fixed_point(self):
        w = np.array([[1.0, 2.0, 3.0], [4.0, 1.0, 2.0], [5.0, 4.0, 1.0]])
        assert np.array_equal(Toeplitz().project(w), w)

    def test_toeplitz_kernel_index_is_one_read_only_array_per_shape(self):
        index = Toeplitz().kernel_index((3, 4))
        assert Toeplitz().kernel_index((3, 4)) is index
        np.testing.assert_array_equal(index.reshape(3, 4),
                                      [[2, 3, 4, 5], [1, 2, 3, 4], [0, 1, 2, 3]])
        with pytest.raises(ValueError):
            index[0] = 1

    def test_ball_scaling_hits_radius(self):
        w = np.array([[2.0, 0.0], [0.0, 0.0]])
        got = FrobeniusBall(1.0).project(w)
        assert np.linalg.norm(got) == 1.0

    def test_ball_interior_untouched(self):
        w = np.array([[0.1, 0.2], [0.0, -0.1]])
        assert np.array_equal(FrobeniusBall(5.0).project(w), w)

    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_toeplitz_matches_diagonal_loop(self, rows, cols, seed, log_scale):
        w = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0 ** log_scale
        got = Toeplitz().project(w)
        # the loop and the vectorized form sum each diagonal in a different
        # order: at most (length - 1) roundings apart
        tol = max(rows, cols) * np.finfo(float).eps * np.max(np.abs(w))
        np.testing.assert_allclose(got, loop_toeplitz_project(w), rtol=0, atol=tol)
        assert np.array_equal(Toeplitz().project(got), got)

    @pytest.mark.parametrize("kind", ["random", "toeplitz", "signed_zeros", "nan"])
    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (3, 4), (10, 10), (16, 16)])
    def test_toeplitz_plan_matches_oracle_bitwise(self, shape, kind):
        w = projection_input(kind, shape)
        got = Toeplitz().project(w)
        assert got.tobytes() == oracle_toeplitz_project(w).tobytes()
        assert Toeplitz().project(got).tobytes() == got.tobytes()
        if kind == "toeplitz":
            assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("feasible", [Unconstrained(), Toeplitz(),
                                          FrobeniusBall(0.7)])
    def test_projection_idempotent_bitwise(self, feasible):
        rng = np.random.default_rng(21)
        for _ in range(5):
            w = rng.standard_normal((4, 3))
            once = feasible.project(w)
            twice = feasible.project(once)
            assert np.array_equal(once, twice)
