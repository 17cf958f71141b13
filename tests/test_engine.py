"""Property tests of the cached pass engine against fresh recomputation.

Each drawn problem applies a sequence of block updates to one NetworkPass,
querying it lazily in between. After every update the cached stages,
objective, block gradients and block probes must be bitwise equal to a fresh
``forward`` / ``objective_value`` / ``all_block_gradients`` on the same
network, and at the end the gradients must match central differences.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bsumnet import (ACTIVATIONS, CrossEntropyLoss, Dataset, ExponentialLoss,
                     L2Loss, Logistic, LogisticLoss, NetworkSpec, Regularizer,
                     SquaredHingeLoss, Unconstrained, build_network, forward)
from bsumnet.gradients import (NetworkPass, all_block_gradients,
                               block_gradient, block_objective_fn,
                               fd_gradient, objective_value)

LOSSES = {
    "l2": (L2Loss(), "real"),
    "exponential": (ExponentialLoss(2.0), "real"),
    "logistic": (LogisticLoss(), "sign"),
    "squared_hinge": (SquaredHingeLoss(), "sign"),
    "cross_entropy": (CrossEntropyLoss(), "binary"),
}


@st.composite
def problems(draw):
    depth = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4), min_size=depth + 1, max_size=depth + 1))
    acts = [ACTIVATIONS[draw(st.sampled_from(sorted(ACTIVATIONS)))]()
            for _ in range(depth)]
    loss_name = draw(st.sampled_from(sorted(LOSSES)))
    loss, labels = LOSSES[loss_name]
    if loss_name == "cross_entropy":
        acts[-1] = Logistic()  # predictions must lie in [0, 1]
    lam = draw(st.sampled_from([0.0, 1e-2]))
    spec = NetworkSpec(tuple(dims), tuple(acts), (Unconstrained(),) * depth,
                       (Regularizer.l2(lam),) * depth)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 6))
    X = rng.standard_normal((dims[0], n))
    Y = rng.standard_normal((dims[-1], n))
    if labels == "sign":
        Y = np.where(Y >= 0, 1.0, -1.0)
    elif labels == "binary":
        Y = (Y >= 0).astype(float)
    net = build_network(spec, "uniform", seed=seed)
    updates = draw(st.lists(st.integers(1, depth), min_size=1, max_size=6))
    queries = draw(st.lists(st.integers(1, depth), min_size=len(updates),
                            max_size=len(updates)))
    return net, Dataset(X, Y), loss, updates, queries, rng


def assert_matches_fresh(fb, net, data, loss, rng):
    fresh = forward(net, data.X)
    for got, want in zip(fb.outs.post_activations, fresh.post_activations):
        assert np.array_equal(got, want)
    assert fb.objective() == objective_value(net, data, loss)
    for got, want in zip(fb.grads(), all_block_gradients(net, data, loss)):
        assert np.array_equal(got, want)
    for j in range(1, net.depth + 1):
        v = net.weights[j - 1] + 0.3 * rng.standard_normal(net.weights[j - 1].shape)
        value_fn, grad_fn = block_objective_fn(net, data, loss, j, cache=fb)
        moved = net.with_block(j, v)
        assert value_fn(v) == objective_value(moved, data, loss)
        assert np.array_equal(grad_fn(v), block_gradient(moved, data, loss, j))


@given(problems())
@settings(max_examples=60, deadline=None)
def test_cached_pass_equals_fresh_recomputation(problem):
    net, data, loss, updates, queries, rng = problem
    fb = NetworkPass(net, data, loss)
    for j, q in zip(updates, queries):
        w = net.weights[j - 1] + 0.3 * rng.standard_normal(net.weights[j - 1].shape)
        fb.set_block(j, w)
        net = net.with_block(j, w)
        # a lone query leaves the deltas below block q uncomputed
        assert np.array_equal(fb.grad(q), block_gradient(net, data, loss, q))
        assert_matches_fresh(fb, net, data, loss, rng)
    assert all(np.array_equal(a, b) for a, b in zip(fb.net.weights, net.weights))


@given(problems())
@settings(max_examples=40, deadline=None)
def test_cached_gradients_match_finite_differences(problem):
    net, data, loss, updates, _, rng = problem
    fb = NetworkPass(net, data, loss)
    for j in updates:
        w = net.weights[j - 1] + 0.3 * rng.standard_normal(net.weights[j - 1].shape)
        fb.set_block(j, w)
    for j in range(1, net.depth + 1):
        value_fn, _ = block_objective_fn(fb.net, data, loss, j, cache=fb)
        numeric = fd_gradient(value_fn, fb.net.weights[j - 1], h=1e-6)
        err = np.linalg.norm(fb.grad(j) - numeric) / max(1.0, np.linalg.norm(numeric))
        assert err <= 1e-6
