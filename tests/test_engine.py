"""Property tests of the cached pass engine against fresh recomputation.

Each drawn problem applies a sequence of block updates to one NetworkPass,
querying it lazily in between. An update either sets a block directly,
probes it first so that ``set_block`` adopts the memoized probe, probes,
mutates the probed array in place and probes again, probes block q before
and after the update, where the memo must not answer, or sets the block to a
copy of its own content, which must leave every cached gradient and block
q's memo in place. After every update the cached stages, objective, block
gradients and block probes must be bitwise equal to a fresh ``forward`` /
``objective_value`` / ``all_block_gradients`` on the same network, and at
the end the gradients must match central differences. Every block's
gradient is queried before and after each update, so a cached gradient that
outlives its weights, or an adopted probe whose gradients are not taken
over, shows as a mismatch.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsumnet import (ACTIVATIONS, ArmijoRule, CrossEntropyLoss, Dataset,
                     ExponentialLoss, FirstOrderProx, Geometric, InverseRoot, L2Loss,
                     L2Regularizer, Logistic, LogisticLoss, Network, NetworkSpec,
                     Regularizer, ShapeError, Softplus, SquaredHingeLoss, Tanh, Toeplitz,
                     Unconstrained, build_network, forward, harness, train, trainer)
from bsumnet.gradients import (NetworkPass, all_block_gradients,
                               block_gradient, block_objective_fn,
                               fd_gradient, objective_value)
from bsumnet.functions import sqnorm
from bsumnet.netcore import LayerOutputs
from bsumnet.trainer import TrainConfig, _LoopState, _step
from conftest import with_block

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

LOSSES = {
    "l2": (L2Loss(), "real"),
    "exponential": (ExponentialLoss(2.0), "real"),
    "logistic": (LogisticLoss(), "sign"),
    "squared_hinge": (SquaredHingeLoss(), "sign"),
    "cross_entropy": (CrossEntropyLoss(), "binary"),
}


@st.composite
def problems(draw, max_depth=3):
    depth = draw(st.integers(1, max_depth))
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
    modes = draw(st.lists(st.sampled_from(["set", "adopt", "mutate", "reprobe", "same"]),
                          min_size=len(updates), max_size=len(updates)))
    return net, Dataset(X, Y), loss, list(zip(updates, queries, modes)), rng


def assert_probe_matches_fresh(fb, net, data, loss, j, v):
    value_fn, grad_fn = block_objective_fn(net, data, loss, j, cache=fb)
    moved = with_block(net, j, v)
    assert value_fn(v) == objective_value(moved, data, loss)
    assert np.array_equal(grad_fn(v), block_gradient(moved, data, loss, j))


def assert_gradients_match_fresh(fb, net, data, loss):
    # every block's gradient, cached from its first query on, stays bitwise
    # a fresh recomputation at the pass's weights
    for j in range(1, net.depth + 1):
        assert np.array_equal(fb.grad(j), block_gradient(net, data, loss, j))
        assert fb.grad(j) is fb.grad(j)


def assert_matches_fresh(fb, net, data, loss, rng):
    fresh = forward(net, data.X)
    for got, want in zip(fb.outs.post_activations, fresh.post_activations):
        assert np.array_equal(got, want)
    assert fb.objective() == objective_value(net, data, loss)
    for got, want in zip(fb.grads(), all_block_gradients(net, data, loss)):
        assert np.array_equal(got, want)
    for j in range(1, net.depth + 1):
        assert_probe_matches_fresh(fb, net, data, loss, j, net.weights[j - 1].copy())
        v = net.weights[j - 1] + 0.3 * rng.standard_normal(net.weights[j - 1].shape)
        assert_probe_matches_fresh(fb, net, data, loss, j, v)


@given(problems())
@settings(max_examples=60, deadline=None)
def test_cached_pass_equals_fresh_recomputation(problem):
    net, data, loss, steps, rng = problem
    fb = NetworkPass(net, data, loss)
    for j, q, mode in steps:
        w = net.weights[j - 1] + 0.3 * rng.standard_normal(net.weights[j - 1].shape)
        v = net.weights[q - 1] + 0.3 * rng.standard_normal(net.weights[q - 1].shape)
        assert_gradients_match_fresh(fb, net, data, loss)
        if mode in ("adopt", "mutate"):
            assert_probe_matches_fresh(fb, net, data, loss, j, w)
        if mode == "adopt":
            # the probe's gradients, which set_block takes over with it
            assert_gradients_match_fresh(fb.probe(j, w), with_block(net, j, w), data, loss)
        if mode == "mutate":
            w[tuple(rng.integers(0, n) for n in w.shape)] += 0.5
            assert_probe_matches_fresh(fb, net, data, loss, j, w)
        if mode == "reprobe":
            assert_probe_matches_fresh(fb, net, data, loss, q, v)
        if mode == "same":
            w = net.weights[j - 1].copy()
            memo, grads = fb.probe(q, v), fb.grads()
        fb.set_block(j, w.copy())
        net = with_block(net, j, w)
        if mode == "reprobe":
            assert_probe_matches_fresh(fb, net, data, loss, q, v)
        if mode == "same":
            # nothing changed, so nothing is recomputed
            assert fb.probe(q, v) is memo
            assert all(a is b for a, b in zip(fb.grads(), grads))
        # a lone query leaves the deltas below block q uncomputed
        assert np.array_equal(fb.grad(q), block_gradient(net, data, loss, q))
        assert_gradients_match_fresh(fb, net, data, loss)
        assert_matches_fresh(fb, net, data, loss, rng)
    assert all(np.array_equal(a, b) for a, b in zip(fb.net.weights, net.weights))


@given(problems())
@settings(max_examples=40, deadline=None)
def test_cached_gradients_match_finite_differences(problem):
    net, data, loss, steps, rng = problem
    fb = NetworkPass(net, data, loss)
    for j, _, _ in steps:
        w = net.weights[j - 1] + 0.3 * rng.standard_normal(net.weights[j - 1].shape)
        fb.set_block(j, w)
    for j in range(1, net.depth + 1):
        value_fn, _ = block_objective_fn(fb.net, data, loss, j, cache=fb)
        numeric = fd_gradient(value_fn, fb.net.weights[j - 1], h=1e-6)
        err = np.linalg.norm(fb.grad(j) - numeric) / max(1.0, np.linalg.norm(numeric))
        assert err <= 1e-6


def counted_refreshes(monkeypatch) -> list:
    """The start layer of every ``LayerOutputs.refresh`` call from now on."""
    calls = []
    refresh = LayerOutputs.refresh

    def counted(outs, network, start):
        calls.append(start)
        return refresh(outs, network, start)

    monkeypatch.setattr(LayerOutputs, "refresh", counted)
    return calls


def test_accepted_unit_armijo_step_runs_one_suffix_forward(monkeypatch):
    # the gamma search probes D, the Armijo test reads f(W) from the pass and
    # f(D) from the memo, and set_block adopts the probe's stages
    spec = NetworkSpec.homogeneous([4, 5, 5, 1], Logistic(),
                                   regularizer=Regularizer.l2(1e-2),
                                   feasible=Toeplitz())
    net = build_network(spec, "uniform", seed=3)
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((4, 20)), rng.standard_normal((1, 20)))
    cfg = TrainConfig(upperbound=FirstOrderProx(4.0), schedule=ArmijoRule())
    state = _LoopState(cfg, net.spec, L2Loss(), data.n_samples)
    full = NetworkPass(net, data, L2Loss())
    full.objective()
    calls = counted_refreshes(monkeypatch)
    for k in range(1, 4):
        calls.clear()
        j, alpha, gamma, _ = _step(full, k, state)
        full.objective()  # a stale pass would refresh here
        assert (alpha, gamma) == (1.0, 4.0)
        assert calls == [j]
        assert_matches_fresh(full, full.net, data, L2Loss(), rng)


def test_negative_zero_is_a_change(monkeypatch):
    # bitwise content, not ==: -0.0 and 0.0 compare equal but differ in bits
    net = build_network(NetworkSpec.homogeneous([3, 4, 1], Logistic()), "uniform", seed=2)
    rng = np.random.default_rng(2)
    data = Dataset(rng.standard_normal((3, 8)), rng.standard_normal((1, 8)))
    w = net.weights[0].copy()
    w[0, 0] = 0.0
    fb = NetworkPass(net, data, L2Loss())
    fb.set_block(1, w)
    grads = fb.grads()
    calls = counted_refreshes(monkeypatch)
    w[0, 0] = -0.0
    fb.set_block(1, w)
    assert np.signbit(fb.net.weights[0][0, 0])
    assert all(a is not b for a, b in zip(fb.grads(), grads))
    assert calls == [1]
    assert_matches_fresh(fb, with_block(net, 1, w), data, L2Loss(), rng)


def test_stalled_geometric_steps_run_no_forward(monkeypatch):
    # alpha_k = 2^-k: past the stall W + alpha P(G)/(-gamma) rounds to W bit
    # for bit once alpha times the step is below half an ulp of W, and the
    # install keeps the pass, f and every gradient
    spec = NetworkSpec.homogeneous([4, 5, 5, 1], Logistic(),
                                   regularizer=Regularizer.l2(1e-2))
    net = build_network(spec, "uniform", seed=4)
    rng = np.random.default_rng(4)
    data = Dataset(rng.standard_normal((4, 20)), rng.standard_normal((1, 20)))
    cfg = TrainConfig(upperbound=FirstOrderProx(1.0), schedule=Geometric(1.0),
                      adapt_gamma=False)
    state = _LoopState(cfg, net.spec, L2Loss(), data.n_samples)
    full = NetworkPass(net, data, L2Loss())
    for k in range(1, 121):
        _step(full, k, state)
    full.grads()
    weights = [w.copy() for w in full.net.weights]
    calls = counted_refreshes(monkeypatch)
    for k in range(121, 181):
        _, alpha, _, _ = _step(full, k, state)
        full.objective()
        full.grads()
        assert alpha > 0.0
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(full.net.weights, weights))
    assert_matches_fresh(full, full.net, data, L2Loss(), rng)


def assert_no_shared_memory(fb):
    # the in-place arithmetic of grad and deltas writes only fresh arrays:
    # no cached gradient or delta shares memory with another one, a weight
    # or a Z stage
    cached = [a for a in fb._grads + fb._deltas if a is not None]
    held = fb.net.weights + fb.outs.post_activations
    for a, b in itertools.chain(itertools.combinations(cached, 2),
                                itertools.product(cached, held)):
        assert not np.shares_memory(a, b)


@given(problems(max_depth=4))
@settings(max_examples=40, deadline=None)
def test_cached_gradients_and_deltas_alias_nothing(problem):
    net, data, loss, steps, rng = problem
    fb = NetworkPass(net, data, loss)
    for j, q, mode in steps:
        held = fb.grad(q)
        kept = held.copy()
        fb.deltas()
        fb.grads()
        assert_no_shared_memory(fb)
        w = net.weights[j - 1] + 0.3 * rng.standard_normal(net.weights[j - 1].shape)
        if mode == "adopt":  # set_block takes over the probe's gradients
            fb.probe(j, w).grads()
            assert_no_shared_memory(fb.probe(j, w))
        fb.set_block(j, w)
        net = with_block(net, j, w)
        fb.grads()
        fb.deltas()
        assert_no_shared_memory(fb)
        # a gradient the caller holds is not written by later updates or queries
        assert held.tobytes() == kept.tobytes()


def test_public_pass_checks_shapes_and_a_probe_does_not_recheck(monkeypatch):
    spec = NetworkSpec.homogeneous([3, 4, 2, 1], Logistic())
    net = build_network(spec, "uniform", seed=5)
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal((3, 6)), rng.standard_normal((1, 6)))
    fb = NetworkPass(net, data, L2Loss())
    checks = []
    post_init = Network.__post_init__
    monkeypatch.setattr(Network, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    v = net.weights[1] + 0.1
    probe = fb.probe(2, v)
    assert checks == [] and probe is not fb
    assert_probe_matches_fresh(fb, net, data, L2Loss(), 2, v)
    net.weights[1] = np.zeros((4, 2))  # W_2 swapped for the wrong shape
    with pytest.raises(ShapeError, match="W_2"):
        NetworkPass(net, data, L2Loss())


def test_probe_evaluates_only_its_own_block_penalty(monkeypatch):
    # the pass keeps each block's penalty; a probe reuses the other blocks'
    # and sums loss + p_1 + ... + p_J in order, so f keeps its bits
    spec = NetworkSpec.homogeneous([3, 4, 2, 1], Logistic(), regularizer=Regularizer.l2(1e-2))
    net = build_network(spec, "uniform", seed=6)
    rng = np.random.default_rng(6)
    data = Dataset(rng.standard_normal((3, 9)), rng.standard_normal((1, 9)))
    fb = NetworkPass(net, data, L2Loss())
    fb.objective()
    calls = []
    value = L2Regularizer.value
    monkeypatch.setattr(L2Regularizer, "value",
                        lambda self, w: calls.append(w.shape) or value(self, w))
    for j in range(1, net.depth + 1):
        v = net.weights[j - 1] + 0.1 * rng.standard_normal(net.weights[j - 1].shape)
        calls.clear()
        f = fb.probe(j, v).objective()
        assert calls == [v.shape]
        assert f == NetworkPass(with_block(net, j, v), data, L2Loss()).objective()
    # set_block adopts the last probe with its penalty; an update to another
    # block then evaluates that block's penalty alone
    fb.set_block(net.depth, v)
    net = with_block(net, net.depth, v)
    calls.clear()
    assert fb.objective() == f and calls == []
    w = net.weights[0] + 0.2
    fb.set_block(1, w)
    net = with_block(net, 1, w)
    assert fb.objective() == NetworkPass(net, data, L2Loss()).objective()
    assert calls[0] == w.shape and len(calls) == 1 + net.depth  # then the fresh pass's


@pytest.mark.parametrize("feasible,schedule,adopted", [
    (Unconstrained(), InverseRoot(1.0), False),
    (Toeplitz(), ArmijoRule(), True),
], ids=["unconstrained", "toeplitz_armijo"])
def test_installed_block_is_kept_without_a_copy_and_aliases_nothing(
        monkeypatch, feasible, schedule, adopted):
    # the trainer hands the pass the block it built; the pass keeps that
    # array (or, after a line search, the accepted probe's), and it shares
    # no memory with the block it replaces, a cached gradient or delta, or
    # a stage
    spec = NetworkSpec.homogeneous([4, 5, 5, 1], Logistic(), regularizer=Regularizer.l2(1e-2),
                                   feasible=feasible)
    net = build_network(spec, "uniform", seed=7)
    rng = np.random.default_rng(7)
    data = Dataset(rng.standard_normal((4, 20)), rng.standard_normal((1, 20)))
    install, apply_update = NetworkPass._install, trainer._apply_update
    installed, built = [], []

    def recorded(w, d, alpha):
        built.append(apply_update(w, d, alpha))
        return built[-1]

    def checked(fb, j, w):
        before = fb.net.weights[j - 1]
        held = [a for a in fb._grads + fb._deltas if a is not None]
        held += fb._outs.pre_activations + fb._outs.post_activations
        install(fb, j, w)
        new = fb.net.weights[j - 1]
        if new is before:
            return
        installed.append(j)
        assert (new is built[-1]) != adopted
        for a in [before] + held:
            assert not np.shares_memory(new, a)

    monkeypatch.setattr(trainer, "_apply_update", recorded)
    monkeypatch.setattr(NetworkPass, "_install", checked)
    cfg = TrainConfig(upperbound=FirstOrderProx(1.0), schedule=schedule,
                      max_outer_iterations=3 * net.depth)
    train(net, data, L2Loss(), cfg)
    assert sorted(set(installed)) == [1, 2, 3]


def test_public_set_block_keeps_a_copy():
    spec = NetworkSpec.homogeneous([3, 4, 1], Logistic(), regularizer=Regularizer.l2(1e-2))
    net = build_network(spec, "uniform", seed=8)
    rng = np.random.default_rng(8)
    data = Dataset(rng.standard_normal((3, 7)), rng.standard_normal((1, 7)))
    for j in (1, 2):
        w = net.weights[j - 1] + 0.1
        want = NetworkPass(with_block(net, j, w), data, L2Loss()).objective()
        kept = w.copy()
        fb = NetworkPass(net, data, L2Loss())
        fb.set_block(j, w)
        w += 1.0  # the caller's array, written after the update
        assert fb.net.weights[j - 1].tobytes() == kept.tobytes()
        assert fb.objective() == want


def slopes_pass():
    # three kinds of slope, a Toeplitz middle block and d_J = 2
    spec = NetworkSpec((4, 5, 3, 2), (Tanh(), Logistic(), Softplus()),
                       (Unconstrained(), Toeplitz(), Unconstrained()),
                       (Regularizer.l2(1e-2),) * 3)
    net = build_network(spec, "uniform", seed=5)
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal((4, 30)), rng.standard_normal((2, 30)))
    return NetworkPass(net, data, L2Loss()), rng


def test_kept_slopes_are_the_derivatives_of_the_current_stages():
    fb, rng = slopes_pass()
    fb.grads()
    assert fb._slopes is None  # a pass that built no curvature keeps none
    fb.hessian(3)
    for j in (2, 1, 3):
        w = fb.net.weights[j - 1]
        fb.set_block(j, w + 0.1 * rng.standard_normal(w.shape))
        assert all(s is None for s in fb._slopes)
        fb.deltas()
        outs = fb.outs
        for i, act in enumerate(fb.net.spec.activations, start=1):
            want = act.derivative(outs.pre_activations[i - 1], outs.post_activations[i])
            assert fb._slopes[i - 1].tobytes() == want.tobytes(), (j, i)
        fresh = NetworkPass(fb.net.copy(), fb.data, L2Loss())
        assert fb.hessian(1).tobytes() == fresh.hessian(1).tobytes(), j
        assert fb.kernel_hessian(2).tobytes() == fresh.kernel_hessian(2).tobytes(), j


def test_kept_slopes_are_dropped_in_a_probe_and_on_other_data():
    fb, _ = slopes_pass()
    fb.hessian(1)
    kept = fb._slopes
    assert all(s is not None for s in kept)
    probe = fb.probe(2, fb.net.weights[1] + 0.1)
    assert probe._slopes is not kept and all(s is None for s in probe._slopes)
    probe.deltas()
    batch = fb._on(fb.data.restrict(np.arange(10)))
    assert batch._slopes is not kept and all(s is None for s in batch._slopes)
    batch.deltas()
    assert fb._slopes is kept and all(s is not None for s in kept)
    for other in (probe, batch):  # each kept its own, of its own stages
        assert all(not np.shares_memory(a, b) for a, b in zip(other._slopes, kept))


def test_newton_cycle_forms_each_slope_once(monkeypatch, tmp_path):
    # the curvature benchmark's layout: every Tanh.derivative call is a layer
    # some backward pass walks, and the Hessians read the slopes it kept
    job = workloads.curvature(0, True, tmp_path)
    state = _LoopState(job.cfg, job.net.spec, L2Loss(), job.data.n_samples)
    full = NetworkPass(job.net.copy(), job.data, L2Loss())
    calls, walks = [], []
    derivative, deltas = Tanh.derivative, NetworkPass.deltas

    def counted_derivative(act, u, z=None):
        calls.append(len(u))
        return derivative(act, u, z)

    def counted_deltas(fb, j=1):
        before = sum(d is not None for d in fb._deltas)
        out = deltas(fb, j)
        walks.append(sum(d is not None for d in out) - before)
        return out

    monkeypatch.setattr(Tanh, "derivative", counted_derivative)
    monkeypatch.setattr(NetworkPass, "deltas", counted_deltas)
    for k in range(1, 2 * full.depth + 1):  # the first cycle builds the first curvature
        _step(full, k, state)
        if k % full.depth == 0:
            full.grads()  # the cycle end's residual
        assert len(calls) == sum(walks), k
    assert sum(walks) >= 2 * full.depth * 2


def benchmark_passes(tmp_path):
    """(name, pass) at each benchmark workload's inputs: the three train
    workloads' and the README config's network and dataset."""
    for name in ("fo_logistic", "armijo_probe", "curvature"):
        job = workloads.WORKLOADS[name](0, True, tmp_path)
        yield name, NetworkPass(job.net, job.data, L2Loss())
    cfg = harness.parse_config(json.loads((PERFBENCH / "readme_config.json").read_text()))
    yield "readme_cli", NetworkPass(build_network(cfg.spec, cfg.init, seed=0), cfg.data,
                                    cfg.loss)


def test_dot_and_matmul_agree_bitwise_at_the_benchmark_shapes(tmp_path):
    # the engine forms its 2-D products with ndarray.dot (np.dot), which at
    # these shapes runs the same GEMM as np.matmul; a numpy or BLAS that split
    # the two would move every trajectory, so it fails here first
    seen = set()
    for name, fb in benchmark_passes(tmp_path):
        post, deltas, weights = fb.outs.post_activations, fb.deltas(), fb.net.weights
        for i, w in enumerate(weights):
            products = [(w, post[i]), (deltas[i], post[i].T)]  # forward, D Z^T
            if i:
                products.append((w.T, deltas[i]))  # W^T D into layer i
                # the same product into the scratch, as the bend b_i forms it
                out = np.full((w.shape[1], deltas[i].shape[1]), np.nan)
                w.T.dot(deltas[i], out=out)
                assert out.tobytes() == np.matmul(w.T, deltas[i]).tobytes(), (name, i)
            for a, b in products:
                assert a.dot(b).tobytes() == np.matmul(a, b).tobytes(), (name, i)
            seen.add((name, w.shape))
    assert ("fo_logistic", (1, 10)) in seen and ("curvature", (1, 16)) in seen
    assert {name for name, _ in seen} == {"fo_logistic", "armijo_probe", "curvature",
                                           "readme_cli"}


def test_sqnorm_and_unwrapped_sum_agree_bitwise_at_the_benchmark_shapes(tmp_path):
    # sqnorm dots a raveled array with ndarray.dot and the surrogate's linear
    # term sums with np.add.reduce, both skipping numpy's Python wrappers;
    # np.vdot and ndarray.sum are the references they replace
    seen = set()
    for name, fb in benchmark_passes(tmp_path):
        fb.objective()
        post, grads, weights = fb.outs.post_activations, fb.grads(), fb.net.weights
        resid = fb.data.Y - post[-1]
        for x in [resid, *post[1:], *weights, *grads]:
            assert sqnorm(x) == float(np.vdot(x, x)), (name, x.shape)
            seen.add((name, x.shape))
        for w, g in zip(weights, grads):
            prod = g * (w - g / 0.25 - w)  # <g, D - W> at a first-order step
            assert np.add.reduce(prod, None).tobytes() == prod.sum().tobytes(), (name, w.shape)
        assert fb.sse() == float(np.vdot(resid, resid))
    assert {name for name, _ in seen} == {"fo_logistic", "armijo_probe", "curvature",
                                           "readme_cli"}
