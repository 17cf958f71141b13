"""The first-order probe step against an independent plain-numpy replica.

The default first-order step doubles gamma until the surrogate majorizes the
block objective at the candidate D, then an Armijo search picks the stepsize
along the segment to D. The replica below redoes that step with plain numpy
calls in the library's arithmetic order (its own sigmoid with the same
ufuncs, its own Toeplitz projection), without the engine's caches, memo or
adoption, so every row of a traced run and the final weights must agree bit
for bit with ``train``: on a small net, and at the benchmark's armijo_probe
shapes, where the gain of the lean probe step is measured.
"""

import math

import numpy as np
import pytest

from bsumnet import (ArmijoRule, Dataset, FirstOrderProx, L2Loss, Logistic, NetworkSpec,
                     Regularizer, Toeplitz, TrainConfig, Unconstrained, build_network,
                     synth_regression, train)

DIMS = (4, 5, 5, 1)
LAM = 1e-2
GAMMA0 = 0.02
ITERS = 40


def sigmoid(u):
    s = np.negative(u)
    np.minimum(s, 709.0, out=s)
    np.exp(s, out=s)
    np.add(s, 1.0, out=s)
    return np.reciprocal(s, out=s)


def toeplitz_project(w):
    """Each diagonal replaced by its mean, or kept when already constant."""
    rows, cols = w.shape
    out = np.empty_like(w)
    for off in range(1 - rows, cols):
        r = np.arange(max(0, -off), min(rows, cols - off))
        diag = w[r, r + off]
        total = 0.0
        for v in diag:
            total += v
        out[r, r + off] = diag[0] if np.all(diag == diag[0]) else total / len(diag)
    return out


def sq(x):
    x = np.ravel(x)
    return float(np.dot(x, x))


class Replica:
    def __init__(self, weights, X, Y, toeplitz, gamma0=GAMMA0):
        self.w = [w.copy() for w in weights]
        self.X, self.Y, self.toeplitz, self.gamma0 = X, Y, toeplitz, gamma0

    def stages(self, weights):
        zs = [self.X]
        for w in weights:
            zs.append(sigmoid(w.dot(zs[-1])))
        return zs

    def f(self, weights):
        h = self.stages(weights)[-1]
        val = sq(self.Y - h) / h.shape[1]
        for w in weights:
            val += LAM * sq(w)
        return val

    def grads(self, weights):
        zs = self.stages(weights)
        h = zs[-1]
        delta = h - self.Y
        delta *= 2.0 / h.shape[1]
        out = [None] * len(weights)
        for i in range(len(weights), 0, -1):
            if i < len(weights):
                delta = np.matmul(weights[i].T, delta)
            slope = np.subtract(1.0, zs[i])
            slope *= zs[i]
            delta *= slope
            g = delta.dot(zs[i - 1].T)
            g += 2.0 * LAM * weights[i - 1]
            out[i - 1] = g
        return out

    def with_block(self, j, v):
        return self.w[:j - 1] + [v] + self.w[j:]

    def step(self, j, adapt):
        w, grad = self.w[j - 1], self.grads(self.w)[j - 1]
        project = toeplitz_project if j in self.toeplitz else (lambda a: a)
        f_w = self.f(self.w)
        gamma = self.gamma0
        while True:
            d = project(w - grad / gamma)
            if not adapt:
                break
            diff = d - w
            model = f_w + float(np.add.reduce(grad * diff, None)) + 0.5 * gamma * sq(diff)
            f_d = self.f(self.with_block(j, d))
            if model >= f_d - 1e-12 * max(1.0, abs(f_d)):
                break
            gamma *= 2.0
        slope = float(np.add.reduce(grad * (d - w), None))
        alpha, new = 0.0, w
        if -math.inf < slope < 0:
            trial = 1.0
            for _ in range(61):
                cand = d if trial == 1.0 else (1.0 - trial) * w + trial * d
                if self.f(self.with_block(j, cand)) <= f_w + 1e-4 * trial * slope:
                    alpha, new = trial, cand
                    break
                trial *= 0.5
        self.w[j - 1] = new
        return grad, alpha, gamma

    def row(self, k, j, grad, alpha, gamma):
        h = self.stages(self.w)[-1]
        energy = sq(self.Y - self.Y.mean(axis=1, keepdims=True))
        total = 0.0
        for g in self.grads(self.w):
            total += sq(g)
        return (k, j, self.f(self.w), sq(self.Y - h) / energy, math.sqrt(sq(grad)),
                math.sqrt(total), alpha, gamma)


def replica_rows(replica, depth, adapt):
    """The replica's trace row of each of ITERS iterations, one per block step."""
    rows = []
    for k in range(1, ITERS + 1):
        j = (k - 1) % depth + 1
        rows.append(replica.row(k, j, *replica.step(j, adapt)))
    return rows


@pytest.mark.parametrize("adapt", [True, False], ids=["gamma_search", "fixed_gamma"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_order_armijo_steps_match_a_plain_numpy_replica(seed, adapt):
    # with the gamma search every step majorizes, and Armijo takes alpha = 1;
    # at the fixed small gamma Armijo shrinks alpha
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((DIMS[0], 30))
    Y = rng.standard_normal((DIMS[-1], 30))
    feasible = (Unconstrained(), Toeplitz(), Unconstrained())
    spec = NetworkSpec(DIMS, (Logistic(),) * 3, feasible, (Regularizer.l2(LAM),) * 3)
    net = build_network(spec, "uniform", seed=seed)
    cfg = TrainConfig(upperbound=FirstOrderProx(GAMMA0), schedule=ArmijoRule(),
                      max_outer_iterations=ITERS, record_every=1, adapt_gamma=adapt)
    got_net, trace = train(net, Dataset(X, Y), L2Loss(), cfg)

    replica = Replica(net.weights, X, Y, toeplitz={2})
    want = replica_rows(replica, 3, adapt)
    got = [(r.k, r.block, r.f, r.normalized_mse, r.block_grad_norm, r.full_grad_norm,
            r.alpha, r.gamma) for r in trace.rows]
    assert got == want
    if adapt:  # the search doubled gamma
        assert {r[-1] for r in want} != {GAMMA0}
    else:  # Armijo shrank alpha
        assert {r[-2] for r in want} - {0.0, 1.0}
    for a, b in zip(got_net.weights, replica.w):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_armijo_probe_steps_match_a_plain_numpy_replica(seed):
    # the benchmark's armijo_probe problem: Toeplitz hidden blocks 2 and 3,
    # gamma search from 0.25 and an Armijo search, N = 252
    data = synth_regression(seed=seed, n_samples=252, n_features=13)
    feasible = (Unconstrained(), Toeplitz(), Toeplitz(), Unconstrained())
    spec = NetworkSpec((13, 10, 10, 10, 1), (Logistic(),) * 4, feasible,
                       (Regularizer.l2(LAM),) * 4)
    net = build_network(spec, "uniform", seed=seed)
    cfg = TrainConfig(upperbound=FirstOrderProx(0.25), schedule=ArmijoRule(),
                      max_outer_iterations=ITERS, record_every=1)
    got_net, trace = train(net, data, L2Loss(), cfg)

    replica = Replica(net.weights, data.X, data.Y, toeplitz={2, 3}, gamma0=0.25)
    want = replica_rows(replica, 4, True)
    got = [(r.k, r.block, r.f, r.normalized_mse, r.block_grad_norm, r.full_grad_norm,
            r.alpha, r.gamma) for r in trace.rows]
    assert got == want
    for a, b in zip(got_net.weights, replica.w):
        assert a.tobytes() == b.tobytes()
