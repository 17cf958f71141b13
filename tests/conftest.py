"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's matrix code paths: forward
and backward passes are re-derived with explicit per-sample, per-entry Python
loops so they can arbitrate the vectorized implementations.
"""

import numpy as np
import pytest

from bsumnet import Dataset, Network, NetworkSpec, Regularizer, build_network
from bsumnet.gradients import block_gradient


def scalar_forward(net, X):
    """Per-sample, per-entry forward pass. Returns (pre, post) lists where
    pre[j-1][n] and post[j][n] are plain Python lists for sample n."""
    n_samples = X.shape[1]
    pre = [[None] * n_samples for _ in range(net.depth)]
    post = [[None] * n_samples for _ in range(net.depth + 1)]
    for n in range(n_samples):
        z = [float(X[i, n]) for i in range(X.shape[0])]
        post[0][n] = z
        for j in range(1, net.depth + 1):
            w = net.weights[j - 1]
            u = []
            for r in range(w.shape[0]):
                acc = 0.0
                for c in range(w.shape[1]):
                    acc += float(w[r, c]) * z[c]
                u.append(acc)
            act = net.spec.activations[j - 1]
            znew = [float(act.value(np.array([[v]]))[0, 0]) for v in u]
            pre[j - 1][n] = u
            post[j][n] = znew
            z = znew
    return pre, post


def scalar_output(net, X):
    """Network output via the scalar-loop oracle, as a (dJ, N) array."""
    _, post = scalar_forward(net, X)
    n_samples = X.shape[1]
    d_out = net.spec.dims[-1]
    out = np.zeros((d_out, n_samples))
    for n in range(n_samples):
        for i in range(d_out):
            out[i, n] = post[-1][n][i]
    return out


def scalar_deltas(net, X, Y, loss):
    """Per-sample backward recursion with explicit loops.

    Columns of the returned matrices are the per-sample error vectors built
    from the columns of the total-loss gradient, so they are directly
    comparable with the matrix recursion.
    """
    pre, post = scalar_forward(net, X)
    n_samples = X.shape[1]
    h = scalar_output(net, X)
    grad_h = loss.grad_H(h, Y)
    deltas = [np.zeros((net.spec.dims[j + 1], n_samples))
              for j in range(net.depth)]
    for n in range(n_samples):
        act = net.spec.activations[net.depth - 1]
        u_last = pre[net.depth - 1][n]
        d = [float(grad_h[i, n]) * float(act.derivative(np.array([[u_last[i]]]))[0, 0])
             for i in range(len(u_last))]
        for i, v in enumerate(d):
            deltas[net.depth - 1][i, n] = v
        for j in range(net.depth - 1, 0, -1):
            w_next = net.weights[j]
            act = net.spec.activations[j - 1]
            u = pre[j - 1][n]
            d_prev = []
            for c in range(w_next.shape[1]):
                acc = 0.0
                for r in range(w_next.shape[0]):
                    acc += float(w_next[r, c]) * d[r]
                sig = float(act.derivative(np.array([[u[c]]]))[0, 0])
                d_prev.append(acc * sig)
            for i, v in enumerate(d_prev):
                deltas[j - 1][i, n] = v
            d = d_prev
    return deltas


def scalar_block_gradient(net, X, Y, loss, j, reg=None):
    """Sum of per-sample outer products delta_j^n z_{j-1}^n', plus the
    regularizer gradient when given."""
    deltas = scalar_deltas(net, X, Y, loss)
    _, post = scalar_forward(net, X)
    w = net.weights[j - 1]
    grad = np.zeros_like(w)
    for n in range(X.shape[1]):
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                grad[r, c] += deltas[j - 1][r, n] * post[j - 1][n][c]
    if reg is not None and reg.name == "l2":
        grad += 2.0 * reg.lam * w
    return grad


def labels_for(loss, d_out, n, rng):
    """Targets drawn from the loss's valid label domain."""
    name = loss.name
    if name == "cross_entropy":
        return (rng.random((d_out, n)) < 0.5).astype(float)
    if name in ("squared_hinge", "logistic"):
        return np.where(rng.random((d_out, n)) < 0.5, -1.0, 1.0)
    return rng.standard_normal((d_out, n))


def make_problem(dims, activation, loss, lam=1e-3, seed=0, n=12,
                 feasible=None, reg=None, init_scale=None):
    """Random network + domain-valid dataset for a given loss/activation."""
    rng = np.random.default_rng(seed)
    regularizer = reg if reg is not None else Regularizer.l2(lam)
    spec = NetworkSpec.homogeneous(dims, activation, regularizer=regularizer,
                                   feasible=feasible)
    net = build_network(spec, "uniform", seed=seed + 1, scale=init_scale)
    X = rng.standard_normal((dims[0], n))
    Y = labels_for(loss, dims[-1], n, rng)
    return net, Dataset(X, Y)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def ridge_oracle(X, Y, lam):
    """Textbook single-layer ridge solution Y X' (X X' + N lam I)^{-1}."""
    n = X.shape[1]
    return Y @ X.T @ np.linalg.inv(X @ X.T + n * lam * np.eye(X.shape[0]))


def kron_block_oracle(net, data, j, lam):
    """Normal-equation route to the linear-network block minimizer.

    Independent of the library's eigendecomposition solve: in row-major
    vec(W) the block objective (1/N)||Y - A W B||^2 + lam ||W||^2 has the
    dense coefficient kron(A'A, BB')/N + lam I, solved directly.
    """
    d_out = net.spec.dims[-1]
    a = np.eye(d_out)
    for w in net.weights[j:][::-1]:
        a = a @ w
    b = data.X
    for w in net.weights[:j - 1]:
        b = w @ b
    n = data.n_samples
    ata = a.T @ a
    bbt = b @ b.T
    coeff = np.kron(ata, bbt) / n + lam * np.eye(ata.shape[0] * bbt.shape[0])
    rhs = (a.T @ data.Y @ b.T).reshape(-1) / n
    return np.linalg.solve(coeff, rhs).reshape(net.spec.layer_shape(j))


def with_block(net, j, w):
    """Copy of ``net`` with layer j (1-based) replaced by ``w``."""
    weights = [x.copy() for x in net.weights]
    weights[j - 1] = np.array(w, dtype=float)
    return Network(net.spec, weights)


def fd_block_hessian(net, data, loss, j, h=1e-5):
    """Block-j Hessian in row-major vec(W_j) from central differences of the
    analytic block gradient, symmetrized as (H + H^T)/2."""
    w = net.weights[j - 1]
    n = w.size
    hess = np.zeros((n, n))
    probe = w.copy()
    flat = probe.reshape(-1)
    for a in range(n):
        orig = flat[a]
        flat[a] = orig + h
        g_plus = block_gradient(with_block(net, j, probe), data, loss, j).reshape(-1)
        flat[a] = orig - h
        g_minus = block_gradient(with_block(net, j, probe), data, loss, j).reshape(-1)
        flat[a] = orig
        hess[:, a] = (g_plus - g_minus) / (2.0 * h)
    return (hess + hess.T) / 2.0


def dense_block_hessian(net, data, loss, j):
    """Block-j Hessian in row-major vec(W_j) from the per-sample recursion of
    the curvature G_i of f in column n of U_i,

        G_J = S_J C_n S_J + diag(b_J),   G_i = S_i W_{i+1}' G_{i+1} W_{i+1} S_i + diag(b_i),

    with S_i = diag(sigma'_i) and b_i = df/dZ_i (.) sigma''_i at column n and
    C_n the loss's curvature there, then H = sum_n G_j (x) z_n z_n' + kappa g g'
    + mu I, g the data-term block gradient. The forward and backward passes
    are written here with einsum; of the library it uses only the
    activations' and the loss's own derivatives."""
    acts = net.spec.activations
    pre, post = [], [data.X]
    for w, act in zip(net.weights, acts):
        pre.append(w @ post[-1])
        post.append(act.value(pre[-1]))
    top = net.depth - 1
    slope = acts[top].derivative(pre[top])
    dz = loss.grad_H(post[-1], data.Y)  # df/dZ_J
    curv, kappa = loss.curvature_H(post[-1], data.Y)
    g = np.einsum("an,abn,bn->abn", slope, curv, slope)
    for i in range(top, j - 2, -1):  # layer i + 1 (0-based i), from J down to j
        if i < top:
            w = net.weights[i + 1]
            slope = acts[i].derivative(pre[i])
            dz = np.einsum("ba,bn->an", w, delta)
            g = np.einsum("an,ba,bcn,cd,dn->adn", slope, w, g, w, slope)
        g += np.einsum("an,ab->abn", dz * acts[i].second_derivative(pre[i]), np.eye(len(dz)))
        delta = dz * slope  # D_{i+1}
    z = post[j - 1]
    d_j, d_prev = g.shape[0], z.shape[0]
    hess = np.einsum("srn,cn,en->scre", g, z, z).reshape(d_j * d_prev, d_j * d_prev)
    if kappa:
        grad = np.einsum("sn,cn->sc", delta, z).reshape(-1)
        hess += kappa * np.outer(grad, grad)
    hess[np.diag_indices_from(hess)] += net.spec.regularizers[j - 1].strong_convexity
    return hess


def brute_force_prox_scalar(a, tau, lo=-50.0, hi=50.0):
    """1-D prox of tau*|x| at a: ternary search on the convex objective in
    exact rational arithmetic, so comparisons never suffer float cancellation
    and the minimizer is located far below the 1e-8 comparison tolerance."""
    from fractions import Fraction

    a = Fraction(a)
    tau = Fraction(tau)

    def obj(x):
        return (x - a) * (x - a) / 2 + tau * abs(x)

    left, right = Fraction(lo), Fraction(hi)
    for _ in range(160):
        third = (right - left) / 3
        m1 = left + third
        m2 = right - third
        if obj(m1) <= obj(m2):
            right = m2
        else:
            left = m1
    return float((left + right) / 2)
