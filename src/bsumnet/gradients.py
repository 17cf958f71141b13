"""The forward/backward engine: one cached pass per (network, data, loss).

``NetworkPass`` keeps the forward stages Z_0 = X, U_j = W_j Z_{j-1},
Z_j = sigma_j(U_j) and the error matrices of the backward recursion

    D_J = dL/dH (.) sigma'_J(U_J),   D_j = (W_{j+1}^T D_{j+1}) (.) sigma'_j(U_j),

with (.) the Hadamard product; the block-j gradient is D_j Z_{j-1}^T plus the
regularizer gradient. ``set_block(j, W)`` keeps Z_0..Z_{j-1}, and the next
query recomputes only layers j..J. Deltas are rebuilt lazily, from D_J down
to the block asked for, and a block gradient with its smooth regularizer is
kept until the next update, as is each block's penalty in f. The trainer
hands the pass the block it has just built, which the pass keeps without a
copy; ``set_block`` keeps a copy of the caller's array. Logistic and tanh
derivatives come from the cached Z_j, and a probe f(W_j = V) starts from
Z_{j-1} without copying the network and reuses the other blocks' penalties.
Blocks are told apart by their bitwise content (shape, dtype, bytes; not
identity, as finite differences mutate one array in place), whose key the
pass keeps per block. ``set_block(j, W)`` at the current content changes
nothing, as the stages, deltas, gradients, f and probe memo are functions
of those bits: an update that leaves its block as it was costs no forward
or backward pass. The last probe is memoized: a probe at the current W_j
is the pass itself, a repeat is the memo, and ``set_block(j, V)`` at the
memo's content adopts its stages, deltas, gradients and penalty. The
module functions are views of a fresh pass for callers that hold a plain
network. Vec orderings here and in the Newton solve are row-major vec(W_j).

Every layer acts on each sample's column separately, so the block Hessian is

    d^2 f / d vec(W_j)^2 = sum_n M_n (x) z_n z_n^T + kappa g g^T + mu I,

with z_n column n of Z_{j-1}, M_n the d_j x d_j curvature of f in column n
of U_j, g the data-term block gradient, kappa the loss's coupling of the
samples (1/L for the exponential loss, 0 for the others) and mu the
regularizer's strong-convexity modulus (2 lam for L2). One R-pass
(Pearlmutter, 1994) from the unit directions RZ_j = e_r 1^T for all r at
once gives M~_n = W_{j+1}^T Q_n, with Q = R{D_{j+1}} (at j = J, W = I and Q_n
the loss's curvature in column n of H), and

    M_n[s,r] = sigma'_j[s] sigma'_j[r] M~_n[s,r] + [s = r] b_j[s],

with b_j = df/dZ_j (.) sigma''_j layer j's bend. The sum is one GEMM over
unordered pairs, (d_j(d_j+1)/2, N) @ (N, d_{j-1}(d_{j-1}+1)/2), of rows
M_n[s,r], s <= r, and z_n[c] z_n[e], c <= e, gathered into vec(W_j) order:
H is bitwise symmetric, as entries (s,c),(r,e) and (r,e),(s,c) gather the
same product entry.

A Toeplitz block W_j = v[index] has K = d_j + d_{j-1} - 1 unknowns, its
diagonal values. With P the 0/1 map from v to vec(W_j), column n of U_j is
Y_n v, Y_n[s, p] = z_n[s + p - d_j + 1] (zero outside), and without H

    P'HP = sum_n (W_{j+1} S_n Y_n)'(Q_n S_n Y_n) + sum_s window_s(Z diag(b_s) Z')
           + kappa (P'g)(P'g)' + mu diag(P'P),

with S_n = diag(sigma'_j) at column n and window_s placing its matrix at
offset d_j - 1 - s on the diagonal: O(d_{j+1} d_j K N + d_{j+1} K^2 N +
d_j d_{j-1}^2 N) work, against O((d_j d_{j-1})^2 N) for H. The stage tensors
and gathers go to a scratch the pass owns, flat buffers kept by role and
grown on demand.

The contractions W^T X of the deltas and the R-pass go through
``_wt_matmul``, a broadcast product through a one-row W (d_J = 1). A fresh
2-D product is ``ndarray.dot`` (``np.dot`` without its dispatch): the GEMM
of ``np.matmul``, with its bits at the benchmark's shapes (a test checks).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonSmoothError, ShapeError, SizeError, SpecError
from .netcore import Dataset, LayerOutputs, Network, Toeplitz, forward

__all__ = [
    "NetworkPass", "BatchSampler", "BatchStream",
    "delta_recursion", "block_gradient", "all_block_gradients",
    "objective_value", "block_objective_fn",
    "fd_gradient", "block_hessian",
]

_HESSIAN_SIZE_LIMIT = 10_000


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class NetworkPass:
    """Cached forward and backward state of one (network, data, loss).

    The pass owns its weight list; the arrays in it are shared with the
    network it was built from and are never written to. ``outs`` may hand in
    a forward pass already run on the same network and inputs. Targets
    outside the loss's label set are a DomainError here.
    """

    def __init__(self, net: Network, data: Dataset, loss,
                 outs: LayerOutputs | None = None):
        if data.Y.shape[0] != net.spec.dims[-1]:
            raise ShapeError(f"Y has {data.Y.shape[0]} rows, the output layer "
                             f"has d_J = {net.spec.dims[-1]}")
        loss.check_labels(data.Y)
        self._start(Network(net.spec, list(net.weights)), data, loss, outs)

    def _start(self, net, data, loss, outs, keys=None, pens=None) -> None:
        """The pass's state from inputs whose shapes and targets are checked;
        ``net`` is the pass's own, and ``keys`` and ``pens`` its blocks'
        content keys and penalties, when known."""
        self.net = net
        self.data = data
        self.loss = loss
        if outs is None:
            outs = forward(self.net, data.X)
        self._outs = LayerOutputs(list(outs.pre_activations),
                                  list(outs.post_activations))
        self.depth = net.depth
        self._stale = self.depth + 1  # U_j, Z_j need recomputing for j >= _stale
        self._deltas = [None] * self.depth
        self._grads = [None] * self.depth
        self._f = None
        self._pens = list(pens) if pens is not None else [None] * self.depth
        self._memo = None  # (j, content of W_j, pass) of the last probe
        self._keys = list(keys) if keys is not None else [_content(w) for w in net.weights]
        self._scratch = {}  # role -> flat float64 buffer, see _buf

    def set_block(self, j: int, w: np.ndarray) -> None:
        """Replace W_j by a copy of ``w`` (a ShapeError unless it has the
        spec's shape). Content bitwise equal to the current W_j's changes
        nothing; otherwise the stages from layer j on refresh at the next
        query, unless the last probe was at this content and already holds
        them."""
        self._install(j, np.array(w, dtype=float))

    def _install(self, j: int, w: np.ndarray) -> None:
        # set_block on a float array handed over: the pass keeps it, so no
        # one else may hold it, write to it or alias a stage of the pass
        key = _content(w)
        if key != self._keys[j - 1]:
            self._replace(j, w, key)

    def _replace(self, j: int, w: np.ndarray, key: tuple) -> None:
        # every new W_j enters here, an array the pass keeps; one keyed as the
        # current W_j has its shape
        if w.shape != self.net.weights[j - 1].shape:
            raise ShapeError(f"W_{j} has shape {w.shape}, spec wants "
                             f"{self.net.spec.layer_shape(j)}")
        memo, self._memo = self._memo, None
        self._keys[j - 1] = key
        if memo is not None and memo[:2] == (j, key):
            probe = memo[2]
            self.net.weights[j - 1] = probe.net.weights[j - 1]
            self._outs, self._stale = probe._outs, probe._stale
            self._deltas, self._grads, self._f = probe._deltas, probe._grads, probe._f
            self._pens = list(probe._pens)
            return
        self.net.weights[j - 1] = w
        self._stale = min(self._stale, j)
        self._deltas = [None] * self.depth
        self._grads = [None] * self.depth
        self._f = None
        self._pens[j - 1] = None

    def probe(self, j: int, w: np.ndarray) -> "NetworkPass":
        """The pass at W_j = w: this one when w is the current W_j, else the
        memoized last probe, or a new one sharing this pass's Z_0..Z_{j-1}."""
        w = np.asarray(w, dtype=float)
        key = _content(w)
        if key == self._keys[j - 1]:
            return self
        if self._memo is None or self._memo[:2] != (j, key):
            other = self._on(self.data, self.outs)
            other._replace(j, w.copy(), key)
            self._memo = (j, key, other)
        return self._memo[2]

    def _on(self, data: Dataset, outs: LayerOutputs | None = None) -> "NetworkPass":
        """This network and loss on ``data``, targets this pass checked."""
        # the checked spec and weights, without Network's shape checks again
        net = object.__new__(Network)
        net.__dict__.update(spec=self.net.spec, weights=list(self.net.weights))
        other = object.__new__(NetworkPass)
        other._start(net, data, self.loss, outs, self._keys, self._pens)
        return other

    @property
    def outs(self) -> LayerOutputs:
        if self._stale <= self.depth:
            self._outs.refresh(self.net, self._stale)
            self._stale = self.depth + 1
        return self._outs

    def objective(self) -> float:
        """Full regularized objective at the current weights, the loss plus
        each block's penalty in block order; a block's penalty is kept until
        the block changes."""
        if self._f is None:
            pens = self._pens
            val = self.loss.value(self.outs.output, self.data.Y)
            for i, reg in enumerate(self.net.spec.regularizers):
                if pens[i] is None:
                    pens[i] = reg.value(self.net.weights[i])
                val += pens[i]
            self._f = val
        return self._f

    def deltas(self, j: int = 1) -> list:
        """Error matrices D_J down to D_j (deltas[i-1] is D_i); those below j
        stay None until asked for."""
        outs, deltas, net = self.outs, self._deltas, self.net
        pre, post = outs.pre_activations, outs.post_activations
        weights, acts = net.weights, net.spec.activations
        if deltas[-1] is None:
            # sigma' multiplies into the fresh dL/dH and W^T D in place
            top = self.loss.grad_H(outs.output, self.data.Y)
            top *= acts[-1].derivative(pre[-1], post[-1])
            deltas[-1] = top
        for i in range(self.depth - 1, j - 1, -1):
            if deltas[i - 1] is None:
                back = _wt_matmul(weights[i], deltas[i])
                back *= acts[i - 1].derivative(pre[i - 1], post[i])
                deltas[i - 1] = back
        return deltas

    def grad(self, j: int, include_reg: bool = True) -> np.ndarray:
        """Gradient for block j: the data term D_j Z_{j-1}^T, plus the
        regularizer gradient when it is smooth (an L1 penalty is left to the
        prox step); that sum is cached, and callers must not write to it."""
        grads = self._grads
        if include_reg and grads[j - 1] is not None:
            return grads[j - 1]
        d_j = self.deltas(j)[j - 1]  # after the stages' refresh
        g = d_j.dot(self._outs.post_activations[j - 1].T)
        net = self.net
        reg = net.spec.regularizers[j - 1]
        if include_reg and reg.smooth:
            g += reg.grad(net.weights[j - 1])
            grads[j - 1] = g
        return g

    def grads(self, include_reg: bool = True) -> list:
        return [self.grad(j, include_reg) for j in range(1, self.depth + 1)]

    def hessian(self, j: int) -> np.ndarray:
        """Exact Hessian of f in row-major vec(W_j), from the cached stages
        (formula in the module docstring); bitwise symmetric and the caller's to keep."""
        z = self.outs.post_activations[j - 1]
        w, q, slope, bend, kappa = self._curvature(j)
        d_j, n = slope.shape
        m = q if w is None else _wt_matmul(w, q.reshape(len(q), -1),
                                           self._buf(("rd", j % 2), d_j, d_j * n))
        rows, row_s, row_r, cols, cols_t, gather = _pair_layout(d_j, len(z))
        # H[(s,c),(r,e)] = sum_n M_n[s,r] z_n[c] z_n[e], M_n[s,r] from s <= r,
        # the d_j rows s = r first
        pairs = self._take(("rd", (j + 1) % 2), m.reshape(d_j * d_j, n), rows)
        scale = self._take("zz", slope, row_s)
        scale *= self._take(("rd", j % 2), slope, row_r)  # M's buffer, free once taken
        pairs *= scale
        pairs[:len(bend)] += bend
        zz = self._take("zz", z, cols)
        zz *= self._take(("rd", j % 2), z, cols_t)
        prod = np.matmul(pairs, zz.T, out=self._buf(("rd", j % 2), len(rows), len(cols)))
        hess = np.take(prod, gather, out=np.empty(gather.shape), mode="clip")
        if kappa:
            g = self.grad(j, include_reg=False).reshape(-1)
            hess += kappa * np.outer(g, g)
        hess.reshape(-1)[::len(hess) + 1] += self.net.spec.regularizers[j - 1].strong_convexity
        return hess

    def kernel_hessian(self, j: int) -> np.ndarray:
        """Hessian of f in the diagonal values of W_j (``Toeplitz.kernel_index``),
        P'HP in the module docstring; symmetric to rounding and the caller's."""
        z = self.outs.post_activations[j - 1]
        w, q, slope, bend, kappa = self._curvature(j)
        (d_j, n), d_prev = slope.shape, len(z)
        k = d_j + d_prev - 1
        # Y[n] = Y_n, windows of a zero-padded Z^T
        pad = self._buf("pad", n, k + d_j - 1)
        pad.fill(0.0)
        pad[:, d_j - 1:d_j - 1 + d_prev] = z.T
        y = self._buf("y", n, d_j, k)
        step = pad.strides[1]
        np.copyto(y, np.lib.stride_tricks.as_strided(pad, y.shape, (pad.strides[0], step, step)))
        # W S_n and Q_n S_n side by side (W = I at j = J), times Y_n
        d_next = len(q)
        factors = self._buf("factors", n, 2, d_next, d_j)
        np.multiply(np.eye(d_j) if w is None else w, slope.T[:, None, :], out=factors[:, 0])
        np.multiply(q.transpose(2, 0, 1), slope.T[:, None, :], out=factors[:, 1])
        ab = np.matmul(factors.reshape(n, 2 * d_next, d_j), y,
                       out=self._buf("ab", n, 2 * d_next, k)).reshape(n, 2, d_next, k)
        hess = ab[:, 0].reshape(-1, k).T @ ab[:, 1].reshape(-1, k)
        # the bend's windows from pairs c <= e; the pairs c = e count half, as
        # adding the transpose doubles them (both exact)
        c, e, bins = _window_layout(d_j, d_prev)
        zz = self._take("zz", z, c)
        zz *= self._take("y", z, e)  # Y's buffer, free once used
        windows = zz @ bend.T
        windows[:d_prev] *= 0.5
        upper = np.bincount(bins, weights=windows.ravel(), minlength=k * k).reshape(k, k)
        hess += upper
        hess += upper.T
        index = Toeplitz().kernel_index(self.net.weights[j - 1].shape)
        if kappa:
            g = np.bincount(index, weights=self.grad(j, include_reg=False).reshape(-1))
            hess += kappa * np.outer(g, g)
        hess.reshape(-1)[::k + 1] += self.net.spec.regularizers[j - 1].strong_convexity \
            * np.bincount(index)
        return hess

    def _curvature(self, j: int) -> tuple:
        """Per-sample curvature of the data term in U_j, as (W, Q, slope,
        bend, kappa): d^2 f / dU_j[s, n] dU_j[r, n] without the loss's sample
        coupling is slope[s, n] slope[r, n] M~_n[s, r] + [s = r] bend[s, n],
        with M~_n = W' Q[:, :, n], slope = sigma'_j and bend = df/dZ_j (.)
        sigma''_j, and kappa is that coupling's weight (``curvature_H``).
        W is W_{j+1} and Q of shape (d_{j+1}, d_j, N) is R{D_{j+1}}, on the
        scratch until the next query; at j = J, W is None (the identity) and
        Q the loss's curvature in H.

        The R-pass runs from the unit directions RZ_j = e_r 1^T, carried at
        once, so its stage tensors have shape (d_i, d_j, N); the scratch keeps
        RU_i as role ("ru", i) and R{D_i} as ("rd", i % 2). RU_{j+1} = W_{j+1}
        is constant in n and never stored: RU_{j+2} is one GEMM through
        W_{j+2} diag(sigma'_{j+1}) W_{j+1}, and layer j+1's bend term
        W_{j+1} (.) b_{j+1} takes RU_{j+1}'s buffer. The backward sweep starts
        at R{D_J} = G_n RU_J, with G_n the curvature of f in column n of U_J.
        """
        outs, deltas = self.outs, self.deltas(j)
        pre, post = outs.pre_activations, outs.post_activations
        acts, weights, depth = self.net.spec.activations, self.net.weights, self.depth
        d_j, n = pre[j - 1].shape
        slopes = [acts[i - 1].derivative(pre[i - 1], post[i]) for i in range(j, depth + 1)]
        curv, kappa = self.loss.curvature_H(outs.output, self.data.Y)
        back = self.loss.grad_H(outs.output, self.data.Y)  # df/dZ_i
        bend = back * acts[-1].second_derivative(pre[-1], post[-1])
        if j == depth:
            return None, curv, slopes[0], bend, kappa
        ru = [weights[j][:, :, None]]  # RU_i for i = j+1..J
        for i in range(j + 2, depth + 1):
            out = self._buf(("ru", i), len(pre[i - 1]), d_j, n)
            if i == j + 2:  # through[b, r, a] = W_{j+2}[b, a] W_{j+1}[a, r]
                through = weights[j + 1][:, None, :] * weights[j].T
                np.matmul(through.reshape(-1, len(weights[j])), slopes[1], out=out.reshape(-1, n))
            else:
                rz = np.multiply(slopes[i - 1 - j][:, None, :], ru[-1],
                                 out=self._buf(("rd", (depth + 1) % 2), *ru[-1].shape))
                np.matmul(weights[i - 1], rz.reshape(len(rz), -1), out=out.reshape(len(out), -1))
            ru.append(out)
        g = curv * slopes[-1] * slopes[-1][:, None, :]  # G_n, column n's curvature in U_J
        g.reshape(-1, n)[::len(g) + 1] += bend
        rd = self._buf(("rd", depth % 2), len(g), d_j, n)
        # R{D_J}[a] = sum_b G_n[a, b] RU_J[b], a single product at d_J = 1
        np.multiply(g[:, :1], ru[-1][:1], out=rd)
        for b in range(1, len(g)):
            rd += g[:, b:b + 1] * ru[-1][b:b + 1]
        for i in range(depth, j + 1, -1):
            # R{D_{i-1}} = sigma'_{i-1} (.) W_i^T R{D_i} + b_{i-1} (.) RU_{i-1}
            out = self._buf(("rd", (i - 1) % 2), len(pre[i - 2]), d_j * n)
            rd = _wt_matmul(weights[i - 1], rd.reshape(len(rd), -1), out).reshape(-1, d_j, n)
            rd *= slopes[i - 1 - j][:, None, :]
            back = _wt_matmul(weights[i - 1], deltas[i - 1])
            bend = back * acts[i - 2].second_derivative(pre[i - 2], post[i - 1])
            # einsum broadcasts RU_{j+1} = W_{j+1} about twice as fast as multiply
            rd += np.einsum("arn,an->arn", ru[i - 2 - j], bend,
                            out=self._buf(("ru", i - 1), *rd.shape))
        back = _wt_matmul(weights[j], deltas[j])
        bend = back * acts[j - 1].second_derivative(pre[j - 1], post[j])
        return weights[j], rd, slopes[0], bend, kappa

    def _buf(self, role, *shape) -> np.ndarray:
        # an array of this shape on the role's scratch buffer, grown on demand
        size = math.prod(shape)
        if len(self._scratch.get(role, ())) < size:
            self._scratch[role] = np.empty(size)
        return self._scratch[role][:size].reshape(shape)

    def _take(self, role, a: np.ndarray, index: np.ndarray) -> np.ndarray:
        out = self._buf(role, len(index), a.shape[1])
        return np.take(a, index, axis=0, out=out, mode="clip")  # "raise" buffers first


def _wt_matmul(w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """W^T X, bitwise equal to ``np.matmul(w.T, x, out=out)``. With one row
    in W and X (an output layer, d_i = 1) each entry is a single product, and
    a broadcast multiply forms them several times faster than the GEMM;
    matmul's sum starts at +0.0, so adding +0.0 gives a zero product its sign.
    Otherwise it is ``ndarray.dot``, or ``np.matmul`` into ``out``."""
    if len(w) != 1 or len(x) != 1:
        return w.T.dot(x) if out is None else np.matmul(w.T, x, out=out)
    out = np.multiply(w.T, x, out=out)
    out += 0.0
    return out


@functools.lru_cache(maxsize=4)
def _pair_layout(d_j: int, d_prev: int) -> tuple:
    """Flat indices of entries (s,r), s <= r, of M_n, the d_j with s = r
    first, and their s and r; rows c and e of pairs c <= e; and the flat
    index of H in their product; cached for four shapes."""
    rows = tuple(np.concatenate((np.arange(d_j), side)) for side in np.triu_indices(d_j, 1))
    cols = np.triu_indices(d_prev)
    row_pair, col_pair = np.empty((d_j, d_j), np.intp), np.empty((d_prev, d_prev), np.intp)
    row_pair[rows] = row_pair[rows[::-1]] = np.arange(len(rows[0]))
    col_pair[cols] = col_pair[cols[::-1]] = np.arange(len(cols[0]))
    gather = row_pair[:, None, :, None] * len(cols[0]) + col_pair[None, :, None, :]
    return (rows[0] * d_j + rows[1], *rows, *cols, gather.reshape(d_j * d_prev, d_j * d_prev))


@functools.lru_cache(maxsize=4)
def _window_layout(d_j: int, d_prev: int) -> tuple:
    """Rows c and e of pairs c <= e, those with c = e first, and the flat
    index of (c + o, e + o), o = d_j - 1 - s, in the K x K kernel Hessian,
    in (pair, s) order; cached for four shapes."""
    c, e = (np.concatenate((np.arange(d_prev), side)) for side in np.triu_indices(d_prev, 1))
    offset = np.arange(d_j - 1, -1, -1)
    k = d_j + d_prev - 1
    return c, e, ((c[:, None] + offset) * k + e[:, None] + offset).ravel()


def _content(w: np.ndarray) -> tuple:
    return w.shape, w.dtype, w.tobytes()


def _check_layer(net: Network, j: int) -> None:
    if not 1 <= j <= net.depth:
        raise SpecError(f"layer index {j} outside 1..{net.depth}")


def _require_smooth(net: Network, j: int) -> None:
    if not net.spec.regularizers[j - 1].smooth:
        raise NonSmoothError(
            f"layer {j} has an L1 regularizer; request the data term only")


# ---------------------------------------------------------------------------
# views for callers holding a plain network
# ---------------------------------------------------------------------------

def delta_recursion(net: Network, outs: LayerOutputs, loss, Y: np.ndarray) -> list:
    """Per-layer error matrices; deltas[j-1] has shape (d_j, N)."""
    data = Dataset(outs.post_activations[0], Y)
    return list(NetworkPass(net, data, loss, outs).deltas())


def block_gradient(net: Network, data: Dataset, loss, j: int,
                   include_reg: bool = True) -> np.ndarray:
    """Gradient of the regularized objective with respect to W_j (1-based j).

    With ``include_reg=False`` only the data term is returned, which is what
    the non-smooth L1 prox path consumes. Requesting the combined gradient
    with an L1 regularizer on layer j raises NonSmoothError.
    """
    _check_layer(net, j)
    if include_reg:
        _require_smooth(net, j)
    return NetworkPass(net, data, loss).grad(j, include_reg)


def all_block_gradients(net: Network, data: Dataset, loss,
                        outs: LayerOutputs | None = None,
                        include_reg: bool = True) -> list:
    """Gradients for every block from a single backward pass.

    Smooth-regularizer layers get the combined gradient; L1 layers get the
    data term only (their regularizer is handled by the prox step).
    """
    return NetworkPass(net, data, loss, outs).grads(include_reg)


def objective_value(net: Network, data: Dataset, loss,
                    outs: LayerOutputs | None = None) -> float:
    """Full regularized objective: data loss plus every layer's penalty,
    from ``outs`` when a forward pass on these inputs is at hand."""
    return NetworkPass(net, data, loss, outs).objective()


def block_objective_fn(net: Network, data: Dataset, loss, j: int,
                       cache: NetworkPass | None = None):
    """Value and gradient callables of the objective as a function of block j.

    Both close over the frozen remaining blocks and start from Z_{j-1}; the
    value includes every regularizer (a constant shift for blocks other than
    j, so minimizers and majorization tests are unaffected). ``cache`` is a
    pass already built on this (net, data, loss) whose stages are reused.
    """
    _check_layer(net, j)
    base = cache if cache is not None else NetworkPass(net, data, loss)

    def value(w):
        return base.probe(j, w).objective()

    def grad(w):
        _require_smooth(net, j)
        return base.probe(j, w).grad(j)

    return value, grad


# ---------------------------------------------------------------------------
# finite differences and the exact block Hessian
# ---------------------------------------------------------------------------

def fd_gradient(objective, W: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar function of W."""
    if not h > 0:
        raise SpecError("finite-difference step must be positive")
    W = np.asarray(W, dtype=float)
    grad = np.zeros_like(W)
    probe = W.copy()
    for idx in np.ndindex(W.shape):
        orig = probe[idx]
        probe[idx] = orig + h
        f_plus = objective(probe)
        probe[idx] = orig - h
        f_minus = objective(probe)
        probe[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def block_hessian(net: Network, data: Dataset, loss, j: int,
                  cache: NetworkPass | None = None) -> np.ndarray:
    """Exact dense Hessian of the objective in block j (``NetworkPass.hessian``).

    Rows and columns are indexed by row-major vec(W_j); the result is
    bitwise symmetric. ``cache`` is a pass already built on this
    (net, data, loss). Desk-scale only.
    """
    _check_layer(net, j)
    if not net.spec.regularizers[j - 1].smooth:
        raise NonSmoothError("block Hessian needs a smooth regularizer")
    n = net.weights[j - 1].size
    if n > _HESSIAN_SIZE_LIMIT:
        raise SizeError(f"block has {n} parameters, over the {_HESSIAN_SIZE_LIMIT} budget")
    base = cache if cache is not None else NetworkPass(net, data, loss)
    return base.hessian(j)


# ---------------------------------------------------------------------------
# mini-batch sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchSampler:
    """How sample indices are drawn each iteration.

    Modes: "full" (all samples), "fixed" (batches of batch_size without
    replacement, reshuffling each epoch), "increasing" (batch k has
    min(k, N) samples).
    """

    mode: str = "full"
    batch_size: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("full", "fixed", "increasing"):
            raise SpecError(f"unknown sampler mode {self.mode!r}")
        if self.mode == "fixed" and self.batch_size < 1:
            raise SpecError("fixed sampler needs batch_size >= 1")
        if self.seed < 0:
            raise SpecError(f"sampler seed must be >= 0, got {self.seed}")

    def check_size(self, n_samples: int) -> None:
        """A fixed batch larger than the dataset is a SpecError."""
        if self.mode == "fixed" and self.batch_size > n_samples:
            raise SpecError(f"batch_size {self.batch_size} exceeds N={n_samples}")


class BatchStream:
    """Deterministic index stream: seeded per-epoch shuffles, chunked batches.

    A batch never spans a reshuffle (the remainder of an exhausted epoch is
    dropped), so samples within one batch are always distinct.
    """

    def __init__(self, sampler: BatchSampler, n_samples: int):
        sampler.check_size(n_samples)
        self.sampler = sampler
        self.n = n_samples
        self._rng = np.random.default_rng(sampler.seed)
        self._perm = None
        self._pos = 0

    def _take(self, size: int) -> np.ndarray:
        if self._perm is None or self._pos + size > self.n:
            self._perm = self._rng.permutation(self.n)
            self._pos = 0
        out = self._perm[self._pos:self._pos + size]
        self._pos += size
        return out

    def next(self, k: int) -> np.ndarray:
        """Indices for iteration k (1-based)."""
        if self.sampler.mode == "full":
            return np.arange(self.n)
        if self.sampler.mode == "fixed":
            return self._take(self.sampler.batch_size)
        return self._take(min(k, self.n))
