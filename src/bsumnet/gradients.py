"""The forward/backward engine: one cached pass per (network, data, loss).

``NetworkPass`` keeps the forward stages Z_0 = X, U_j = W_j Z_{j-1},
Z_j = sigma_j(U_j) and the error matrices of the backward recursion

    D_J = dL/dH (.) sigma'_J(U_J),   D_j = (W_{j+1}^T D_{j+1}) (.) sigma'_j(U_j),

with (.) the Hadamard product; the block-j gradient is D_j Z_{j-1}^T plus the
regularizer gradient. An update of W_j keeps Z_0..Z_{j-1}, and the next query
recomputes layers j..J; deltas are rebuilt lazily from D_J down; gradients,
f (with ||Y - H||^2 under the L2 loss) and penalties are kept until their
block changes. A block is keyed by its bytes (not identity: finite
differences mutate one array), so an update to its content costs nothing;
the pass's own W_j, which no one writes, needs no key. A probe f(W_j = V)
is a fork with its own block lists, caches and Z_0..Z_{j-1}, no checks and
no forward until asked, memoized by V's key; an update to that content, or
to the array probed, adopts it. The trainer's blocks are kept uncopied;
``set_block`` copies. The module functions are views of a fresh pass.
Vectors here and in the Newton solve are row-major vec(W_j).

Every layer acts on each sample's column separately, so the block Hessian is

    d^2 f / d vec(W_j)^2 = sum_n M_n (x) z_n z_n^T + kappa g g^T + mu I,

with z_n column n of Z_{j-1}, M_n the d_j x d_j curvature of f in column n
of U_j, g the data-term block gradient, kappa the loss's coupling of the
samples (1/L for the exponential loss, 0 for the others) and mu the
regularizer's strong-convexity modulus (2 lam for L2). Unrolling the
recursion M = S W' M W S + diag(b) over the layers above j gives

    M_n = S_j M~_n S_j + diag(b_j),  M~_n = sum_{j<i<J} R_i' diag(b_i) R_i + R_J' G_n R_J,

with S_i = diag(sigma'_i), b_i = df/dZ_i (.) sigma''_i layer i's bend,
R_i = dU_i/dZ_j the forward R-pass (Pearlmutter, 1994) and G_n the
curvature in column n of U_J (M_n = G_n at j = J). Over the pairs s <= r,
layer j+1's term is one GEMM through K[p, a] = W_{j+1}[a, s] W_{j+1}[a, r],
at d_J = 1 the output term is pair products of the row R_J, and a backward
sweep adds the rest (``_curvature``). The sum over n is one GEMM over
unordered pairs, (d_j(d_j+1)/2, N) @ (N, d_{j-1}(d_{j-1}+1)/2), of rows
M_n[s,r], s <= r, and z_n[c] z_n[e], c <= e, gathered into vec(W_j) order:
H is bitwise symmetric, as entries (s,c),(r,e) and (r,e),(s,c) gather the
same product entry. At d_j = 1 it is (Z (.) m) Z', upper triangle mirrored.

A Toeplitz block W_j = v[index] has K = d_j + d_{j-1} - 1 unknowns, its
diagonal values. With P the 0/1 map from v to vec(W_j), column n of U_j is
Y_n v, Y_n[s, p] = z_n[s + p - d_j + 1] (zero outside), and without H

    P'HP = sum_n Y_n' S_j M~_n S_j Y_n + sum_s window_s(Z diag(b_s) Z')
           + kappa (P'g)(P'g)' + mu diag(P'P),

with window_s placing its matrix at offset d_j - 1 - s on the diagonal;
layer j+1's term is sum_n A_n' diag(b_{j+1}) A_n from the one factor
A_n = W_{j+1} S_j Y_n. It runs over chunks of samples, and the bend over
chunks of pairs, whose scratch stays within ``_KERNEL_SCRATCH`` doubles a
role. Stage tensors and gathers go to a scratch the pass owns, flat
buffers kept by role and grown on demand.

Broadcast products on the scratch are einsums, which take no buffer of
their own. A fresh 2-D product is ``ndarray.dot`` (``np.dot`` without its
dispatch), with ``np.matmul``'s bits at the benchmark's shapes (a test
checks); every W^T D product is ``ndarray.dot``, into the scratch with
``out=`` for the bends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NonSmoothError, ShapeError, SizeError, SpecError
from .functions import sqnorm
from .netcore import Dataset, LayerOutputs, Network, _diagonal_plan, forward

__all__ = [
    "NetworkPass", "BatchSampler", "BatchStream",
    "delta_recursion", "block_gradient", "all_block_gradients",
    "objective_value", "block_objective_fn",
    "fd_gradient", "block_hessian",
]

_HESSIAN_SIZE_LIMIT = 10_000
# doubles in each scratch role of the kernel Hessian: it runs over chunks of
# samples (and of pairs, for the bend) that fit
_KERNEL_SCRATCH = 1 << 17


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class NetworkPass:
    """Cached forward and backward state of one (network, data, loss).

    The pass owns its weight list; its arrays are shared with the network
    it was built from and must not be written while the pass is in use.
    ``outs`` may hand in a forward pass already run on the same network and
    inputs. Targets outside the loss's label set are a DomainError here.
    """

    def __init__(self, net: Network, data: Dataset, loss,
                 outs: LayerOutputs | None = None):
        if data.Y.shape[0] != net.spec.dims[-1]:
            raise ShapeError(f"Y has {data.Y.shape[0]} rows, the output layer "
                             f"has d_J = {net.spec.dims[-1]}")
        loss.check_labels(data.Y)
        self.net = Network(net.spec, list(net.weights))
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
        self._f = None  # (f, ||Y - H||^2 or None)
        self._pens = [None] * self.depth
        self._memo = None  # (j, key, pass, array probed) of the last probe
        self._keys = [w.tobytes() for w in net.weights]
        self._scratch = {}  # role -> flat float64 buffer, see _buf

    def set_block(self, j: int, w: np.ndarray) -> None:
        """Replace W_j by a copy of ``w``; a j outside 1..J is a SpecError and
        a shape not the spec's a ShapeError, both before any change. W_j's
        own content changes nothing; otherwise layers j..J refresh at the
        next query, unless the last probe was at this content and holds them."""
        w = np.array(w, dtype=float)
        _check_layer(self.net, j, w)
        self._install(j, w)

    def _install(self, j: int, w: np.ndarray) -> None:
        # a float array of W_j's shape, the pass's alone; a probed one adopts its probe
        memo = self._memo
        if memo is None or memo[0] != j or memo[3] is not w:
            key = w.tobytes()  # the content key
            if key == self._keys[j - 1]:
                return
            if memo is None or memo[0] != j or memo[1] != key:
                return self._replace(j, w, key)
        self.__dict__.update(memo[2].__dict__)  # adopt the probe's state, network too

    def _replace(self, j: int, w: np.ndarray, key: bytes) -> None:
        # every new W_j but an adopted probe's enters here, an array the pass keeps
        self.net.weights[j - 1], self._keys[j - 1], self._pens[j - 1] = w, key, None
        self._stale, self._f, self._memo = min(self._stale, j), None, None
        self._deltas, self._grads = [None] * self.depth, [None] * self.depth

    def probe(self, j: int, w: np.ndarray) -> "NetworkPass":
        """The pass at W_j = w: this one when w is the current W_j, else the
        memoized last probe, or a new one sharing this pass's Z_0..Z_{j-1}."""
        w = np.asarray(w, dtype=float)
        _check_layer(self.net, j, w)
        if w is self.net.weights[j - 1] or (key := w.tobytes()) == self._keys[j - 1]:
            return self
        memo = self._memo
        if memo is None or memo[0] != j or memo[1] != key:
            memo = self._memo = j, key, self._fork(j, w.copy(), key), w
        return memo[2]

    def _fork(self, j: int, w: np.ndarray, key: bytes) -> "NetworkPass":
        # this pass at W_j = w (kept), with its own lists and caches
        other = object.__new__(NetworkPass)
        state = other.__dict__ = self.__dict__.copy()
        state["net"] = net = object.__new__(Network)  # no shape checks
        net.spec, net.weights = self.net.spec, self.net.weights.copy()
        outs = self._outs
        state["_outs"] = LayerOutputs(outs.pre_activations[:j - 1], outs.post_activations[:j])
        state["_keys"], state["_pens"] = self._keys.copy(), self._pens.copy()
        other._replace(j, w, key)
        return other

    def _on(self, data: Dataset) -> "NetworkPass":
        """This network and loss on ``data``, targets this pass checked; it
        shares this pass's network, keys and penalties, as it takes no update."""
        depth = self.depth
        other = object.__new__(NetworkPass)
        other.__dict__.update(
            self.__dict__, data=data, _outs=forward(self.net, data.X), _stale=depth + 1,
            _deltas=[None] * depth, _grads=[None] * depth, _f=None, _memo=None, _scratch={})
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
        f = self._f
        if f is None:
            pens, weights = self._pens, self.net.weights
            val, sse = self.loss.value_and_sse(self.outs.post_activations[-1], self.data.Y)
            for i, reg in enumerate(self.net.spec.regularizers):
                if pens[i] is None:
                    pens[i] = reg.value(weights[i])
                val += pens[i]
            f = self._f = val, sse
        return f[0]

    def sse(self) -> float:
        """||Y - H||_F^2, kept with f (the L2 loss forms it for f)."""
        f, sse = self.objective(), self._f[1]
        if sse is None:
            sse = sqnorm(self.data.Y - self._outs.post_activations[-1])
            self._f = f, sse
        return sse

    def deltas(self, j: int = 1) -> list:
        """Error matrices D_J down to D_j (deltas[i-1] is D_i); those below j
        stay None until asked for."""
        if not 0 < j <= self.depth:  # before the cache, which j <= 0 would index
            _check_layer(self.net, j)
        deltas = self._deltas
        if deltas[j - 1] is not None:  # and so is every one above it
            return deltas
        outs, net = self._outs, self.net
        if self._stale <= self.depth:  # the refresh of ``outs``, inline on the hot path
            outs.refresh(net, self._stale)
            self._stale = self.depth + 1
        pre, post = outs.pre_activations, outs.post_activations
        weights, acts = net.weights, net.spec.activations
        if deltas[-1] is None:
            # sigma' multiplies into the fresh dL/dH and W^T D in place
            top = self.loss.grad_H(post[-1], self.data.Y)
            top *= acts[-1].derivative(pre[-1], post[-1])
            deltas[-1] = top
        for i in range(self.depth - 1, j - 1, -1):
            if deltas[i - 1] is None:
                back = weights[i].T.dot(deltas[i])
                back *= acts[i - 1].derivative(pre[i - 1], post[i])
                deltas[i - 1] = back
        return deltas

    def grad(self, j: int, include_reg: bool = True) -> np.ndarray:
        """Gradient for block j: the data term D_j Z_{j-1}^T, plus the
        regularizer gradient when it is smooth (an L1 penalty is left to the
        prox step); that sum is cached, and callers must not write to it."""
        grads = self._grads
        if include_reg and 0 < j <= self.depth and grads[j - 1] is not None:
            return grads[j - 1]
        g = self.deltas(j)[j - 1].dot(self._outs.post_activations[j - 1].T)  # deltas checks j
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
        c = self._curvature(j)  # checks j
        z = self.outs.post_activations[j - 1]
        (d_j, n), d_prev = c.slope.shape, len(z)
        rows, row_s, row_r, cols, cols_t, gather = _pair_layout(d_j, d_prev)
        pairs = self._pair_curvature(c, rows, row_s, row_r)
        if d_j == 1:
            # H = (Z (.) m) Z', its lower triangle the mirror of the upper (kept:
            # the pair path takes 1.4-1.9x as long here and moves curvature's bits)
            hess = np.einsum("cn,n->cn", z, pairs[0], out=self._buf("t1", d_prev, n)).dot(z.T)
            lower, upper = _mirror(d_prev)
            hess.reshape(-1)[lower] = hess.reshape(-1)[upper]
        else:
            # H[(s,c),(r,e)] = sum_n M_n[s,r] z_n[c] z_n[e], from pairs s <= r
            # and c <= e
            zz = self._take("t1", z, cols)
            zz *= self._take("t2", z, cols_t)
            prod = np.matmul(pairs, zz.T, out=self._buf("t2", len(rows), len(cols)))
            hess = np.take(prod, gather, out=np.empty(gather.shape), mode="clip")
        if c.kappa:
            g = self.grad(j, include_reg=False).reshape(-1)
            hess += c.kappa * np.outer(g, g)
        hess.reshape(-1)[::len(hess) + 1] += self.net.spec.regularizers[j - 1].strong_convexity
        return hess

    def _pair_curvature(self, c: SimpleNamespace, rows, s, r) -> np.ndarray:
        # rows M_n[s, r], s <= r, of the curvature in U_j (flat indices
        # ``rows``, the d_j with s = r first), (P, N) on the scratch
        (d_j, n), p = c.slope.shape, len(s)
        pairs = self._buf("pairs", p, n)
        parts = []  # the terms of M~_n other than g_n row_n row_n', in pairs
        if c.beta is not None:  # W' diag(beta_n) W as K beta, K[p, a] = W[a, s_p] W[a, r_p]
            k = np.take(c.w, s, axis=1)
            k *= np.take(c.w, r, axis=1)
            parts.append(np.matmul(k.T, c.beta, out=self._buf("t1", p, n)))
        if c.q is not None:  # W' Q_n, or C_n itself at j = J
            m = c.q if c.w is None else np.matmul(c.w.T, c.q.reshape(len(c.q), -1),
                                                  out=self._buf("m", d_j, d_j * n))
            parts.append(np.take(m.reshape(d_j * d_j, n), rows, axis=0, mode="clip",
                                 out=self._buf("t2" if parts else "t1", p, n)))
        total = None
        if parts:  # scaled by slope[s] slope[r]
            if len(parts) > 1:
                parts[0] += parts[1]
            total = np.take(c.slope, s, axis=0, out=pairs, mode="clip")
            total *= self._take("rs", c.slope, r)
            total *= parts[0]
        if c.row is not None:  # g_n (sigma' row)_s (sigma' row)_r
            rs = np.multiply(c.row, c.slope, out=self._buf("rs", d_j, n))
            rg = np.multiply(rs, c.g, out=self._buf("rg", d_j, n))
            t = np.take(rg, s, axis=0, out=self._buf("t1", p, n) if total is not None
                        else pairs, mode="clip")
            t *= self._take("t2", rs, r)
            total = _add(total, t)
        total[:d_j] += c.bend
        return total

    def kernel_hessian(self, j: int) -> np.ndarray:
        """Hessian of f in the diagonal values of W_j (``Toeplitz.kernel_index``),
        P'HP in the module docstring; symmetric to rounding and the caller's.
        Its scratch stays within ``_KERNEL_SCRATCH`` doubles a role, or one
        sample's or one pair's share where that is larger."""
        c = self._curvature(j)  # checks j
        z = self.outs.post_activations[j - 1]
        (d_j, n), d_prev = c.slope.shape, len(z)
        k = d_j + d_prev - 1
        d_a = d_j if c.w is None else len(c.w)
        hess = None
        step = max(1, _KERNEL_SCRATCH // (max(d_j, d_a) * k))
        for n0 in range(0, n, step):  # chunks of samples, kept as they bound memory
            cols = slice(n0, min(n, n0 + step))
            m = cols.stop - n0
            # SY[s, n] = sigma'_j[s, n] Y_n[s], from windows of a zero-padded Z^T
            pad = self._buf("pad", m, k + d_j - 1)
            pad.fill(0.0)
            pad[:, d_j - 1:d_j - 1 + d_prev] = z[:, cols].T
            y = np.lib.stride_tricks.as_strided(
                pad, (d_j, m, k), (pad.strides[1], pad.strides[0], pad.strides[1]))
            sy = np.einsum("snp,sn->snp", y, c.slope[:, cols], out=self._buf("sy", d_j, m, k))
            # A_n = W S_n Y_n (S_n Y_n at j = J), and V_n with sum_n A_n' V_n the
            # Gram and sweep terms: V_n = diag(beta_n) A_n + Q_n S_n Y_n
            a = sy if c.w is None else np.matmul(
                c.w, sy.reshape(d_j, -1), out=self._buf("a", d_a, m * k)).reshape(d_a, m, k)
            v = self._buf("v", d_a, m, k)
            if c.beta is not None:
                np.einsum("anp,an->anp", a, c.beta[:, cols], out=v)
            if c.q is not None:
                qsy = np.matmul(c.q[:, :, cols].transpose(2, 0, 1), sy.transpose(1, 0, 2),
                                out=self._buf("qsy", m, d_a, k)).transpose(1, 0, 2)
                if c.beta is None:
                    np.copyto(v, qsy)
                else:
                    v += qsy
            hess = _add(hess, a.reshape(-1, k).T.dot(v.reshape(-1, k)))
            if c.row is not None:  # B_n = R_J[n]' S_n Y_n, weighted by g_n
                b = np.einsum("sn,snp->np", c.row[:, cols], sy, out=self._buf("b", m, k))
                bg = np.einsum("np,n->np", b, c.g[cols], out=self._buf("v", m, k))
                hess = _add(hess, bg.T.dot(b))
        # the bend's windows from pairs c <= e; the pairs c = e count half, as
        # adding the transpose doubles them (both exact)
        first, second = _window_layout(d_j, d_prev)
        step = max(1, _KERNEL_SCRATCH // (n + d_j))
        upper = None
        for p0 in range(0, len(first), step):  # chunks of pairs, kept as they bound memory
            part = slice(p0, p0 + step)
            zz = self._take("sy", z, first[part])
            zz *= self._take("a", z, second[part])
            windows = np.matmul(zz, c.bend.T, out=self._buf("v", len(zz), d_j))
            windows[:max(0, d_prev - p0)] *= 0.5
            bins = _window_bins(d_j, d_prev, p0, p0 + len(zz))
            upper = _add(upper, np.bincount(bins, weights=windows.ravel(), minlength=k * k))
        upper = upper.reshape(k, k)
        hess += upper
        hess += upper.T
        index, ties, _ = _diagonal_plan(d_j, d_prev)
        if c.kappa:
            g = np.bincount(index, weights=self.grad(j, include_reg=False).reshape(-1))
            hess += c.kappa * np.outer(g, g)
        hess.reshape(-1)[::k + 1] += self.net.spec.regularizers[j - 1].strong_convexity * ties
        return hess

    def _curvature(self, j: int) -> SimpleNamespace:
        """The data term's curvature in U_j without the loss's sample coupling
        kappa: slope[s] slope[r] M~_n[s, r] + [s = r] bend[s] at column n, with

            M~_n = W' diag(beta_n) W + g_n row_n row_n' + W' Q_n,

        each term present when its array is not None; the arrays may be on
        the scratch. W is W_{j+1}, or None (the identity) at j = J, where Q_n
        is the loss's curvature C_n. beta is layer j+1's bend (G_n at
        j = J-1, d_J = 1) and row is RU_J at d_J = 1, with g = G_n.
        RU_i = dU_i/dZ_j has stage tensors (d_i, d_j, N) on the scratch as
        role ("ru", i): RU_{j+2} is one GEMM through W_{j+2} diag(sigma'_{j+1})
        W_{j+1}, each later one a GEMM through W_i. The sweep starts at
        T_{J-1} = b_{J-1} (.) RU_{J-1} at d_J = 1, at T_J = G_n RU_J otherwise,
        and runs T_{i-1} = sigma'_{i-1} (.) W_i' T_i + b_{i-1} (.) RU_{i-1}
        down to Q = T_{j+1}, without layer j+1's bend."""
        deltas, outs = self.deltas(j), self.outs
        pre, post = outs.pre_activations, outs.post_activations
        acts, weights, depth = self.net.spec.activations, self.net.weights, self.depth

        def bend_of(i):  # b_i = (W_{i+1}' D_{i+1}) (.) sigma''_i
            back = weights[i].T.dot(deltas[i], out=self._buf(("bend", i), len(pre[i - 1]), n))
            back *= acts[i - 1].second_derivative(pre[i - 1], post[i])
            return back

        d_j, n = pre[j - 1].shape
        d_out = len(pre[-1])
        bend_j = None if j == depth else bend_of(j)  # before the slopes: one stage alive at a time
        slopes = [None] * (j - 1) + [acts[i - 1].derivative(pre[i - 1], post[i])
                                     for i in range(j, depth + 1)]  # slopes[i - 1] = sigma'_i
        curv, kappa = self.loss.curvature_H(outs.output, self.data.Y)
        bend = self.loss.grad_H(outs.output, self.data.Y)  # b_J = df/dZ_J (.) sigma''_J
        bend *= acts[-1].second_derivative(pre[-1], post[-1])
        if j == depth:
            return SimpleNamespace(w=None, beta=None, row=None, g=None, q=curv,
                                   slope=slopes[-1], bend=bend, kappa=kappa)
        g = curv * slopes[-1] * slopes[-1][:, None, :]  # G_n, column n's curvature in U_J
        g.reshape(-1, n)[::d_out + 1] += bend
        w = weights[j]
        # M~_n = W_J' G_n W_J, a Gram term (kept: the row path takes 1.2x as long in P'HP)
        if j == depth - 1 and d_out == 1:
            return SimpleNamespace(w=w, beta=g.reshape(1, n), row=None, g=None, q=None,
                                   slope=slopes[j - 1], bend=bend_j, kappa=kappa)
        ru = {j + 1: w[:, :, None]}
        for i in range(j + 2, depth + 1):
            out = self._buf(("ru", i), len(pre[i - 1]), d_j, n)
            if i == j + 2:  # through[b, r, a] = W_{j+2}[b, a] W_{j+1}[a, r]
                through = weights[j + 1][:, None, :] * w.T
                np.matmul(through.reshape(-1, len(w)), slopes[j], out=out.reshape(-1, n))
            else:
                rz = np.einsum("arn,an->arn", ru[i - 1], slopes[i - 2],
                               out=self._buf("rz", *ru[i - 1].shape))
                np.matmul(weights[i - 1], rz.reshape(len(rz), -1), out=out.reshape(len(out), -1))
            ru[i] = out
        row, g_row, top, t = None, None, depth, None
        # kept: the general sweep takes 1.1-1.5x as long per Hessian, curvature 1.16x
        if d_out == 1:  # the output term is g_n RU_J' RU_J, the middle layers the sweep
            row, g_row, top = ru[depth].reshape(d_j, n), g.reshape(n), depth - 1
            if top > j + 1:
                t = np.einsum("arn,an->arn", ru[top], bend_of(top),
                              out=self._buf(("rd", top % 2), *ru[top].shape))
        else:  # T_J[a] = sum_b G_n[a, b] RU_J[b], a GEMM through W_J at j = J-1
            out = self._buf(("rd", depth % 2), d_out, d_j, n)
            t = np.matmul(w.T, g, out=out) if depth == j + 1 else \
                np.einsum("abn,brn->arn", g, ru[depth], out=out)
        for i in range(top, j + 1, -1):
            out = self._buf(("rd", (i - 1) % 2), len(pre[i - 2]), d_j * n)
            t = np.matmul(weights[i - 1].T, t.reshape(len(t), -1), out=out).reshape(-1, d_j, n)
            t *= slopes[i - 2][:, None, :]
            if i - 1 > j + 1:
                t += np.einsum("arn,an->arn", ru[i - 1], bend_of(i - 1),
                               out=self._buf("rz", *t.shape))
        beta = None if j == depth - 1 else bend_of(j + 1)
        return SimpleNamespace(w=w, beta=beta, row=row, g=g_row, q=t,
                               slope=slopes[j - 1], bend=bend_j, kappa=kappa)

    def _buf(self, role, *shape) -> np.ndarray:
        # an array of this shape on the role's scratch buffer, grown on demand
        size = math.prod(shape)
        if len(self._scratch.get(role, ())) < size:
            self._scratch[role] = np.empty(size)
        return self._scratch[role][:size].reshape(shape)

    def _take(self, role, a: np.ndarray, index: np.ndarray) -> np.ndarray:
        out = self._buf(role, len(index), a.shape[1])
        return np.take(a, index, axis=0, out=out, mode="clip")  # "raise" buffers first


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
    """Rows c and e of pairs c <= e, those with c = e first; cached for
    four shapes."""
    return tuple(np.concatenate((np.arange(d_prev), side)) for side in np.triu_indices(d_prev, 1))


@functools.lru_cache(maxsize=4)
def _window_bins(d_j: int, d_prev: int, start: int, stop: int) -> np.ndarray:
    """Flat index of (c + o, e + o), o = d_j - 1 - s, in the K x K kernel
    Hessian for the pairs start..stop of ``_window_layout``, in (pair, s)
    order; cached for four chunks."""
    c, e = (side[start:stop, None] for side in _window_layout(d_j, d_prev))
    offset = np.arange(d_j - 1, -1, -1)
    k = d_j + d_prev - 1
    return ((c + offset) * k + e + offset).ravel()


@functools.lru_cache(maxsize=4)
def _mirror(d: int) -> tuple:
    """Flat indices of the entries below the diagonal of a d x d matrix and
    of the entries above it that mirror them; cached for four sizes."""
    low, high = np.tril_indices(d, -1)
    return low * d + high, high * d + low


def _add(total, term):
    # total + term, in place once there is a total
    if total is None:
        return term
    total += term
    return total


def _check_layer(net: Network, j: int, w: np.ndarray | None = None) -> None:
    if not 1 <= j <= len(net.weights):
        raise SpecError(f"layer index {j} outside 1..{len(net.weights)}")
    if w is not None and w.shape != net.weights[j - 1].shape:
        raise ShapeError(f"W_{j} has shape {w.shape}, spec wants {net.spec.layer_shape(j)}")


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
    base = cache if cache is not None else NetworkPass(net.copy(), data, loss)

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
