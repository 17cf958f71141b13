"""Convex surrogate families and their block steps.

Each family is a model of the block objective around the current iterate
Wk; it owns the model's value (``evaluate``) and its step (``direction``)
S = D - Wk, D the model's minimizer over the block's feasible set, which
the trainer takes as Wk + alpha S:

  first-order prox : f + <g, W - Wk> + (gamma/2)||W - Wk||^2  ->  S = -g/gamma
  second-order prox: adds (1/2)(W-Wk)' Hess (W-Wk)            ->  damped Newton
  proximal         : f_j(W) + (gamma/2)||W - Wk||^2           ->  projected gradient

Each S is formed the cheapest way the feasible set allows: on a linear
set, whose projection P fixes Wk, the first-order S is P(g)/(-gamma), with
no D at all.

The proximal family names the curvature class it needs (``certificate``),
which ``TrainConfig.blocks`` checks once per run. At gamma = 0 its step is
exact block coordinate descent, in closed form and with no certificate when
every activation is the identity under the L2 loss. The first-order
family absorbs a non-smooth L1 penalty by soft-thresholding. The Newton step
is exact on unconstrained and (in diagonal values) Toeplitz blocks; on a
ball it is still the projected Newton point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CurvatureError, SingularError, SpecError
from .functions import sqnorm
from .gradients import _check_layer, block_hessian, block_objective_fn
from .netcore import Dataset, FeasibleSet, Network, Toeplitz, Unconstrained

__all__ = [
    "FirstOrderProx", "SecondOrderProx", "Proximal", "UPPERBOUNDS", "Anchor",
    "descent_direction_first_order", "descent_direction_second_order",
    "descent_direction_proximal",
    "first_order_direction_backtracked",
    "prox_l1_step", "closed_form_linear_block",
]

# gamma doublings before the majorization search or the Newton solve gives up
_MAX_DOUBLINGS = 50


# ---------------------------------------------------------------------------
# surrogate families
# ---------------------------------------------------------------------------

def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise SpecError(f"gamma must be positive, got {gamma}")


# ``direction(fb, j, grad, f_block)`` returns the step S = D - W to the
# minimizer D of a family's model of block j at the pass ``fb``, a fresh
# array, the gamma used, and <grad, S> if f_j's value ``f_block`` turned on
# the first-order gamma search, else None.
# ``certificate`` is the curvature class the model needs of the block, or None.

@dataclass(frozen=True)
class FirstOrderProx:
    gamma: float = 1.0
    name = "first_order_prox"
    certificate = None

    def __post_init__(self):
        _check_gamma(self.gamma)

    def evaluate(self, W: np.ndarray, anchor: "Anchor") -> float:
        """Value of the surrogate at W, anchored at the current iterate."""
        lin, diff = anchor.linear(W)
        return lin + 0.5 * self.gamma * sqnorm(diff)

    def direction(self, fb, j, grad, f_block):
        w, spec = fb.net.weights[j - 1], fb.net.spec
        feasible, reg = spec.feasible_sets[j - 1], spec.regularizers[j - 1]
        if not reg.smooth:
            if isinstance(feasible, Toeplitz):
                # one variable per diagonal: the exact prox thresholds its mean
                a = feasible.project(w - grad / self.gamma)
                return prox_l1_step(a, 0.0, self.gamma, reg.lam) - w, self.gamma, None
            d = feasible.project(prox_l1_step(w, grad, self.gamma, reg.lam))
            return d - w, self.gamma, None
        if f_block is not None:
            return first_order_direction_backtracked(w, grad, self.gamma, feasible, f_block,
                                                     fb.objective())
        return descent_direction_first_order(w, grad, self.gamma, feasible), self.gamma, None


@dataclass(frozen=True)
class SecondOrderProx:
    gamma: float = 1.0
    name = "second_order_prox"
    certificate = None

    def __post_init__(self):
        _check_gamma(self.gamma)

    def evaluate(self, W, anchor):
        if anchor.hess is None:
            raise SpecError("second-order surrogate needs anchor.hess")
        lin, diff = anchor.linear(W)
        d = diff.reshape(-1)
        return lin + 0.5 * self.gamma * sqnorm(diff) \
            + 0.5 * float(d @ anchor.hess @ d)

    def direction(self, fb, j, grad, f_block):
        # exact on an unconstrained block and, in its kernel coordinates, on a
        # Toeplitz one; on a ball the step is still the projected Newton point
        w, feasible = fb.net.weights[j - 1], fb.net.spec.feasible_sets[j - 1]
        if feasible.kernel_index(w.shape) is None:
            hess = block_hessian(fb.net, fb.data, fb.loss, j, cache=fb)
        else:
            hess = fb.kernel_hessian(j)
        return (*descent_direction_second_order(w, grad, hess, self.gamma, feasible), None)


@dataclass(frozen=True)
class Proximal:
    gamma: float = 1.0
    max_iters: int = 500
    grad_tol: float = 1e-8
    name = "proximal"
    certificate = "strongly_convex"

    def __post_init__(self):
        if not self.gamma >= 0:
            raise SpecError(f"gamma must be >= 0, got {self.gamma}")
        if self.max_iters < 1 or not self.grad_tol > 0:
            raise SpecError("inner solver needs max_iters >= 1 and grad_tol > 0")

    def evaluate(self, W, anchor):
        if anchor.f_fn is None:
            raise SpecError("proximal surrogate needs anchor.f_fn")
        _, diff = anchor.linear(W)
        return anchor.f_fn(W) + 0.5 * self.gamma * sqnorm(diff)

    def closed_form(self, loss, spec, j: int) -> bool:
        """Whether block j's step is ``closed_form_linear_block``: exact BCD
        on an unconstrained block of a deep linear net under the L2 loss."""
        return (self.gamma == 0 and loss.name == "l2"
                and isinstance(spec.feasible_sets[j - 1], Unconstrained)
                and all(a.name == "identity" for a in spec.activations))

    def direction(self, fb, j, grad, f_block):
        w, spec = fb.net.weights[j - 1], fb.net.spec
        feasible, reg = spec.feasible_sets[j - 1], spec.regularizers[j - 1]
        if self.closed_form(fb.loss, spec, j):
            d = closed_form_linear_block(fb.net, fb.data, j, reg.lam)
        else:
            value_fn, grad_fn = block_objective_fn(fb.net, fb.data, fb.loss, j, cache=fb)
            d, _ = descent_direction_proximal(value_fn, grad_fn, w, self.gamma, feasible,
                                              self.max_iters, self.grad_tol)
        return d - w, self.gamma, None


UPPERBOUNDS = {cls.name: cls for cls in (FirstOrderProx, SecondOrderProx, Proximal)}


@dataclass
class Anchor:
    """Everything about the current iterate a surrogate needs.

    ``f_value`` is the full regularized objective at the anchor, ``grad`` the
    block gradient there. ``hess`` (vec-space, row-major) is required by the
    second-order family, ``f_fn`` (block objective value) by the proximal one.
    """

    w: np.ndarray
    f_value: float
    grad: np.ndarray
    hess: np.ndarray | None = None
    f_fn: object | None = None

    def linear(self, W: np.ndarray):
        """The tangent model f + <grad, W - w> at W, and the step W - w."""
        diff = np.asarray(W, dtype=float) - self.w
        return self.f_value + float(np.add.reduce(self.grad * diff, None)), diff


# ---------------------------------------------------------------------------
# projections and directions
# ---------------------------------------------------------------------------

def descent_direction_first_order(W: np.ndarray, grad: np.ndarray, gamma: float,
                                  feasible: FeasibleSet = Unconstrained()) -> np.ndarray:
    """Step S = D - W to the first-order surrogate's minimizer D =
    project(W - grad/gamma), a fresh array. On a linear set, which fixes the
    feasible W, S = project(grad)/(-gamma), formed without D."""
    _check_gamma(gamma)
    if feasible.linear:
        return feasible.project(grad) / -gamma
    return feasible.project(W - grad / gamma) - W


def descent_direction_second_order(W: np.ndarray, grad: np.ndarray,
                                   hess: np.ndarray, gamma: float,
                                   feasible: FeasibleSet = Unconstrained()):
    """Damped Newton step S = -(hess + gamma I)^{-1} grad in vec space; on a
    Frobenius ball the step to the projected point, P(W + S) - W. On a set
    with kernel coordinates (``kernel_index``) ``hess`` is the Hessian in
    them, P'HP with P the 0/1 map from kernel to block
    (``NetworkPass.kernel_hessian``), and the step is exact there:
    S = -P (P'HP + gamma P'P)^{-1} P'grad, with P'P the diagonal of tie counts.

    Only the upper triangle of ``hess`` enters the step. The damped system
    is solved by Cholesky; if it is not positive definite, gamma is doubled
    and the solve retried, Levenberg-Marquardt style. Returns (S, gamma),
    S a fresh array and gamma the one that factored. A Hessian (either
    triangle) or gradient with infs or NaNs is a ValueError.
    """
    _check_gamma(gamma)
    index = feasible.kernel_index(W.shape)
    rhs, damping = grad.reshape(-1), 1.0
    if index is not None:
        rhs, damping = np.bincount(index, weights=rhs), feasible.kernel_ties(W.shape)
    n = len(rhs)
    if hess.shape != (n, n):
        raise SpecError(f"Hessian shape {hess.shape} incompatible with {n} coordinates")
    if not np.isfinite(rhs).all():
        raise ValueError("gradient must not contain infs or NaNs")
    h = np.empty(hess.shape, order="F")  # the solver's copy, factored in place
    for _ in range(_MAX_DOUBLINGS + 1):
        np.copyto(h.T, hess)  # a failed factorization overwrote h's leading columns
        h.reshape(-1, order="F")[::len(h) + 1] += gamma * damping
        try:
            # the lower factor of hess^T reads hess's upper triangle; checks h
            # for infs and NaNs; the triangular solve reuses the factor
            factor, lower = scipy.linalg.cho_factor(h, lower=True, overwrite_a=True)
        except np.linalg.LinAlgError:
            gamma *= 2.0
            continue
        step, info = scipy.linalg.lapack.dpotrs(factor, rhs, lower=lower)
        if info:
            raise ValueError(f"dpotrs: illegal value in argument {-info}")
        if index is not None:
            return -step[index].reshape(W.shape), gamma
        step = step.reshape(W.shape)
        if feasible.linear:
            return -feasible.project(step), gamma
        return feasible.project(W - step) - W, gamma
    raise CurvatureError(
        f"damped Hessian not positive definite after {_MAX_DOUBLINGS} gamma doublings")


def descent_direction_proximal(value_fn, grad_fn, W: np.ndarray, gamma: float,
                               feasible: FeasibleSet = Unconstrained(),
                               max_iters: int = 500, grad_tol: float = 1e-8):
    """Approximate prox of the block objective: argmin f(V) + (gamma/2)||V - W||^2.

    Projected gradient from the warm start V = W, at most ``max_iters`` steps,
    each halved to a 1e-4 sufficient decrease; it has converged once a step
    moves V by at most ``grad_tol`` per unit step. Returns (point, converged);
    the point never has a worse prox objective than W itself, so every outer
    step built on it is a descent step. gamma = 0 is allowed and minimizes
    the block objective itself (exact BCD).
    """
    if gamma < 0:
        raise SpecError(f"gamma must be >= 0, got {gamma}")
    center = np.asarray(W, dtype=float)

    def phi(v):
        pen = 0.5 * gamma * sqnorm(v - center)
        try:
            return value_fn(v) + pen
        except OverflowError:
            return math.inf

    v = feasible.project(center)
    phi_v = phi(v)
    best, best_val = v, phi_v
    step = 1.0
    converged = False
    for _ in range(max_iters):
        g = grad_fn(v) + gamma * (v - center)
        step = min(2.0 * step, 1e6)  # let the step grow back
        accepted = False
        while step > 1e-18:
            cand = feasible.project(v - step * g)
            decrease = float(np.sum(g * (cand - v)))
            cand_phi = phi(cand)
            if cand_phi <= phi_v + 1e-4 * decrease and math.isfinite(cand_phi):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        move = float(np.linalg.norm(cand - v)) / step
        v, phi_v = cand, cand_phi
        if phi_v < best_val:
            best, best_val = v, phi_v
        if move <= grad_tol:
            converged = True
            break
    return best, converged


# stays only for perfbench's tracer, which wraps it by name, until ROADMAP item 1
def descent_direction_linear(W: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return -grad


def first_order_direction_backtracked(W: np.ndarray, grad: np.ndarray,
                                      gamma0: float, feasible: FeasibleSet,
                                      f_block_value, f_anchor: float):
    """First-order step with gamma doubled until the surrogate majorizes.

    Accepts the smallest gamma = gamma0 * 2^m, m <= _MAX_DOUBLINGS, whose
    step S (``descent_direction_first_order``) satisfies g(W + S) >=
    f_j(W + S), a true local upper bound where it matters. Returns
    (S, gamma, <grad, S>).
    """
    for m in range(_MAX_DOUBLINGS + 1):
        gamma = gamma0 * 2.0 ** m
        s = descent_direction_first_order(W, grad, gamma, feasible)
        try:
            f_at = f_block_value(W + s)
        except OverflowError:
            continue  # the candidate left the representable range: not majorized
        slope = float(np.add.reduce(grad * s, None))
        if f_anchor + slope + 0.5 * gamma * sqnorm(s) >= f_at - 1e-12 * max(1.0, abs(f_at)):
            return s, gamma, slope
    raise CurvatureError(
        f"no majorizing gamma found after {_MAX_DOUBLINGS} doublings from {gamma0}")


def prox_l1_step(W: np.ndarray, grad_smooth: np.ndarray, gamma: float,
                 lam: float) -> np.ndarray:
    """Soft-threshold step absorbing an L1 penalty of strength lam.

    Shrinks each entry of W - grad_smooth/gamma toward zero by lam/gamma;
    entries within the threshold map to exactly 0.0.
    """
    _check_gamma(gamma)
    if lam < 0:
        raise SpecError(f"lam must be >= 0, got {lam}")
    a = np.asarray(W, dtype=float) - np.asarray(grad_smooth, dtype=float) / gamma
    t = lam / gamma
    return np.where(a > t, a - t, np.where(a < -t, a + t, 0.0))


# ---------------------------------------------------------------------------
# closed-form block solve for identity-activation networks
# ---------------------------------------------------------------------------

def closed_form_linear_block(net: Network, data: Dataset, j: int,
                             lam: float) -> np.ndarray:
    """Exact minimizer of block j when the whole network is linear.

    With A the product of the downstream weights and B the upstream image of
    X, the block objective (1/N)||Y - A W B||_F^2 + lam ||W||_F^2 is a ridge
    problem whose normal equations A'A W BB'/N + lam W = A'Y B'/N are
    diagonalized by the eigenvectors of A'A and BB': in that basis each
    entry is divided by its shifted eigenvalue product s_a s_b / N + lam.
    Needs lam > 0 or nonsingular factors.
    """
    _check_layer(net, j)
    if any(a.name != "identity" for a in net.spec.activations):
        raise SpecError("closed-form block solve needs identity activations everywhere")
    if lam < 0:
        raise SpecError(f"lam must be >= 0, got {lam}")

    d_out = net.spec.dims[-1]
    a = np.eye(d_out)
    for w in net.weights[j:][::-1]:
        a = a @ w
    b = data.X
    for w in net.weights[:j - 1]:
        b = w @ b

    n = data.n_samples
    sa, ua = np.linalg.eigh(a.T @ a)
    sb, ub = np.linalg.eigh(b @ b.T)
    denom = sa[:, None] * sb[None, :] / n + lam
    # the eigenvalues of the normal equations; a rank-deficient factor
    # without a ridge leaves some at rounding level, or slightly negative
    if not np.all(denom > denom.size * np.finfo(float).eps * np.max(np.abs(denom))):
        raise SingularError(
            "normal equations singular; use lam > 0 or full-rank factors")
    rhs = ua.T @ (a.T @ data.Y @ b.T / n) @ ub
    return ua @ (rhs / denom) @ ub.T
