"""Convex surrogate families and their block minimizers.

Each family is a strongly convex model of the block objective around the
current iterate; it owns the model's value (``evaluate``) and its minimizer
over the block's feasible set (``direction``), the block's descent direction:

  first-order prox : f + <g, W - Wk> + (gamma/2)||W - Wk||^2  ->  Wk - g/gamma
  second-order prox: adds (1/2)(W-Wk)' Hess (W-Wk)            ->  damped Newton
  proximal         : f_j(W) + (gamma/2)||W - Wk||^2           ->  inner solver
  linear           : f + <g, W - Wk>  (concave blocks only)   ->  -g

The proximal model at gamma = 0 is the block objective itself: its minimizer
is exact block coordinate descent, solved in closed form when every
activation is the identity under the L2 loss. The first-order family absorbs
a non-smooth L1 penalty by soft-thresholding. The Newton step is exact on
unconstrained and (in diagonal values) Toeplitz blocks; on a ball it is still
the projected Newton point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CurvatureError, SingularError, SpecError
from .functions import BlockCurvature, classify_convexity, sqnorm
from .gradients import NetworkPass, block_hessian, block_objective_fn
from .netcore import Dataset, FeasibleSet, Network, Toeplitz, Unconstrained

__all__ = [
    "InnerSolverConfig", "FirstOrderProx", "SecondOrderProx", "Proximal",
    "LinearBound", "UPPERBOUNDS", "Anchor",
    "descent_direction_first_order", "descent_direction_second_order",
    "descent_direction_proximal", "descent_direction_linear",
    "first_order_direction_backtracked",
    "prox_l1_step", "closed_form_linear_block",
]


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerSolverConfig:
    """Projected-gradient settings for the proximal subproblem."""

    max_iters: int = 500
    grad_tol: float = 1e-8
    shrink: float = 0.5
    slope: float = 1e-4
    step_init: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise SpecError("inner solver needs max_iters >= 1")
        if not (self.grad_tol > 0 and 0 < self.shrink < 1 and 0 < self.slope < 1
                and self.step_init > 0):
            raise SpecError("inner solver tolerances/backtracking params out of range")


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise SpecError(f"gamma must be positive, got {gamma}")


def _block(fb: NetworkPass, j: int):
    """Block j's current weights, feasible set and regularizer."""
    spec = fb.net.spec
    return fb.net.weights[j - 1], spec.feasible_sets[j - 1], spec.regularizers[j - 1]


# ``direction(fb, j, grad, adapt, override)`` returns the minimizer of a
# family's model of block j at the pass ``fb``, and the gamma used. ``adapt``
# allows the first-order gamma search, ``override`` skips curvature checks.

@dataclass(frozen=True)
class FirstOrderProx:
    gamma: float = 1.0
    name = "first_order_prox"

    def __post_init__(self):
        _check_gamma(self.gamma)

    def evaluate(self, W: np.ndarray, anchor: "Anchor") -> float:
        """Value of the surrogate at W, anchored at the current iterate."""
        lin, diff = anchor.linear(W)
        return lin + 0.5 * self.gamma * sqnorm(diff)

    def direction(self, fb, j, grad, adapt, override):
        w, feasible, reg = _block(fb, j)
        if not reg.smooth:
            if isinstance(feasible, Toeplitz):
                # one variable per diagonal: the exact prox thresholds its mean
                a = feasible.project(w - grad / self.gamma)
                return prox_l1_step(a, 0.0, self.gamma, reg.lam), self.gamma
            return feasible.project(prox_l1_step(w, grad, self.gamma, reg.lam)), self.gamma
        if adapt:
            value_fn, _ = block_objective_fn(fb.net, fb.data, fb.loss, j, cache=fb)
            return first_order_direction_backtracked(w, grad, self.gamma, feasible,
                                                     value_fn, fb.objective())
        return descent_direction_first_order(w, grad, self.gamma, feasible), self.gamma


@dataclass(frozen=True)
class SecondOrderProx:
    gamma: float = 1.0
    name = "second_order_prox"

    def __post_init__(self):
        _check_gamma(self.gamma)

    def evaluate(self, W, anchor):
        if anchor.hess is None:
            raise SpecError("second-order surrogate needs anchor.hess")
        lin, diff = anchor.linear(W)
        d = diff.reshape(-1)
        return lin + 0.5 * self.gamma * sqnorm(diff) \
            + 0.5 * float(d @ anchor.hess @ d)

    def direction(self, fb, j, grad, adapt, override):
        # exact on an unconstrained block and, in its kernel coordinates, on a
        # Toeplitz one; on a ball the step is still the projected Newton point
        w, feasible, _ = _block(fb, j)
        hess = block_hessian(fb.net, fb.data, fb.loss, j, cache=fb)
        return descent_direction_second_order(w, grad, hess, self.gamma, feasible), self.gamma


@dataclass(frozen=True)
class Proximal:
    gamma: float = 1.0
    inner: InnerSolverConfig = field(default_factory=InnerSolverConfig)
    name = "proximal"

    def __post_init__(self):
        if not self.gamma >= 0:
            raise SpecError(f"gamma must be >= 0, got {self.gamma}")

    def evaluate(self, W, anchor):
        if anchor.f_fn is None:
            raise SpecError("proximal surrogate needs anchor.f_fn")
        _, diff = anchor.linear(W)
        return anchor.f_fn(W) + 0.5 * self.gamma * sqnorm(diff)

    def direction(self, fb, j, grad, adapt, override):
        w, feasible, reg = _block(fb, j)
        acts = fb.net.spec.activations
        if (self.gamma == 0 and fb.loss.name == "l2" and isinstance(feasible, Unconstrained)
                and all(a.name == "identity" for a in acts)):
            return closed_form_linear_block(fb.net, fb.data, j, reg.lam), self.gamma
        curv = classify_convexity(fb.loss, acts[j - 1:], reg)
        if not curv.is_strongly_convex and not override:
            raise CurvatureError(
                f"block {j} not certified strongly convex; "
                "set curvature_override=True to run the proximal family heuristically")
        value_fn, grad_fn = block_objective_fn(fb.net, fb.data, fb.loss, j, cache=fb)
        d, _ = descent_direction_proximal(value_fn, grad_fn, w, self.gamma,
                                          feasible, self.inner)
        return d, self.gamma


@dataclass(frozen=True)
class LinearBound:
    name = "linear"

    def evaluate(self, W, anchor):
        return anchor.linear(W)[0]

    def direction(self, fb, j, grad, adapt, override):
        w, feasible, reg = _block(fb, j)
        curv = classify_convexity(fb.loss, fb.net.spec.activations[j - 1:], reg)
        d = descent_direction_linear(w, grad, curv, override=override)
        return feasible.project(d), 0.0


UPPERBOUNDS = {cls.name: cls for cls in (FirstOrderProx, SecondOrderProx, Proximal,
                                         LinearBound)}


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
        return self.f_value + float(np.sum(self.grad * diff)), diff


# ---------------------------------------------------------------------------
# projections and directions
# ---------------------------------------------------------------------------

def descent_direction_first_order(W: np.ndarray, grad: np.ndarray, gamma: float,
                                  feasible: FeasibleSet = Unconstrained()) -> np.ndarray:
    """Minimizer of the first-order proximal surrogate: project(W - grad/gamma)."""
    _check_gamma(gamma)
    return feasible.project(W - grad / gamma)


def descent_direction_second_order(W: np.ndarray, grad: np.ndarray,
                                   hess: np.ndarray, gamma: float,
                                   feasible: FeasibleSet = Unconstrained(),
                                   max_doublings: int = 50) -> np.ndarray:
    """Damped Newton direction: W - (hess + gamma I)^{-1} grad in vec space,
    projected onto the feasible set, or exact in a set's kernel coordinates
    (``kernel_index``): W - P (P'HP + gamma P'P)^{-1} P'grad, with P the 0/1
    map from kernel to block and P'P its diagonal of tie counts.

    The damped system is solved by Cholesky; if it is not positive definite,
    gamma is doubled and the solve retried, Levenberg-Marquardt style.
    """
    _check_gamma(gamma)
    n = W.size
    if hess.shape != (n, n):
        raise SpecError(f"Hessian shape {hess.shape} incompatible with block size {n}")
    index = feasible.kernel_index(W.shape)
    rhs, damping = grad.reshape(-1), np.ones(n)
    if index is not None:
        damping = np.bincount(index)
        k = len(damping)
        hess = np.bincount((index[:, None] * k + index).ravel(), weights=hess.ravel()).reshape(k, k)
        rhs = np.bincount(index, weights=rhs)
    for _ in range(max_doublings + 1):
        try:
            factor = scipy.linalg.cho_factor(hess + gamma * np.diag(damping))
        except np.linalg.LinAlgError:
            gamma *= 2.0
            continue
        step = scipy.linalg.cho_solve(factor, rhs)
        if index is None:
            return feasible.project(W - step.reshape(W.shape))
        return W - step[index].reshape(W.shape)
    raise CurvatureError(
        f"damped Hessian not positive definite after {max_doublings} gamma doublings")


def descent_direction_proximal(value_fn, grad_fn, W: np.ndarray, gamma: float,
                               feasible: FeasibleSet = Unconstrained(),
                               cfg: InnerSolverConfig = InnerSolverConfig()):
    """Approximate prox of the block objective: argmin f(V) + (gamma/2)||V - W||^2.

    Projected gradient with backtracking from the warm start V = W. Returns
    (point, converged); the point never has a worse prox objective than W
    itself, so every outer step built on it is a descent step. gamma = 0 is
    allowed and minimizes the block objective itself (exact BCD).
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
    step = cfg.step_init
    converged = False
    for _ in range(cfg.max_iters):
        g = grad_fn(v) + gamma * (v - center)
        step = min(step / cfg.shrink, 1e6)  # let the step grow back
        accepted = False
        while step > 1e-18:
            cand = feasible.project(v - step * g)
            decrease = float(np.sum(g * (cand - v)))
            cand_phi = phi(cand)
            if cand_phi <= phi_v + cfg.slope * decrease and math.isfinite(cand_phi):
                accepted = True
                break
            step *= cfg.shrink
        if not accepted:
            break
        move = float(np.linalg.norm(cand - v)) / step
        v, phi_v = cand, cand_phi
        if phi_v < best_val:
            best, best_val = v, phi_v
        if move <= cfg.grad_tol:
            converged = True
            break
    return best, converged


def descent_direction_linear(W: np.ndarray, grad: np.ndarray,
                             curvature: BlockCurvature,
                             override: bool = False) -> np.ndarray:
    """Direction from the linear surrogate on concave blocks: -grad.

    The trainer's convex-combination update then reads
    (1-alpha) W - alpha * grad. Using it on a block not flagged concave is an
    error unless explicitly overridden.
    """
    if not curvature.is_concave and not override:
        raise CurvatureError(
            "linear surrogate requires a concave block (or override=True)")
    return -np.asarray(grad, dtype=float)


def first_order_direction_backtracked(W: np.ndarray, grad: np.ndarray,
                                      gamma0: float, feasible: FeasibleSet,
                                      f_block_value, f_anchor: float,
                                      max_doublings: int = 50):
    """First-order direction with gamma doubled until the surrogate majorizes.

    Accepts the smallest gamma = gamma0 * 2^m whose candidate direction D
    satisfies g(D) >= f_j(D), so the surrogate is a true local upper bound at
    the point that matters. Returns (D, gamma).
    """
    _check_gamma(gamma0)
    gamma, anchor = gamma0, Anchor(W, f_anchor, grad)
    for _ in range(max_doublings + 1):
        d = descent_direction_first_order(W, grad, gamma, feasible)
        g_at_d = FirstOrderProx(gamma).evaluate(d, anchor)
        try:
            f_at_d = f_block_value(d)
        except OverflowError:
            # candidate left the representable range: certainly not majorized
            gamma *= 2.0
            continue
        if g_at_d >= f_at_d - 1e-12 * max(1.0, abs(f_at_d)):
            return d, gamma
        gamma *= 2.0
    raise CurvatureError(
        f"no majorizing gamma found after {max_doublings} doublings from {gamma0}")


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
    if not 1 <= j <= net.depth:
        raise SpecError(f"layer index {j} outside 1..{net.depth}")
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
