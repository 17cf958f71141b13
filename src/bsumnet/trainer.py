"""Cyclic block-update training loop.

One outer iteration k touches block j = ((k-1) mod J) + 1: a descent
direction is produced by the configured surrogate family, then the block
moves to the convex combination (1-alpha) W_j + alpha D_j. Stepsizes come
from a diminishing schedule, an Armijo search, or are pinned to 1
(unit-stepsize mode). Stopping is checked at the end of every full cycle on
the full-batch stationarity residual; a run whose objective or residual
turns non-finite stops there as aborted.

Each run owns its mutable state (schedule positions, batch stream); networks
and trace rows it hands out are fresh values, safe to keep or share.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonSmoothError, SpecError
from .functions import sqnorm
from .gradients import BatchSampler, BatchStream, NetworkPass, block_objective_fn
from .netcore import Dataset, Network
from .upperbounds import FirstOrderProx, prox_l1_step

__all__ = [
    "InverseRoot", "Geometric", "Recursive", "Constant", "ArmijoRule",
    "SCHEDULES", "ScheduleReport", "stepsize_next", "validate_schedule",
    "TrainConfig", "TraceRow", "TrainTrace", "normalized_mse",
    "armijo_stepsize", "train_step", "train", "stochastic_train",
]

# stepsizes are clipped into [0, 1) as the convex-combination update requires
_ALPHA_CAP = 1.0 - 1e-9


# ---------------------------------------------------------------------------
# stepsize schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InverseRoot:
    """alpha_k = c / sqrt(k)."""

    c: float = 1.0
    name = "inverse_root"
    satisfies_eq7 = True
    witness = ("c/sqrt(k): diminishing with divergent sum (~2c sqrt(K)); squares decay "
               "like c^2/k (borderline harmonic tail, accepted for this family)")

    def __post_init__(self):
        if not self.c > 0:
            raise SpecError("inverse-root schedule needs c > 0")

    def alpha(self, k: int, state: dict | None) -> float:
        return self.c / math.sqrt(k)


@dataclass(frozen=True)
class Geometric:
    """alpha_k = c / 2^k: summable, so too fast to guarantee stationarity."""

    c: float = 1.0
    name = "geometric"
    satisfies_eq7 = False
    witness = "c/2^k sums to c: the divergent-sum condition fails, iterates can stall"

    def __post_init__(self):
        if not self.c > 0:
            raise SpecError("geometric schedule needs c > 0")

    def alpha(self, k, state):
        return self.c * 0.5 ** k


@dataclass(frozen=True)
class Recursive:
    """alpha_{k+1} = alpha_k (1 - t alpha_k), behaving like 1/(t k) asymptotically."""

    alpha0: float = 1.0
    t: float = 0.99
    name = "recursive"
    satisfies_eq7 = True
    witness = ("alpha(1 - t alpha) behaves like 1/(t k): diminishing, divergent sum, "
               "summable squares (~1/(t^2 k^2))")

    def __post_init__(self):
        if not 0 < self.alpha0 <= 1:
            raise SpecError("recursive schedule needs alpha0 in (0, 1]")
        if not 0 < self.t < 1:
            raise SpecError("recursive schedule needs t in (0, 1)")

    def alpha(self, k, state):
        if state is None:
            raise SpecError("recursive schedule needs a mutable state dict")
        cur = state.setdefault("alpha", self.alpha0)
        state["alpha"] = cur * (1.0 - self.t * cur)
        return state["alpha"]


@dataclass(frozen=True)
class Constant:
    c: float = 0.1
    name = "constant"
    satisfies_eq7 = False
    witness = "constant alpha never diminishes"

    def __post_init__(self):
        if not 0 < self.c < 1:
            raise SpecError("constant stepsize must lie in (0, 1)")

    def alpha(self, k, state):
        return self.c


@dataclass(frozen=True)
class ArmijoRule:
    """Backtracking line search along the segment toward the direction."""

    shrink: float = 0.5
    slope: float = 1e-4
    alpha_init: float = 1.0
    name = "armijo"
    satisfies_eq7 = False
    witness = "line-search stepsizes are adaptive, not a predetermined diminishing sequence"

    def __post_init__(self):
        if not (0 < self.shrink < 1 and 0 < self.slope < 1 and self.alpha_init > 0):
            raise SpecError("armijo parameters out of range")

    def alpha(self, k, state):
        raise SpecError("armijo stepsize depends on the objective; the trainer resolves it")


SCHEDULES = {cls.name: cls for cls in (InverseRoot, Geometric, Recursive, Constant,
                                       ArmijoRule)}


def stepsize_next(schedule, k: int, state: dict | None = None) -> float:
    """Stepsize for iteration k, clipped into [0, 1); the recursive kind
    mutates its state dict (current alpha) on every call."""
    if k < 1:
        raise SpecError("iteration index starts at 1")
    return min(max(schedule.alpha(k, state), 0.0), _ALPHA_CAP)


@dataclass(frozen=True)
class ScheduleReport:
    satisfies_eq7: bool
    witness: str


def validate_schedule(schedule) -> ScheduleReport:
    """Classify a schedule against the diminishing-stepsize conditions
    (alpha in [0,1), alpha -> 0, divergent sum, summable squares), with a
    one-line justification string."""
    return ScheduleReport(schedule.satisfies_eq7, schedule.witness)


# ---------------------------------------------------------------------------
# configuration and trace types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs beyond (net, data, loss).

    ``upperbound`` and ``schedule`` may each be a single object shared by all
    layers or a per-layer tuple. ``record_every`` defaults to one trace row
    per full cycle (J iterations). ``unit_stepsize`` pins alpha = 1 and
    excludes a schedule: with the first-order or second-order family it gives
    gradient descent or damped Newton, and with ``Proximal(0.0)`` exact block
    coordinate descent, each block replaced by its (high-accuracy) minimizer.
    ``adapt_gamma`` doubles gamma until the first-order surrogate majorizes
    at the candidate direction (full-batch mode only; mini-batch runs keep
    the configured gamma fixed).
    """

    upperbound: object = field(default_factory=FirstOrderProx)
    schedule: object = None
    sampler: BatchSampler = field(default_factory=BatchSampler)
    max_outer_iterations: int = 1000
    grad_norm_tol: float = 1e-8
    record_every: int | None = None
    unit_stepsize: bool = False
    adapt_gamma: bool = True
    curvature_override: bool = False

    def __post_init__(self):
        if self.max_outer_iterations < 1:
            raise SpecError("max_outer_iterations must be >= 1")
        if not self.grad_norm_tol > 0:
            raise SpecError("grad_norm_tol must be positive")
        if self.record_every is not None and self.record_every < 1:
            raise SpecError("record_every must be >= 1")
        if self.unit_stepsize and self.schedule is not None:
            raise SpecError("unit_stepsize and a schedule are mutually exclusive")
        if not self.unit_stepsize and self.schedule is None:
            raise SpecError("a stepsize schedule is required unless alpha is pinned to 1")


@dataclass(frozen=True)
class TraceRow:
    """Snapshot taken after completing outer iteration k.

    ``f``, ``normalized_mse`` and ``full_grad_norm`` describe the updated
    network on the full dataset; ``block_grad_norm`` is the norm of the
    gradient the direction was built from (mini-batch in stochastic mode).
    """

    k: int
    block: int
    f: float
    normalized_mse: float
    block_grad_norm: float
    full_grad_norm: float
    alpha: float
    gamma: float
    wall_seconds: float


@dataclass
class TrainTrace:
    """Recorded rows plus run-level outcomes.

    ``initial_f`` / ``initial_grad_norm`` describe the network before any
    update; the final fields describe it when the loop stopped.
    """

    rows: list = field(default_factory=list)
    initial_f: float = math.nan
    initial_grad_norm: float = math.nan
    final_f: float = math.nan
    final_grad_norm: float = math.nan
    iterations_run: int = 0
    converged: bool = False
    aborted: bool = False
    abort_reason: str = ""

    def f_values(self):
        return [r.f for r in self.rows]

    def abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_reason = reason


def normalized_mse(H: np.ndarray, Y: np.ndarray) -> float:
    """Training MSE divided by the target variance energy ||Y - Ybar||_F^2."""
    resid = sqnorm(Y - H)
    denom = sqnorm(Y - Y.mean(axis=1, keepdims=True))
    return resid / denom if denom > 0 else resid


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------

def armijo_stepsize(f_block, W: np.ndarray, D: np.ndarray, grad: np.ndarray,
                    rule: ArmijoRule, max_shrinks: int = 60):
    """Largest alpha_init * shrink^m satisfying the sufficient-decrease test.

    The test is at the point the trainer stores, ``_apply_update(W, D,
    alpha)``. Returns (alpha, accepted); a non-descent or non-finite slope,
    or exhausting the shrink budget, yields (0.0, False).
    """
    slope = float(np.sum(grad * (D - W)))
    if not slope < 0:
        return 0.0, False
    f0 = f_block(W)
    alpha = rule.alpha_init
    for _ in range(max_shrinks + 1):
        if f_block(_apply_update(W, D, alpha)) <= f0 + rule.slope * alpha * slope:
            return alpha, True
        alpha *= rule.shrink
    return 0.0, False


# ---------------------------------------------------------------------------
# loop internals
# ---------------------------------------------------------------------------

def _per_layer(value, j: int, depth: int):
    if isinstance(value, (list, tuple)):
        if len(value) != depth:
            raise SpecError(f"per-layer setting has length {len(value)}, expected {depth}")
        return value[j - 1]
    return value


class _LoopState:
    """Mutable machinery owned by one training run: schedule states and the
    mini-batch index stream. A shared schedule advances one shared state; a
    per-layer tuple advances each layer's own state."""

    def __init__(self, cfg: TrainConfig, depth: int, n_samples: int):
        self.per_layer = [{} for _ in range(depth)]
        self.shared: dict = {}
        self.stream = BatchStream(cfg.sampler, n_samples)

    def sched_state(self, cfg: TrainConfig, j: int) -> dict:
        if isinstance(cfg.schedule, (list, tuple)):
            return self.per_layer[j - 1]
        return self.shared


def _block_residual_norm(net: Network, grads: list) -> float:
    """Norm of the stacked stationarity residuals: plain gradients on smooth
    layers, prox-gradient residuals (with unit curvature) on L1 layers."""
    total = 0.0
    for reg, w, g in zip(net.spec.regularizers, net.weights, grads):
        total += sqnorm(g if reg.smooth else w - prox_l1_step(w, g, 1.0, reg.lam))
    return math.sqrt(total)


def _full_diagnostics(full: NetworkPass):
    f_val = full.objective()
    norm = _block_residual_norm(full.net, full.grads())
    return f_val, norm, normalized_mse(full.outs.output, full.data.Y)


def _direction(fb: NetworkPass, cfg: TrainConfig, j: int, adapt_ok: bool):
    """Descent direction for block j from its surrogate family; returns
    (D, gamma_used, grad)."""
    kind = _per_layer(cfg.upperbound, j, fb.net.depth)
    # data term only on an L1 block: its penalty is absorbed by the prox step
    grad = fb.grad(j)
    if not fb.net.spec.regularizers[j - 1].smooth and not isinstance(kind, FirstOrderProx):
        raise NonSmoothError(
            "L1-regularized blocks are only supported with the first-order family")
    d, gamma = kind.direction(fb, j, grad, cfg.adapt_gamma and adapt_ok,
                              cfg.curvature_override)
    return d, gamma, grad


def _alpha_for_step(fb: NetworkPass, cfg: TrainConfig, j: int, k: int,
                    d, grad, state: _LoopState) -> float:
    if cfg.unit_stepsize:
        return 1.0
    sched = _per_layer(cfg.schedule, j, fb.net.depth)
    if isinstance(sched, ArmijoRule):
        if not fb.net.spec.regularizers[j - 1].smooth:
            raise NonSmoothError(f"Armijo search needs a smooth regularizer on block {j}")
        value_fn, _ = block_objective_fn(fb.net, fb.data, fb.loss, j, cache=fb)
        alpha, _ = armijo_stepsize(value_fn, fb.net.weights[j - 1], d, grad, sched)
        return alpha
    return stepsize_next(sched, k, state.sched_state(cfg, j))


def _apply_update(w, d, alpha: float):
    # alpha == 1 assigns D directly so the gradient-descent / Newton special
    # cases reproduce their textbook updates bitwise
    return d if alpha == 1.0 else (1.0 - alpha) * w + alpha * d


def _step(full: NetworkPass, cfg: TrainConfig, k: int, state: _LoopState):
    """Outer iteration k: direction and stepsize from a pass on the batch
    (``full`` itself with a full sampler), then W_j of ``full`` is replaced.
    Returns (j, alpha, gamma, block gradient norm)."""
    j = ((k - 1) % full.net.depth) + 1
    full_batch = cfg.sampler.mode == "full"
    fb = full if full_batch else NetworkPass(
        full.net, full.data.restrict(state.stream.next(k)), full.loss)
    d, gamma, grad = _direction(fb, cfg, j, full_batch)
    alpha = _alpha_for_step(fb, cfg, j, k, d, grad, state)
    full.set_block(j, _apply_update(full.net.weights[j - 1], d, alpha))
    return j, alpha, gamma, math.sqrt(sqnorm(grad))


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def train_step(net: Network, data: Dataset, loss, cfg: TrainConfig, k: int,
               state: _LoopState | None = None):
    """One outer iteration: update block ((k-1) mod J) + 1, leave the rest.

    Returns (new network, TraceRow). Standalone calls recompute the full
    diagnostics every time; the train() loop amortizes them instead. Pass
    the same ``state`` across calls when stepping manually, or recursive
    schedules and mini-batch streams restart every call.
    """
    if k < 1:
        raise SpecError("iteration index starts at 1")
    if state is None:
        state = _LoopState(cfg, net.depth, data.n_samples)
    t0 = time.perf_counter()
    full = NetworkPass(net.copy(), data, loss)
    j, alpha, gamma, grad_norm = _step(full, cfg, k, state)
    f_val, full_norm, nmse = _full_diagnostics(full)
    row = TraceRow(k, j, f_val, nmse, grad_norm, full_norm, alpha, gamma,
                   time.perf_counter() - t0)
    return full.net, row


def _train_loop(net: Network, data: Dataset, loss, cfg: TrainConfig):
    depth = net.depth
    record_every = cfg.record_every if cfg.record_every is not None else depth
    state = _LoopState(cfg, depth, data.n_samples)
    full = NetworkPass(net.copy(), data, loss)
    trace = TrainTrace()
    t0 = time.perf_counter()

    try:
        f_val, full_norm, _ = _full_diagnostics(full)
    except OverflowError as exc:
        trace.abort(str(exc))
        return full.net, trace
    trace.initial_f = trace.final_f = f_val
    trace.initial_grad_norm = trace.final_grad_norm = full_norm
    if not (math.isfinite(f_val) and math.isfinite(full_norm)):
        trace.abort(f"non-finite objective {f_val} or residual {full_norm} at the start")
        return full.net, trace

    for k in range(1, cfg.max_outer_iterations + 1):
        try:
            j, alpha, gamma, grad_norm = _step(full, cfg, k, state)
        except OverflowError as exc:
            trace.abort(str(exc))
            break
        trace.iterations_run = k

        cycle_end = (k % depth == 0)
        record_due = (k % record_every == 0)
        if cycle_end or record_due or k == cfg.max_outer_iterations:
            try:
                f_val, full_norm, nmse = _full_diagnostics(full)
            except OverflowError as exc:
                trace.abort(str(exc))
                break
            if record_due:
                trace.rows.append(TraceRow(
                    k, j, f_val, nmse, grad_norm, full_norm, alpha, gamma,
                    time.perf_counter() - t0))
            if not (math.isfinite(f_val) and math.isfinite(full_norm)):
                trace.abort(f"non-finite objective {f_val} or residual {full_norm} "
                            f"after iteration {k}")
                break
            if cycle_end and full_norm <= cfg.grad_norm_tol:
                trace.converged = True
                break

    trace.final_f = f_val
    trace.final_grad_norm = full_norm
    return full.net, trace


def train(net: Network, data: Dataset, loss, cfg: TrainConfig):
    """Full-batch cyclic training; see stochastic_train for mini-batch runs."""
    if cfg.sampler.mode != "full":
        raise SpecError("train() is the batch path; use stochastic_train for mini-batches")
    return _train_loop(net, data, loss, cfg)


def stochastic_train(net: Network, data: Dataset, loss, cfg: TrainConfig):
    """Mini-batch variant of the first-order update.

    With a full sampler this runs exactly the batch code path, so the trace
    is bitwise identical to train(). In mini-batch mode the direction and
    stepsize are computed on the batch; the recorded f / residual-norm
    diagnostics always use the full dataset.
    """
    if cfg.sampler.mode != "full":
        kinds = cfg.upperbound if isinstance(cfg.upperbound, (list, tuple)) \
            else [cfg.upperbound]
        if not all(isinstance(kd, FirstOrderProx) for kd in kinds):
            raise SpecError("the stochastic variant is defined for the first-order family")
    return _train_loop(net, data, loss, cfg)
