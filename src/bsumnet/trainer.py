"""Cyclic block-update training loop.

One outer iteration k touches block j = ((k-1) mod J) + 1 by one rule for
every surrogate family: it moves to W_j + alpha S_j, S_j = D_j - W_j the
family's step toward its minimizer D_j (P(G)/(-gamma) for a first-order
step on a linear set, so gamma = 1 is backprop W_j - alpha G bit for bit),
and keeps W_j itself at alpha = 0. Stepsizes come from a diminishing
schedule, an Armijo search, or are pinned to 1 (unit-stepsize mode).
``run_loop`` steps a ``NetworkPass`` and keeps the trace, for the block
trainer and the harness's backprop baselines.

Each run owns its mutable state (schedule positions, batch stream); networks
and trace rows it hands out are fresh values, safe to keep or share.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CurvatureError, NonSmoothError, SizeError, SpecError
from .functions import classify_convexity, sqnorm
from .gradients import (_HESSIAN_SIZE_LIMIT, BatchSampler, BatchStream, NetworkPass,
                        block_objective_fn)
from .netcore import Dataset, Network
from .upperbounds import FirstOrderProx, SecondOrderProx, prox_l1_step

__all__ = [
    "InverseRoot", "Geometric", "Recursive", "Constant", "ArmijoRule",
    "SCHEDULES", "stepsize_next",
    "TrainConfig", "TraceRow", "TrainTrace", "normalized_mse",
    "armijo_stepsize", "train_step", "run_loop", "train", "stochastic_train",
]

# schedule stepsizes are clipped into [0, 1): W + alpha S stays on the segment
# from W to the family's minimizer W + S
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
    """Backtracking line search along the step S from ``alpha_init`` in
    (0, 1], so every trial W + alpha S stays on the segment from W to W + S."""

    shrink: float = 0.5
    slope: float = 1e-4
    alpha_init: float = 1.0
    name = "armijo"
    satisfies_eq7 = False
    witness = "line-search stepsizes are adaptive, not a predetermined diminishing sequence"

    def __post_init__(self):
        if not (0 < self.shrink < 1 and 0 < self.slope < 1 and 0 < self.alpha_init <= 1):
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
    at the candidate W + S, on a smooth first-order block in full-batch
    mode only; elsewhere gamma stays as configured, except that the Newton
    step doubles it while the damped Hessian is not positive definite.
    ``curvature_override`` runs the proximal family on blocks not certified
    for it.
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

    def blocks(self, spec, loss) -> tuple:
        """Each block's (surrogate family, stepsize schedule) for a run on
        ``spec`` under ``loss``; the schedule is None under ``unit_stepsize``.
        The one place the per-block rules are checked: a per-layer tuple
        needs one non-None entry per block and a mini-batch sampler the
        first-order family (a SpecError), an L1 block needs the first-order
        family and no Armijo search (a NonSmoothError), a second-order block
        at most the Hessian's size budget in the coordinates its step solves
        for, weights or a tied set's kernel (a SizeError), and a family's
        ``certificate`` must match ``classify_convexity`` (a CurvatureError)
        unless ``curvature_override`` is set or the step is in closed form."""
        kinds = _per_layer(self.upperbound, spec.depth)
        scheds = (None,) * spec.depth if self.unit_stepsize \
            else _per_layer(self.schedule, spec.depth)
        for j, (reg, kind, sched) in enumerate(zip(spec.regularizers, kinds, scheds), 1):
            if self.sampler.mode != "full" and not isinstance(kind, FirstOrderProx):
                raise SpecError("mini-batch samplers are defined for the first-order family")
            if not reg.smooth and not isinstance(kind, FirstOrderProx):
                raise NonSmoothError(
                    "L1-regularized blocks are only supported with the first-order family")
            if not reg.smooth and isinstance(sched, ArmijoRule):
                raise NonSmoothError(f"Armijo search needs a smooth regularizer on block {j}")
            if isinstance(kind, SecondOrderProx):
                # a Newton step solves for the block's weights, or a tied set's kernel
                index = spec.feasible_sets[j - 1].kernel_index(spec.layer_shape(j))
                n = math.prod(spec.layer_shape(j)) if index is None else int(index.max()) + 1
                if n > _HESSIAN_SIZE_LIMIT:
                    raise SizeError(
                        f"block {j}: {n} parameters, over the {_HESSIAN_SIZE_LIMIT} budget")
            need = kind.certificate
            if need and not self.curvature_override \
                    and not kind.closed_form(loss, spec, j) \
                    and classify_convexity(loss, spec.activations[j - 1:], reg) != need:
                raise CurvatureError(
                    f"block {j} not certified {need.replace('_', ' ')}; set "
                    f"curvature_override=True to run the {kind.name} family heuristically")
        return tuple(zip(kinds, scheds))


@dataclass(frozen=True)
class TraceRow:
    """Snapshot taken after completing outer iteration k.

    ``f``, ``normalized_mse`` and ``full_grad_norm`` describe the updated
    network on the full dataset; ``block_grad_norm`` is the norm of the
    gradient the direction was built from (on the batch with a mini-batch
    sampler).
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

    def abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_reason = reason


def normalized_mse(H: np.ndarray, Y: np.ndarray) -> float:
    """Training MSE divided by the target variance energy ||Y - Ybar||_F^2."""
    return _scaled_mse(sqnorm(Y - H), _target_energy(Y))


def _target_energy(Y: np.ndarray) -> float:
    return sqnorm(Y - Y.mean(axis=1, keepdims=True))


def _scaled_mse(resid: float, energy: float) -> float:
    return resid / energy if energy > 0 else resid


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------

def armijo_stepsize(f_block, W: np.ndarray, S: np.ndarray, grad: np.ndarray,
                    rule: ArmijoRule, slope: float | None = None):
    """Largest alpha_init * shrink^m satisfying the sufficient-decrease test
    along the step S.

    The test is at W + alpha S, bit for bit the point the trainer installs;
    ``slope`` is <grad, S> if known. Returns (alpha, accepted); a
    non-descent or non-finite slope, or no pass for any m <= 60, yields
    (0.0, False).
    """
    if slope is None:
        slope = float(np.add.reduce(grad * S, None))  # ndarray.sum, unwrapped
    if not -math.inf < slope < 0:
        return 0.0, False
    f0 = f_block(W)
    alpha = rule.alpha_init
    for _ in range(61):
        # S unscaled at alpha = 1: the same bits as 1.0 * S, one array pass fewer
        if f_block(W + (S if alpha == 1.0 else alpha * S)) <= f0 + rule.slope * alpha * slope:
            return alpha, True
        alpha *= rule.shrink
    return 0.0, False


# ---------------------------------------------------------------------------
# loop internals
# ---------------------------------------------------------------------------

def _per_layer(value, depth: int) -> tuple:
    values = tuple(value) if isinstance(value, (list, tuple)) else (value,) * depth
    if len(values) != depth or any(v is None for v in values):
        raise SpecError(f"need {depth} per-layer entries, none of them None; got {value!r}")
    return values


class _LoopState:
    """Mutable machinery owned by one training run: ``cfg.blocks``, one
    schedule state per block (one dict for all when the schedule is shared,
    so it advances once per iteration), the mini-batch index stream, whether
    the sampler is the full batch and the gamma search is on, and f_j of
    each block whose step probes it."""

    def __init__(self, cfg: TrainConfig, spec, loss, n_samples: int):
        self.blocks = cfg.blocks(spec, loss)
        self.full_batch = cfg.sampler.mode == "full"
        self.adapt = cfg.adapt_gamma and self.full_batch
        per_layer = isinstance(cfg.schedule, (list, tuple))
        self.sched = [{} for _ in range(spec.depth)] if per_layer else [{}] * spec.depth
        self.stream = BatchStream(cfg.sampler, n_samples)
        # j -> (pass, f_j on it) for each block with a gamma search or Armijo test
        self.f_blocks = {j: (None, None) for j, (_, sched) in enumerate(self.blocks, 1)
                         if self.adapt or isinstance(sched, ArmijoRule)}


def _block_residual_norm(net: Network, grads: list) -> float:
    """Norm of the stacked stationarity residuals: plain gradients on smooth
    layers, prox-gradient residuals (with unit curvature) on L1 layers."""
    total = 0.0
    for reg, w, g in zip(net.spec.regularizers, net.weights, grads):
        total += sqnorm(g if reg.smooth else w - prox_l1_step(w, g, 1.0, reg.lam))
    return math.sqrt(total)


def _full_diagnostics(full: NetworkPass, energy: float):
    f_val = full.objective()
    norm = _block_residual_norm(full.net, full.grads())
    return f_val, norm, _scaled_mse(full.sse(), energy)


def _alpha_for_step(sched, j: int, k: int, state: _LoopState, f_block, w, s, grad, slope):
    # f_j, W, S, grad and slope are read by an Armijo search only
    if sched is None:
        return 1.0
    if isinstance(sched, ArmijoRule):
        return armijo_stepsize(f_block, w, s, grad, sched, slope)[0]
    return stepsize_next(sched, k, state.sched[j - 1])


def _step(full: NetworkPass, k: int, state: _LoopState):
    """Outer iteration k: step S and stepsize from a pass on the batch
    (``full`` itself with a full sampler), then ``full`` takes W_j + alpha S,
    formed in S's own fresh array, or swaps in its trial slot when that holds
    the point (an accepted Armijo trial); W_j itself at alpha = 0, whatever S
    holds. Returns (j, alpha, gamma, a callable giving the block gradient's norm)."""
    j = (k - 1) % full.depth + 1
    kind, sched = state.blocks[j - 1]
    fb = full if state.full_batch else full._on(full.data.restrict(state.stream.next(k)))
    grad = fb.grad(j)  # data term only on an L1 block: the prox step absorbs its penalty
    w = fb.net.weights[j - 1]
    kept = state.f_blocks.get(j)  # f_j of a block with a search, built once per pass
    if kept is not None and kept[0] is not fb:
        kept = state.f_blocks[j] = fb, block_objective_fn(fb.net, fb.data, fb.loss, j, cache=fb)[0]
    f_block = None if kept is None else kept[1]
    s, gamma, slope = kind.direction(fb, j, grad, f_block if state.adapt else None)
    alpha = _alpha_for_step(sched, j, k, state, f_block, w, s, grad, slope)
    if alpha != 0.0:
        if alpha != 1.0:  # as in the Armijo trial, bit for bit
            s *= alpha
        s += w
        w = s
    full._install(j, w)
    return j, alpha, gamma, lambda: math.sqrt(sqnorm(grad))


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
        state = _LoopState(cfg, net.spec, loss, data.n_samples)
    t0 = time.perf_counter()
    full = NetworkPass(net.copy(), data, loss)
    j, alpha, gamma, grad_norm = _step(full, k, state)
    f_val, full_norm, nmse = _full_diagnostics(full, _target_energy(data.Y))
    row = TraceRow(k, j, f_val, nmse, grad_norm(), full_norm, alpha, gamma,
                   time.perf_counter() - t0)
    return full.net, row


def run_loop(full: NetworkPass, step, iterations: int, cycle: int,
             record_every: int, tol: float, cap: float | None = None) -> TrainTrace:
    """Call ``step(k, residual)``, which updates ``full`` and returns (block,
    alpha, gamma, a callable giving the gradient norm, called only for a
    recorded row), for k = 1..iterations; ``residual`` is the last one
    taken, at W_{k-1} when ``cycle`` is 1. f and the residual are
    taken at each cycle's end, recorded row and last k; the run converges
    when a cycle ends at a residual <= ``tol`` and aborts on a non-finite
    value, on f over ``cap`` or on an overflow."""
    trace = TrainTrace()
    t0 = time.perf_counter()
    f_val = norm = math.nan
    energy = _target_energy(full.data.Y)
    try:
        f_val, norm, _ = _full_diagnostics(full, energy)
        trace.initial_f, trace.initial_grad_norm = f_val, norm
        if not (math.isfinite(f_val) and math.isfinite(norm)):
            trace.abort(f"non-finite objective {f_val} or residual {norm} at the start")
            iterations = 0  # no step from a non-finite start
        for k in range(1, iterations + 1):
            j, alpha, gamma, grad_norm = step(k, norm)
            trace.iterations_run = k
            cycle_end = (k % cycle == 0)
            record_due = (k % record_every == 0)
            if not (cycle_end or record_due or k == iterations):
                continue
            f_val, norm, nmse = _full_diagnostics(full, energy)
            if record_due:
                trace.rows.append(TraceRow(k, j, f_val, nmse, grad_norm(), norm, alpha,
                                           gamma, time.perf_counter() - t0))
            if cap is not None and not f_val <= cap:
                trace.abort(f"objective diverged to {f_val:.3g}")
                break
            if not (math.isfinite(f_val) and math.isfinite(norm)):
                trace.abort(f"non-finite objective {f_val} or residual {norm} "
                            f"after iteration {k}")
                break
            if cycle_end and norm <= tol:
                trace.converged = True
                break
    except OverflowError as exc:
        trace.abort(str(exc))
    trace.final_f, trace.final_grad_norm = f_val, norm
    return trace


def _train_loop(net: Network, data: Dataset, loss, cfg: TrainConfig):
    state = _LoopState(cfg, net.spec, loss, data.n_samples)
    full = NetworkPass(net.copy(), data, loss)
    record_every = cfg.record_every if cfg.record_every is not None else net.depth
    trace = run_loop(full, lambda k, _: _step(full, k, state), cfg.max_outer_iterations,
                     net.depth, record_every, cfg.grad_norm_tol)
    return full.net, trace


def train(net: Network, data: Dataset, loss, cfg: TrainConfig):
    """Cyclic block training with ``cfg.sampler``. With a mini-batch sampler
    the direction and stepsize are computed on the batch; the recorded f /
    residual-norm diagnostics always use the full dataset. Returns (trained
    network, TrainTrace)."""
    return _train_loop(net, data, loss, cfg)


def stochastic_train(net: Network, data: Dataset, loss, cfg: TrainConfig):
    """The same run as ``train``, under the name the benchmark looks up."""
    return _train_loop(net, data, loss, cfg)
