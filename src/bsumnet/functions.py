"""Catalog of activations, losses, and regularizers with their analytic traits.

Every activation is an elementwise map with a hand-derived derivative and a
set of declared traits (convex / concave / nondecreasing / smooth / bounded)
that the test suite verifies against randomized secant probes. Losses map a
prediction batch H (dJ x N) and targets Y to a scalar, excluding any
regularization, and expose the gradient with respect to H.

Monotonicity of a loss is declared with respect to H for real-target losses
and with respect to the margin Y*H for the +/-1-label classification losses
(squared hinge, logistic), whose direction in raw H flips with the label.
Cross-entropy has no single direction in either parameterization, so it is
declared non-monotone.

Every logistic evaluation goes through one kernel, ``_sigmoid``: within 4
ulp of scipy's ``expit`` for u >= -708, within 1.3e-308 below (its exponent
is capped at 709), and no float64 input raises a floating-point warning.
Its five vectorized ufuncs cost a fixed 4-5 us a call (numpy 2.4, one core
of a 2-vCPU VM), so it beats scalar ``expit`` only above ~600 entries: 2x
faster on a 10 x 252 stage, 4-5x slower on a 10 x 1 one. Sums of squares
use ``sqnorm``, one BLAS dot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonSmoothError

__all__ = [
    "Activation", "Identity", "Logistic", "Tanh", "Softplus",
    "LeakyReluSmooth", "BentIdentity", "ACTIVATIONS",
    "Loss", "L2Loss", "ExponentialLoss", "CrossEntropyLoss",
    "SquaredHingeLoss", "LogisticLoss", "LOSSES",
    "Regularizer", "L2Regularizer", "L1Regularizer",
    "REGULARIZERS", "BlockCurvature", "loss_value", "loss_grad_H",
    "classify_convexity", "sqnorm",
]

# exponent above which exp() would overflow float64
_EXP_LIMIT = 700.0

# cross-entropy predictions are clamped this far inside (0, 1) before log;
# saturated logistic outputs round to exactly 0.0/1.0 in float64
_CE_CLAMP = 1e-12


def _sigmoid(u) -> np.ndarray:
    """1 / (1 + exp(-u)) in place on a fresh float64 array (0-d for a scalar
    or 0-d input); the input is never written."""
    s = np.negative(u, out=np.empty(np.shape(u)))
    np.minimum(s, 709.0, out=s)  # exp(709) = 8.2e307 does not overflow
    np.exp(s, out=s)
    np.add(s, 1.0, out=s)
    return np.reciprocal(s, out=s)


def _softplus(u: np.ndarray) -> np.ndarray:
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def sqnorm(x: np.ndarray) -> float:
    """Squared Frobenius norm ||x||_F^2 as one BLAS dot."""
    return float(np.vdot(x, x))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

class Activation:
    """Elementwise activation with declared analytic traits."""

    name = "base"
    convex = False
    concave = False
    nondecreasing = False
    smooth = True
    bounded = False

    def value(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, u: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """sigma'(u). ``z`` may carry the already computed sigma(u); kinds
        whose derivative is a function of the output (logistic, tanh) then
        skip re-evaluating sigma, others ignore it."""
        raise NotImplementedError

    def second_derivative(self, u: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """sigma''(u); ``z`` as in ``derivative``."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class Identity(Activation):
    name = "identity"
    convex = True
    concave = True
    nondecreasing = True

    def value(self, u):
        return np.array(u, dtype=float)

    def derivative(self, u, z=None):
        return np.ones_like(u, dtype=float)

    def second_derivative(self, u, z=None):
        return np.zeros_like(u, dtype=float)


@dataclass(frozen=True, repr=False)
class Logistic(Activation):
    name = "logistic"
    nondecreasing = True
    bounded = True

    def value(self, u):
        return _sigmoid(u)

    def derivative(self, u, z=None):
        s = _sigmoid(u) if z is None else z
        return s * (1.0 - s)

    def second_derivative(self, u, z=None):
        s = _sigmoid(u) if z is None else z
        return s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass(frozen=True, repr=False)
class Tanh(Activation):
    name = "tanh"
    nondecreasing = True
    bounded = True

    def value(self, u):
        return np.tanh(u)

    def derivative(self, u, z=None):
        t = np.tanh(u) if z is None else z
        return 1.0 - t * t

    def second_derivative(self, u, z=None):
        t = np.tanh(u) if z is None else z
        return -2.0 * t * (1.0 - t * t)


@dataclass(frozen=True, repr=False)
class Softplus(Activation):
    name = "softplus"
    convex = True
    nondecreasing = True

    def value(self, u):
        return _softplus(np.asarray(u, dtype=float))

    def derivative(self, u, z=None):
        return _sigmoid(u)

    def second_derivative(self, u, z=None):
        s = _sigmoid(u)
        return s * (1.0 - s)


@dataclass(frozen=True, repr=False)
class LeakyReluSmooth(Activation):
    """Smooth surrogate for leaky ReLU: alpha*u + (1-alpha)*softplus(u).

    Slope tends to alpha far left and 1 far right; convex and increasing for
    alpha in (0, 1).
    """

    alpha: float = 0.1
    name = "leaky_relu_smooth"
    convex = True
    nondecreasing = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"leak alpha must be in (0,1), got {self.alpha}")

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return self.alpha * u + (1.0 - self.alpha) * _softplus(u)

    def derivative(self, u, z=None):
        return self.alpha + (1.0 - self.alpha) * _sigmoid(u)

    def second_derivative(self, u, z=None):
        s = _sigmoid(u)
        return (1.0 - self.alpha) * s * (1.0 - s)


@dataclass(frozen=True, repr=False)
class BentIdentity(Activation):
    name = "bent_identity"
    convex = True
    nondecreasing = True

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return (np.sqrt(u * u + 1.0) - 1.0) / 2.0 + u

    def derivative(self, u, z=None):
        u = np.asarray(u, dtype=float)
        return u / (2.0 * np.sqrt(u * u + 1.0)) + 1.0

    def second_derivative(self, u, z=None):
        u = np.asarray(u, dtype=float)
        return 0.5 / (u * u + 1.0) ** 1.5


ACTIVATIONS = {cls.name: cls for cls in (Identity, Logistic, Tanh, Softplus,
                                         LeakyReluSmooth, BentIdentity)}


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class Loss:
    """Scalar data-fit term and its gradient with respect to predictions H."""

    name = "base"
    convex_in_H = False
    monotone = "none"  # "nondecreasing" | "nonincreasing" | "none"

    def check_labels(self, Y: np.ndarray) -> None:
        """Raise DomainError when targets are outside the loss's label set."""

    def value(self, H: np.ndarray, Y: np.ndarray) -> float:
        raise NotImplementedError

    def grad_H(self, H: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def curvature_H(self, H: np.ndarray, Y: np.ndarray):
        """Second derivatives in H as (C, kappa): C[:, :, n] is the dJ x dJ
        Hessian in column n of H, and the Hessian in vec(H) is
        blockdiag(C_n) + kappa * g g^T with g = grad_H(H, Y). kappa is 0 for
        a sum of per-sample terms."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class L2Loss(Loss):
    """Mean squared error (1/N) * ||Y - H||_F^2."""

    name = "l2"
    convex_in_H = True
    monotone = "none"

    def value(self, H, Y):
        return sqnorm(Y - H) / H.shape[1]

    def grad_H(self, H, Y):
        return (2.0 / H.shape[1]) * (H - Y)

    def curvature_H(self, H, Y):
        return _diagonal_blocks(np.full(H.shape, 2.0 / H.shape[1])), 0.0


@dataclass(frozen=True, repr=False)
class ExponentialLoss(Loss):
    """c * exp((1/c) * (1/N) * ||Y - H||_F^2).

    Convex and increasing in the residual energy, which is the monotonicity
    that matters for block-convexity when composed with convex nondecreasing
    activations. Raises OverflowError (instead of returning inf) when the
    exponent exceeds the float64 range.
    """

    c: float = 1.0
    name = "exponential"
    convex_in_H = True
    monotone = "nondecreasing"

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError(f"exponential loss needs c > 0, got {self.c}")

    def _exp(self, H, Y):
        q = sqnorm(Y - H) / (self.c * H.shape[1])
        if q > _EXP_LIMIT:
            raise OverflowError(f"exponential-loss exponent {q:.3g} exceeds float64 range")
        return np.exp(q)

    def value(self, H, Y):
        return self.c * float(self._exp(H, Y))

    def grad_H(self, H, Y):
        return (2.0 / H.shape[1]) * (H - Y) * self._exp(H, Y)

    def curvature_H(self, H, Y):
        # the exponent couples all samples; its rank-one part is g g^T / loss
        e = self._exp(H, Y)
        return _diagonal_blocks(np.full(H.shape, 2.0 * e / H.shape[1])), \
            1.0 / (self.c * float(e))


@dataclass(frozen=True, repr=False)
class CrossEntropyLoss(Loss):
    """Binary cross-entropy, -(1/N) * sum[Y log H + (1-Y) log(1-H)].

    Predictions must lie in [0, 1]; values within _CE_CLAMP of the boundary
    are clamped before the log, anything outside [0, 1] is a domain error.
    Targets must be 0/1. Direction in H flips with the label, so the loss is
    declared non-monotone.
    """

    name = "cross_entropy"
    convex_in_H = True
    monotone = "none"

    def check_labels(self, Y):
        if not np.all((Y == 0.0) | (Y == 1.0)):
            raise DomainError("cross-entropy targets must be 0 or 1")

    def _clamped(self, H):
        if np.any(H < 0.0) or np.any(H > 1.0):
            raise DomainError("cross-entropy predictions must lie in [0, 1]")
        return np.clip(H, _CE_CLAMP, 1.0 - _CE_CLAMP)

    def value(self, H, Y):
        self.check_labels(Y)
        h = self._clamped(H)
        terms = Y * np.log(h) + (1.0 - Y) * np.log(1.0 - h)
        return -float(np.sum(terms)) / H.shape[1]

    def grad_H(self, H, Y):
        self.check_labels(Y)
        h = self._clamped(H)
        return (-Y / h + (1.0 - Y) / (1.0 - h)) / H.shape[1]

    def curvature_H(self, H, Y):
        self.check_labels(Y)
        h = self._clamped(H)
        # grad_H is constant in H where the clamp is active
        v = np.where(h == H, Y / (h * h) + (1.0 - Y) / ((1.0 - h) * (1.0 - h)), 0.0)
        return _diagonal_blocks(v / H.shape[1]), 0.0


@dataclass(frozen=True, repr=False)
class SquaredHingeLoss(Loss):
    """(1/(2cN)) * sum((1 - Y*H)_+^2) with labels in {-1, +1}.

    Nonincreasing in the margin Y*H.
    """

    c: float = 1.0
    name = "squared_hinge"
    convex_in_H = True
    monotone = "nonincreasing"

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError(f"squared hinge needs c > 0, got {self.c}")

    def check_labels(self, Y):
        if not np.all(np.abs(Y) == 1.0):
            raise DomainError("squared-hinge targets must be -1 or +1")

    def value(self, H, Y):
        self.check_labels(Y)
        return sqnorm(np.maximum(0.0, 1.0 - Y * H)) / (2.0 * self.c * H.shape[1])

    def grad_H(self, H, Y):
        self.check_labels(Y)
        m = np.maximum(0.0, 1.0 - Y * H)
        return -(Y * m) / (self.c * H.shape[1])

    def curvature_H(self, H, Y):
        self.check_labels(Y)
        active = (1.0 - Y * H > 0.0).astype(float)
        return _diagonal_blocks(active / (self.c * H.shape[1])), 0.0


@dataclass(frozen=True, repr=False)
class LogisticLoss(Loss):
    """(1/N) * sum_n log(1 + exp(-y_n . h_n)) with labels in {-1, +1}.

    The inner product couples the dJ outputs of each sample; nonincreasing in
    the per-sample margin.
    """

    name = "logistic"
    convex_in_H = True
    monotone = "nonincreasing"

    def check_labels(self, Y):
        if not np.all(np.abs(Y) == 1.0):
            raise DomainError("logistic-loss targets must be -1 or +1")

    def value(self, H, Y):
        self.check_labels(Y)
        margins = np.sum(Y * H, axis=0)
        return float(np.sum(np.logaddexp(0.0, -margins))) / H.shape[1]

    def grad_H(self, H, Y):
        self.check_labels(Y)
        margins = np.sum(Y * H, axis=0)
        return -(Y * _sigmoid(-margins)) / H.shape[1]

    def curvature_H(self, H, Y):
        # rank one within a sample: sigma(m) sigma(-m) y_n y_n^T / N
        self.check_labels(Y)
        margins = np.sum(Y * H, axis=0)
        w = _sigmoid(margins) * _sigmoid(-margins) / H.shape[1]
        return Y[:, None, :] * Y[None, :, :] * w, 0.0


def _diagonal_blocks(v: np.ndarray) -> np.ndarray:
    """(d, d, N) blocks with v[:, n] on the diagonal of block n."""
    return np.eye(v.shape[0])[:, :, None] * v


LOSSES = {cls.name: cls for cls in (L2Loss, ExponentialLoss, CrossEntropyLoss,
                                    SquaredHingeLoss, LogisticLoss)}


def _check_pair(H, Y):
    H = np.asarray(H, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if H.shape != Y.shape:
        raise DomainError(f"H shape {H.shape} != Y shape {Y.shape}")
    return H, Y


def loss_value(kind: Loss, H: np.ndarray, Y: np.ndarray) -> float:
    """Scalar data-fit loss, excluding all regularization."""
    H, Y = _check_pair(H, Y)
    return kind.value(H, Y)


def loss_grad_H(kind: Loss, H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient of loss_value with respect to H, shape dJ x N."""
    H, Y = _check_pair(H, Y)
    return kind.grad_H(H, Y)


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regularizer:
    """Per-layer weight penalty: squared Frobenius, entrywise L1, or none.

    The squared-Frobenius penalty lam*||W||_F^2 is strongly convex with
    modulus 2*lam; L1 is non-smooth and only usable through the prox path.
    This base class is the "none" kind.
    """

    name = "none"
    lam = 0.0
    smooth = True
    strong_convexity = 0.0  # modulus; nonzero only for an active squared-Frobenius term

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError(f"regularizer strength must be >= 0, got {self.lam}")

    @property
    def kind(self) -> str:
        return self.name

    @staticmethod
    def none():
        return Regularizer()

    @staticmethod
    def l2(lam: float):
        return L2Regularizer(lam)

    @staticmethod
    def l1(lam: float):
        return L1Regularizer(lam)

    def value(self, W: np.ndarray) -> float:
        return 0.0

    def grad(self, W: np.ndarray) -> np.ndarray:
        return np.zeros_like(W)


@dataclass(frozen=True)
class L2Regularizer(Regularizer):
    lam: float = 0.0
    name = "l2"

    @property
    def strong_convexity(self) -> float:
        return 2.0 * self.lam

    def value(self, W):
        return self.lam * sqnorm(W)

    def grad(self, W):
        return 2.0 * self.lam * W


@dataclass(frozen=True)
class L1Regularizer(Regularizer):
    lam: float = 0.0
    name = "l1"

    @property
    def smooth(self) -> bool:
        return self.lam == 0.0

    def value(self, W):
        return self.lam * float(np.sum(np.abs(W)))

    def grad(self, W):
        if not self.smooth:
            raise NonSmoothError("L1 regularizer has no gradient; use the prox path")
        return np.zeros_like(W)


REGULARIZERS = {cls.name: cls for cls in (Regularizer, L2Regularizer, L1Regularizer)}


# ---------------------------------------------------------------------------
# block curvature classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockCurvature:
    """What is known about a block objective's curvature from declared traits."""

    kind: str  # "strongly_convex" | "concave" | "unknown"
    modulus: float = 0.0

    @classmethod
    def strongly_convex(cls, modulus: float):
        return cls("strongly_convex", modulus)

    @classmethod
    def concave(cls):
        return cls("concave")

    @classmethod
    def unknown(cls):
        return cls("unknown")

    @property
    def is_strongly_convex(self) -> bool:
        return self.kind == "strongly_convex"

    @property
    def is_concave(self) -> bool:
        return self.kind == "concave"


def classify_convexity(loss: Loss, activations, reg: Regularizer) -> BlockCurvature:
    """Classify each block objective's curvature from the trait tables.

    Strongly convex (modulus = the regularizer's) when either
      - all activations convex nondecreasing and the loss convex nondecreasing, or
      - all activations concave nondecreasing and the loss convex nonincreasing,
    and the regularizer is strongly convex. Concave when all activations are
    convex nondecreasing, the loss concave nonincreasing, and no regularizer
    is present. Everything else is unknown.
    """
    acts = list(activations)
    all_cvx_nondec = all(a.convex and a.nondecreasing for a in acts)
    all_ccv_nondec = all(a.concave and a.nondecreasing for a in acts)

    c1 = all_cvx_nondec and loss.convex_in_H and loss.monotone == "nondecreasing"
    c2 = all_ccv_nondec and loss.convex_in_H and loss.monotone == "nonincreasing"
    if (c1 or c2) and reg.strong_convexity > 0:
        return BlockCurvature.strongly_convex(reg.strong_convexity)

    loss_concave = getattr(loss, "concave_in_H", False)
    if all_cvx_nondec and loss_concave and loss.monotone == "nonincreasing" \
            and reg.name == "none":
        return BlockCurvature.concave()

    return BlockCurvature.unknown()
