"""Catalog of activations, losses, and regularizers.

Every activation is an elementwise map with a hand-derived derivative.
Losses map a prediction batch H (dJ x N) and targets Y to a scalar,
excluding any regularization, and expose the gradient with respect to H.
Each loss declares whether it is convex in H, and the targets it accepts
(``labels``), checked where targets enter, not in its own methods.

Every logistic evaluation goes through one kernel, ``_sigmoid``: within 4
ulp of scipy's ``expit`` for u >= -708, within 1.3e-308 below (its exponent
is capped at 709), and no float64 input raises a floating-point warning.
Its five ufuncs cost a fixed 4-5 us a call (numpy 2.4, one core of a
2-vCPU VM), so it beats scalar ``expit`` above ~600 entries only. Sums of
squares use ``sqnorm``: one BLAS dot, ``ndarray.dot`` with ``np.vdot``'s bits.
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
    "REGULARIZERS", "loss_value", "loss_grad_H",
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
    s = np.negative(u, dtype=float)
    if not s.ndim:  # a numpy scalar
        s = np.array(s)
    np.minimum(s, 709.0, out=s)  # exp(709) = 8.2e307 does not overflow
    np.exp(s, out=s)
    np.add(s, 1.0, out=s)
    return np.reciprocal(s, out=s)


def _softplus(u: np.ndarray) -> np.ndarray:
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def sqnorm(x: np.ndarray) -> float:
    """Squared Frobenius norm ||x||_F^2 as one BLAS dot."""
    x = x.ravel()
    return float(x.dot(x))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

class Activation:
    """Elementwise activation with its first two derivatives."""

    name = "base"

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

    def value(self, u):
        return np.array(u, dtype=float)

    def derivative(self, u, z=None):
        return np.ones_like(u, dtype=float)

    def second_derivative(self, u, z=None):
        return np.zeros_like(u, dtype=float)


@dataclass(frozen=True, repr=False)
class Logistic(Activation):
    name = "logistic"

    def value(self, u):
        return _sigmoid(u)

    def derivative(self, u, z=None):
        s = _sigmoid(u) if z is None else z
        d = np.subtract(1.0, s)
        d *= s
        return d

    def second_derivative(self, u, z=None):
        s = _sigmoid(u) if z is None else z
        return s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass(frozen=True, repr=False)
class Tanh(Activation):
    name = "tanh"

    def value(self, u):
        return np.tanh(u)

    def derivative(self, u, z=None):
        t = np.tanh(u) if z is None else z
        out = t * t
        np.subtract(1.0, out, out=out)  # one temporary
        return out

    def second_derivative(self, u, z=None):
        # -2 t (1 - t^2), formed in one array
        t = np.tanh(u) if z is None else z
        out = t * t
        np.subtract(1.0, out, out=out)
        out *= t
        out *= -2.0
        return out


@dataclass(frozen=True, repr=False)
class Softplus(Activation):
    name = "softplus"

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

    Slope tends to alpha far left and 1 far right.
    """

    alpha: float = 0.1
    name = "leaky_relu_smooth"

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
    labels = None  # the accepted target values; None takes any real target

    def check_labels(self, Y: np.ndarray) -> None:
        """Raise DomainError when targets are outside the loss's label set."""
        if self.labels is not None and not np.all(np.isin(Y, self.labels)):
            raise DomainError(f"{self.name} targets must be one of {self.labels}")

    def value(self, H: np.ndarray, Y: np.ndarray) -> float:
        raise NotImplementedError

    def value_and_sse(self, H: np.ndarray, Y: np.ndarray) -> tuple:
        """The value, and ||Y - H||_F^2 if the value is a multiple of it."""
        return self.value(H, Y), None

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

    def value(self, H, Y):
        return self.value_and_sse(H, Y)[0]

    def value_and_sse(self, H, Y):
        sse = sqnorm(Y - H)
        return sse / H.shape[1], sse

    def grad_H(self, H, Y):
        g = H - Y
        g *= 2.0 / H.shape[1]
        return g

    def curvature_H(self, H, Y):
        return _diagonal_blocks(np.full(H.shape, 2.0 / H.shape[1])), 0.0


@dataclass(frozen=True, repr=False)
class ExponentialLoss(Loss):
    """c * exp((1/c) * (1/N) * ||Y - H||_F^2).

    Raises OverflowError (instead of returning inf) when the exponent
    exceeds the float64 range.
    """

    c: float = 1.0
    name = "exponential"
    convex_in_H = True

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
    Targets must be 0/1.
    """

    name = "cross_entropy"
    convex_in_H = True
    labels = (0.0, 1.0)

    def _clamped(self, H):
        if np.any(H < 0.0) or np.any(H > 1.0):
            raise DomainError("cross-entropy predictions must lie in [0, 1]")
        return np.clip(H, _CE_CLAMP, 1.0 - _CE_CLAMP)

    def value(self, H, Y):
        h = self._clamped(H)
        terms = Y * np.log(h) + (1.0 - Y) * np.log(1.0 - h)
        return -float(np.sum(terms)) / H.shape[1]

    def grad_H(self, H, Y):
        h = self._clamped(H)
        return (-Y / h + (1.0 - Y) / (1.0 - h)) / H.shape[1]

    def curvature_H(self, H, Y):
        h = self._clamped(H)
        # grad_H is constant in H where the clamp is active
        v = np.where(h == H, Y / (h * h) + (1.0 - Y) / ((1.0 - h) * (1.0 - h)), 0.0)
        return _diagonal_blocks(v / H.shape[1]), 0.0


@dataclass(frozen=True, repr=False)
class SquaredHingeLoss(Loss):
    """(1/(2cN)) * sum((1 - Y*H)_+^2) with labels in {-1, +1}."""

    c: float = 1.0
    name = "squared_hinge"
    convex_in_H = True
    labels = (-1.0, 1.0)

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError(f"squared hinge needs c > 0, got {self.c}")

    def value(self, H, Y):
        return sqnorm(np.maximum(0.0, 1.0 - Y * H)) / (2.0 * self.c * H.shape[1])

    def grad_H(self, H, Y):
        m = np.maximum(0.0, 1.0 - Y * H)
        return -(Y * m) / (self.c * H.shape[1])

    def curvature_H(self, H, Y):
        active = (1.0 - Y * H > 0.0).astype(float)
        return _diagonal_blocks(active / (self.c * H.shape[1])), 0.0


@dataclass(frozen=True, repr=False)
class LogisticLoss(Loss):
    """(1/N) * sum_n log(1 + exp(-y_n . h_n)) with labels in {-1, +1}.

    The inner product couples the dJ outputs of each sample.
    """

    name = "logistic"
    convex_in_H = True
    labels = (-1.0, 1.0)

    def value(self, H, Y):
        margins = np.sum(Y * H, axis=0)
        return float(np.sum(np.logaddexp(0.0, -margins))) / H.shape[1]

    def grad_H(self, H, Y):
        margins = np.sum(Y * H, axis=0)
        return -(Y * _sigmoid(-margins)) / H.shape[1]

    def curvature_H(self, H, Y):
        # rank one within a sample: sigma(m) sigma(-m) y_n y_n^T / N
        margins = np.sum(Y * H, axis=0)
        w = _sigmoid(margins) * _sigmoid(-margins) / H.shape[1]
        return Y[:, None, :] * Y[None, :, :] * w, 0.0


def _diagonal_blocks(v: np.ndarray) -> np.ndarray:
    """(d, d, N) blocks with v[:, n] on the diagonal of block n."""
    return np.eye(v.shape[0])[:, :, None] * v


LOSSES = {cls.name: cls for cls in (L2Loss, ExponentialLoss, CrossEntropyLoss,
                                    SquaredHingeLoss, LogisticLoss)}


def _check_pair(kind: Loss, H, Y):
    H = np.asarray(H, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if H.shape != Y.shape:
        raise DomainError(f"H shape {H.shape} != Y shape {Y.shape}")
    kind.check_labels(Y)
    return H, Y


def loss_value(kind: Loss, H: np.ndarray, Y: np.ndarray) -> float:
    """Scalar data-fit loss, excluding all regularization."""
    H, Y = _check_pair(kind, H, Y)
    return kind.value(H, Y)


def loss_grad_H(kind: Loss, H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient of loss_value with respect to H, shape dJ x N."""
    H, Y = _check_pair(kind, H, Y)
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

def classify_convexity(loss: Loss, activations, reg: Regularizer) -> str:
    """Curvature class of the objective in block j, given the activations
    of layers j..J: "strongly_convex" or "unknown".

    When every one of them is the identity, the output is affine in W_j and
    the block objective is the loss of an affine map plus the penalty. It is
    then strongly convex (modulus ``reg.strong_convexity``) under a loss
    convex in H and an L2 penalty. Any other block is unknown: a nonlinear
    layer from j up can make the block objective indefinite in W_j, whatever
    the loss.
    """
    if not all(isinstance(a, Identity) for a in activations):
        return "unknown"
    if loss.convex_in_H and reg.strong_convexity > 0:
        return "strongly_convex"
    return "unknown"
