"""Layered network model: specs, weights, feasible sets, and forward propagation.

Matrices everywhere are dense float64 ``numpy`` arrays in row-major (C) order.
A network with J layers maps a batch ``X`` of shape ``(d0, N)`` through

    Z_0 = X,   U_j = W_j @ Z_{j-1},   Z_j = sigma_j(U_j),   j = 1..J

where ``W_j`` has shape ``(d_j, d_{j-1})`` and ``sigma_j`` acts elementwise.
Layer indices in the public API are 1-based (j = 1..J), matching the cyclic
block convention used by the trainer; internal lists are 0-based.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, SpecError

__all__ = [
    "FeasibleSet",
    "Unconstrained",
    "Toeplitz",
    "FrobeniusBall",
    "FEASIBLE_SETS",
    "INIT_SCHEMES",
    "NetworkSpec",
    "Network",
    "LayerOutputs",
    "Dataset",
    "build_network",
    "forward",
]


# ---------------------------------------------------------------------------
# feasible sets
# ---------------------------------------------------------------------------

class FeasibleSet:
    """A closed convex set of admissible weight matrices."""

    name = "base"

    def project(self, w: np.ndarray) -> np.ndarray:
        """The nearest member of the set, possibly ``w`` itself (not a copy)."""
        raise NotImplementedError

    def kernel_index(self, shape: tuple) -> np.ndarray | None:
        """For a subspace of tied entries, each entry's coordinate (row-major)
        in the kernel v, the members being v[index]; else None."""
        return None

    def kernel_ties(self, shape: tuple) -> np.ndarray | None:
        """With a kernel index, each kernel coordinate's count of entries (the
        diagonal of P'P, P the 0/1 map from kernel to members) as floats."""
        return None


@dataclass(frozen=True)
class Unconstrained(FeasibleSet):
    name = "unconstrained"

    def project(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(w, dtype=float)


@dataclass(frozen=True)
class Toeplitz(FeasibleSet):
    """Matrices constant along every diagonal (circular-convolution weights).

    A subspace whose kernel is its rows + cols - 1 diagonal values; the
    Frobenius-orthogonal projection replaces each diagonal by its mean. A
    diagonal that is already constant keeps its value exactly (a summed mean
    can be an ulp off), so the projection is bitwise idempotent.
    """

    name = "toeplitz"

    def kernel_index(self, shape: tuple) -> np.ndarray:
        """Diagonal of each entry, from 0 (bottom-left) to rows + cols - 2; one
        read-only array per shape."""
        return _diagonal_plan(*shape)[0]

    def kernel_ties(self, shape: tuple) -> np.ndarray:
        """Each diagonal's length; one read-only array per shape."""
        return _diagonal_plan(*shape)[1]

    def project(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        index, ties, first = _diagonal_plan(*w.shape)
        flat = w.ravel()
        head = flat[first]
        out = np.bincount(index, weights=flat)
        out /= ties
        varies = np.bincount(index, weights=flat != head[index])
        np.copyto(out, head, where=np.logical_not(varies))
        return out[index].reshape(w.shape)


@functools.lru_cache(maxsize=8)
def _diagonal_plan(rows: int, cols: int) -> tuple:
    """Each entry's diagonal, each diagonal's tie count as floats and the
    flat index of its first entry; read-only arrays, one plan per shape."""
    index = (np.arange(cols) - np.arange(rows)[:, None] + rows - 1).ravel()
    offsets = np.arange(1 - rows, cols)
    plan = index, np.bincount(index).astype(float), \
        np.maximum(-offsets, 0) * cols + np.maximum(offsets, 0)
    for a in plan:
        a.flags.writeable = False
    return plan


@dataclass(frozen=True)
class FrobeniusBall(FeasibleSet):
    """The ball { W : ||W||_F <= radius }; projection is radial scaling."""

    radius: float
    name = "frobenius_ball"

    def __post_init__(self):
        if not self.radius > 0:
            raise SpecError(f"FrobeniusBall radius must be positive, got {self.radius}")

    def project(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        norm = np.linalg.norm(w)
        # the relative slack keeps the projection bitwise idempotent: a
        # rescaled matrix can land a few ulps outside the radius
        if norm <= self.radius * (1.0 + 1e-14):
            return w
        return w * (self.radius / norm)


FEASIBLE_SETS = {cls.name: cls for cls in (Unconstrained, Toeplitz, FrobeniusBall)}


# ---------------------------------------------------------------------------
# specs and value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: dims [d0..dJ] plus per-layer kinds.

    ``activations``, ``feasible_sets`` and ``regularizers`` all have length
    J = len(dims) - 1, one entry per layer.
    """

    dims: tuple
    activations: tuple
    feasible_sets: tuple
    regularizers: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "activations", tuple(self.activations))
        object.__setattr__(self, "feasible_sets", tuple(self.feasible_sets))
        object.__setattr__(self, "regularizers", tuple(self.regularizers))
        if len(self.dims) < 2:
            raise SpecError("need at least one layer: dims must list [d0, ..., dJ]")
        if any(d < 1 for d in self.dims):
            raise SpecError(f"all dims must be >= 1, got {self.dims}")
        j = self.depth
        for name, seq in (
            ("activations", self.activations),
            ("feasible_sets", self.feasible_sets),
            ("regularizers", self.regularizers),
        ):
            if len(seq) != j:
                raise SpecError(f"{name} has length {len(seq)}, expected {j}")

    @property
    def depth(self) -> int:
        return len(self.dims) - 1

    def layer_shape(self, j: int) -> tuple:
        """Shape of W_j for 1-based layer index j."""
        return (self.dims[j], self.dims[j - 1])

    @classmethod
    def homogeneous(cls, dims, activation, regularizer=None, feasible=None):
        """Spec with one activation/regularizer/feasible set shared by all layers."""
        from .functions import Regularizer

        j = len(dims) - 1
        reg = regularizer if regularizer is not None else Regularizer.none()
        fs = feasible if feasible is not None else Unconstrained()
        return cls(tuple(dims), (activation,) * j, (fs,) * j, (reg,) * j)


@dataclass
class Network:
    """A spec together with concrete weights (weights[j-1] is W_j)."""

    spec: NetworkSpec
    weights: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.weights) != self.spec.depth:
            raise SpecError(
                f"expected {self.spec.depth} weight matrices, got {len(self.weights)}"
            )
        for j in range(1, self.spec.depth + 1):
            got = self.weights[j - 1].shape
            want = self.spec.layer_shape(j)
            if got != want:
                raise ShapeError(f"W_{j} has shape {got}, spec wants {want}")

    @property
    def depth(self) -> int:
        return self.spec.depth

    def copy(self) -> "Network":
        return Network(self.spec, [w.copy() for w in self.weights])


@dataclass
class LayerOutputs:
    """All intermediate stages of one forward pass.

    ``pre_activations[j-1]`` is U_j = W_j Z_{j-1} and ``post_activations[j]``
    is Z_j, with ``post_activations[0]`` the input batch.
    """

    pre_activations: list
    post_activations: list

    @property
    def output(self) -> np.ndarray:
        return self.post_activations[-1]

    def refresh(self, net: "Network", start: int) -> "LayerOutputs":
        """Recompute U_j and Z_j for j >= start, in place, from the kept
        Z_{start-1}: after a change to W_start only that suffix is redone."""
        pre, post = self.pre_activations, self.post_activations
        del pre[start - 1:], post[start:]
        z = post[-1]
        weights, acts = net.weights, net.spec.activations
        for j in range(start - 1, len(weights)):
            u = weights[j].dot(z)
            z = acts[j].value(u)
            pre.append(u)
            post.append(z)
        return self


@dataclass
class Dataset:
    """Input batch X (d0 x N) and target batch Y (dJ x N), C-ordered float64."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=float)
        self.Y = np.ascontiguousarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ShapeError("X and Y must be 2-D matrices")
        if self.X.shape[1] != self.Y.shape[1]:
            raise ShapeError(
                f"X has {self.X.shape[1]} samples but Y has {self.Y.shape[1]}"
            )
        if self.X.shape[1] < 1:
            raise SpecError("dataset needs at least one sample")

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]

    def restrict(self, idx) -> "Dataset":
        """Column subset (a mini-batch)."""
        return Dataset(self.X[:, idx], self.Y[:, idx])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

INIT_SCHEMES = ("zeros", "uniform", "gaussian")


def build_network(spec: NetworkSpec, init: str = "uniform", seed: int = 0,
                  scale: float | None = None) -> Network:
    """Draw weights per scheme, then project each layer onto its feasible set.

    Deterministic in (spec, init, seed >= 0, scale > 0). The default per-layer
    scale is 1/sqrt(d_{j-1}), which keeps pre-activations O(1) at the start so
    bounded activations do not saturate. Schemes: "zeros", "uniform" on
    (-s, s), or "gaussian" with standard deviation s.
    """
    if init not in INIT_SCHEMES:
        raise SpecError(f"unknown init scheme {init!r}; options: {INIT_SCHEMES}")
    if seed < 0 or not (scale is None or scale > 0):
        raise SpecError(f"need seed >= 0 and scale None or > 0, got {seed} and {scale}")
    rng = np.random.default_rng(seed)
    weights = []
    for j in range(1, spec.depth + 1):
        shape = spec.layer_shape(j)
        s = scale if scale is not None else 1.0 / math.sqrt(spec.dims[j - 1])
        if init == "zeros":
            w = np.zeros(shape)
        elif init == "uniform":
            w = rng.uniform(-s, s, size=shape)
        else:
            w = rng.normal(0.0, s, size=shape)
        weights.append(spec.feasible_sets[j - 1].project(w))
    return Network(spec, weights)


def forward(net: Network, X: np.ndarray) -> LayerOutputs:
    """Propagate a batch through every layer, keeping all U_j and Z_j.

    Pure in (net, X): no mutation, reentrant, repeat calls agree bitwise.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != net.spec.dims[0]:
        raise ShapeError(
            f"input has shape {X.shape}, expected ({net.spec.dims[0]}, N)"
        )
    return LayerOutputs([], [X]).refresh(net, 1)

