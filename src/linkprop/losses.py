"""Matrix-form losses and exact full-batch gradients for the four models.

All four objectives are the same weighted pairwise logistic loss

    L = -1/2 sum_ij [ W+_ij log sigma(s_ij) + lam * W-_ij log sigma(-s_ij) ]
        + (beta/2) ||X||_F^2

differing only in the weight matrices and in whether scores come from raw or
propagated embeddings:

    mf            s = X X^T          W+ = A              W- = B
    line          s = X X^T          W+ = D_A^-1 A       W- = B
    deepwalk(w)   s = X X^T          W+ = avg of (D_A^-1 A)^1..w
                                     W- = D_B^-1 B
    lightgcn(K)   s = Xb Xb^T        W+ = A              W- = B
                  Xb = avg of (D^-1/2 A D^-1/2)^0..K applied to X

Row-normalized weight matrices are stored symmetrized, (W + W^T)/2.  The
loss value is unchanged (scores are symmetric), and it makes the analytic
gradient a single sparse-sandwich expression

    grad = beta*X - P [ W+ . sigma(-s) - lam * W- . sigma(s) ] P X

with P the score propagation (identity except for lightgcn).  "." is the
elementwise product restricted to the weight support; the Gram matrix is
never formed densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from linkprop.graphs import (Graph, ProximityOperator, SupportPattern, normalize,
                             normalize_matrix, proximity, symmetrize)
from linkprop.negatives import NegativeSet

MODELS = ("mf", "line", "deepwalk", "lightgcn")


class DivergenceError(RuntimeError):
    """Training state went non-finite.  Carries the step it happened at."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(message if step is None
                         else f"{message} (step {step})")


@dataclass(frozen=True)
class ModelParams:
    """Which model, plus the shared loss hyperparameters.

    window only matters for deepwalk, layers only for lightgcn; both are
    ignored elsewhere.
    """

    model: str
    window: int = 5
    layers: int = 3
    lam: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; pick from {MODELS}")
        if self.window < 1:
            raise ValueError("deepwalk window must be >= 1")
        if self.layers < 0:
            raise ValueError("lightgcn layer count must be >= 0")
        for name in ("lam", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True, eq=False)
class MaskSet:
    """Positive/negative weight matrices, their union support, and the
    score propagation operator."""

    pos: sp.csr_array = field(repr=False)
    neg: sp.csr_array = field(repr=False)
    prop: ProximityOperator = field(repr=False)

    @cached_property
    def pattern(self) -> SupportPattern:
        # built on first use: callers that only score never pay for it
        return SupportPattern(self.pos, self.neg)


def scoring_propagation(graph: Graph, params: ModelParams) -> ProximityOperator:
    """P of the model: symmetric-normalized powers 0..layers for lightgcn,
    the identity otherwise."""
    if params.model == "lightgcn":
        return proximity(normalize(graph, "symmetric"), 0, params.layers)
    return proximity(normalize(graph, "none"), 0, 0)


def build_masks(graph: Graph, negatives: NegativeSet,
                params: ModelParams) -> MaskSet:
    """Weight matrices for one model, ready for model_loss / loss_gradient.

    deepwalk's positive matrix averages walk-transition powers 1..window and
    is materialized once here.
    """
    pos, neg = graph.adjacency, negatives.adjacency
    if params.model == "line":
        pos = symmetrize(normalize(graph, "row").matrix)
    elif params.model == "deepwalk":
        walk = proximity(normalize(graph, "row"), 1, params.window)
        pos = symmetrize(walk.materialize())
        neg = symmetrize(normalize_matrix(neg, "row").matrix)
    return MaskSet(pos=pos, neg=neg, prop=scoring_propagation(graph, params))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, overflow-safe on both tails: exp only
    sees -|z|.  np.minimum(z, -z), not -np.abs(z), keeps a NaN's sign."""
    z = np.asarray(z)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def support_loss(X: np.ndarray, s: np.ndarray, pattern: SupportPattern,
                 lam: float, beta: float) -> float:
    """The loss from scores s on the pattern's union support, each mask's
    term summed in its stored order.  -log sigma(s) is logaddexp(0, -s), so
    saturated scores cannot overflow."""
    total = 0.0
    pos, neg = pattern.pos, pattern.neg
    if pos.weights.size:
        total += float(np.dot(pos.weights, np.logaddexp(0.0, -s[pos.slots])))
    if neg.weights.size:
        total += lam * float(np.dot(neg.weights, np.logaddexp(0.0, s[neg.slots])))
    return 0.5 * total + 0.5 * beta * float(np.sum(X * X))


def bce_loss(X: np.ndarray, pos: sp.csr_array, neg: sp.csr_array,
             lam: float = 1.0, beta: float = 0.0) -> float:
    """Weighted pairwise logistic loss of the Gram scores of X.

    Only the nonzero entries of the weight matrices are touched.
    """
    if pos.shape != neg.shape or pos.shape[0] != X.shape[0]:
        raise ValueError("weight matrices must be square and match X rows")
    pattern = SupportPattern(pos, neg)
    return support_loss(X, pattern.scores(X), pattern, lam, beta)


def model_loss(X: np.ndarray, graph: Graph, negatives: NegativeSet,
               params: ModelParams, masks: MaskSet | None = None) -> float:
    """Loss of one model; pass precomputed masks to skip rebuilding them."""
    if masks is None:
        masks = build_masks(graph, negatives, params)
    Y = masks.prop.apply(X)
    return support_loss(X, masks.pattern.scores(Y), masks.pattern, params.lam,
                        params.beta)


def support_gradient(X: np.ndarray, Y: np.ndarray, s: np.ndarray,
                     masks: MaskSet, params: ModelParams) -> np.ndarray:
    """loss_gradient from the forward pass at X: Y = P X and its scores s.
    M lives on the union support; a slot both masks share holds both terms."""
    pattern = masks.pattern
    pos, neg = pattern.pos, pattern.neg
    data = np.zeros(pattern.nnz)
    data[pos.slots] = pos.weights * sigmoid(-s[pos.slots])
    data[neg.slots] += -params.lam * neg.weights * sigmoid(s[neg.slots])
    return params.beta * X - masks.prop.apply(pattern.matrix(data) @ Y)


def loss_gradient(X: np.ndarray, graph: Graph, negatives: NegativeSet,
                  params: ModelParams, masks: MaskSet | None = None) -> np.ndarray:
    """Exact analytic gradient of model_loss with respect to X.

    grad = beta*X - P M P X with M the residual-weighted difference of the
    two weight matrices, evaluated at the propagated representation.
    """
    if masks is None:
        masks = build_masks(graph, negatives, params)
    Y = masks.prop.apply(X)
    return support_gradient(X, Y, masks.pattern.scores(Y), masks, params)


def check_finite(X: np.ndarray, what: str, step: int | None = None) -> np.ndarray:
    """X itself; raises DivergenceError if any entry is non-finite."""
    if not np.all(np.isfinite(X)):
        raise DivergenceError(f"non-finite embedding after {what}", step)
    return X


def gd_step(X: np.ndarray, gradient: np.ndarray, alpha: float,
            step: int | None = None) -> np.ndarray:
    """One full-batch descent update X - alpha * gradient.

    Raises DivergenceError if the update produces non-finite entries.
    """
    if alpha < 0:
        raise ValueError("step size must be nonnegative")
    return check_finite(X - alpha * gradient, "gradient step", step)
