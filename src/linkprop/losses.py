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
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from linkprop.graphs import (MAX_PROXIMITY_ORDER, Graph, ProximityOperator,
                             SupportPattern, check_integer, normalize,
                             normalize_matrix, proximity, read_only,
                             symmetrize)
from linkprop.negatives import NegativeSet


# the fields of kernel.KernelConfig that fix a model's masks and P
MaskConstants = namedtuple("MaskConstants",
                           "c3 a1 b1 a2 b2 pos_norm neg_norm")


def model_table(window: int, layers: int) -> dict[str, MaskConstants]:
    """Each model's MaskConstants: the one place where a model name selects
    masks and P (ModelParams owns the window and layers defaults)."""
    return {
        "mf": MaskConstants(0.0, 0, 0, 0, 0, "none", "none"),
        "line": MaskConstants(1.0, 0, 0, 1, 1, "row", "none"),
        "deepwalk": MaskConstants(1.0, 0, 0, 1, window, "row", "row"),
        "lightgcn": MaskConstants(0.0, 0, layers, 0, 0, "symmetric", "none"),
    }


MODELS = tuple(model_table(window=1, layers=0))  # the keys ignore the orders


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
    checked for every model, so a bad value fails here and names itself.
    """

    model: str
    window: int = 5
    layers: int = 3
    lam: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got "
                             f"{self.model!r}")
        for name, low in (("window", 1), ("layers", 0)):
            check_integer(name, getattr(self, name), low, MAX_PROXIMITY_ORDER)
        for name in ("lam", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {value}")

    @property
    def constants(self) -> MaskConstants:  # the model's row of model_table
        return model_table(self.window, self.layers)[self.model]


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


def mask_set(graph: Graph, negatives: NegativeSet, k: MaskConstants) -> MaskSet:
    """Masks and P from a row of model_table or a KernelConfig, for
    build_masks and KernelOperator.build alike.

    What depends on the graph alone is built once per graph, in its memo:
    the pos_norm adjacency and, where c3 = 1, the symmetrized positive
    mask, keyed by (pos_norm, a2, b2) (line's, and deepwalk's walk mask
    per window).  Every mask set on one graph shares those read-only
    matrices.  The negative mask is built per call from the negatives.
    """
    base = normalize(graph, k.pos_norm)
    pos, neg = graph.adjacency, negatives.adjacency
    if k.c3 != 0.0:
        pos = graph.memoized(
            ("positive", k.pos_norm, k.a2, k.b2),
            lambda: read_only(
                symmetrize(proximity(base, k.a2, k.b2).materialize())))
        neg = symmetrize(normalize_matrix(neg, k.neg_norm))
    return MaskSet(pos=pos, neg=neg, prop=proximity(base, k.a1, k.b1))


def scoring_propagation(graph: Graph, params: ModelParams) -> ProximityOperator:
    """P of the model: the orders a1..b1 of its table row over the pos_norm
    adjacency (the identity for every model but lightgcn)."""
    k = params.constants
    return proximity(normalize(graph, k.pos_norm), k.a1, k.b1)


def build_masks(graph: Graph, negatives: NegativeSet,
                params: ModelParams) -> MaskSet:
    """Weight matrices for one model, ready for model_loss / loss_gradient."""
    return mask_set(graph, negatives, params.constants)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, overflow-safe on both tails: exp only
    sees -|z|.  np.minimum(z, -z), not -np.abs(z), keeps a NaN's sign.

    An element z >= 0 gets 1 / (1 + e), any other e / (1 + e), e =
    exp(-|z|), with both quotients in one unmasked divide: since
    0 <= e <= 1, the numerator max(e, z >= 0) is 1 where z >= 0 and e
    elsewhere (a nan stays nan).  It is written into e's buffer, so `z`
    is never written; `sigmoid_masked` in tests/reference.py is the
    masked-divide form it equals bit for bit.
    """
    z = np.asarray(z)
    # asarray: for a 0-d z, exp returns a scalar, which cannot be written
    e = np.asarray(np.exp(np.minimum(z, -z)))
    d = 1.0 + e
    np.maximum(e, z >= 0, out=e)
    return np.divide(e, d, out=e)


def support_loss(X: np.ndarray, s: np.ndarray, pattern: SupportPattern,
                 lam: float, beta: float) -> float:
    """The loss from the owned scores s of `pattern`, each mask's term
    summed in its stored order.  -log sigma(s) is logaddexp(0, -s), so
    saturated scores cannot overflow; it runs once per owned score a mask
    reads."""
    total = 0.0
    pos, neg = pattern.pos, pattern.neg
    if pos.weights.size:
        total += float(np.dot(pos.weights, np.logaddexp(
            0.0, -s.take(pos.reads)).take(pos.stored)))
    if neg.weights.size:
        total += lam * float(np.dot(neg.weights, np.logaddexp(
            0.0, s.take(neg.reads)).take(neg.stored)))
    return 0.5 * total + 0.5 * beta * float(np.sum(X * X))


def bce_loss(X: np.ndarray, pos: sp.csr_array, neg: sp.csr_array,
             lam: float, beta: float) -> float:
    """Weighted pairwise logistic loss of the Gram scores of X.

    Only the nonzero entries of the weight matrices are touched.
    """
    if pos.shape != neg.shape or pos.shape[0] != X.shape[0]:
        raise ValueError("weight matrices must be square and match X rows")
    pattern = SupportPattern(pos, neg)
    return support_loss(X, pattern.scores(X), pattern, lam, beta)


def model_loss(X: np.ndarray, masks: MaskSet, params: ModelParams) -> float:
    """Loss of one model at X, on the masks and P `build_masks` gives it."""
    Y = masks.prop.apply(X)
    return support_loss(X, masks.pattern.scores(Y), masks.pattern, params.lam,
                        params.beta)


def support_gradient(X: np.ndarray, Y: np.ndarray, s: np.ndarray,
                     pattern: SupportPattern, prop: ProximityOperator,
                     params: ModelParams) -> np.ndarray:
    """loss_gradient from the forward pass at X: Y = prop X and its owned
    scores s on `pattern`.  M lives on the union support; a slot both masks
    share holds both terms.  Each sigmoid runs once per owned score its
    mask reads.

    X and Y are only read.  The product M Y is this function's own, so P
    is summed into it (`overwrite_input`), after M's values are released,
    and beta X - P M Y is written into that buffer too: the result is a
    fresh array with the bits of the plain expression."""
    pos, neg = pattern.pos, pattern.neg
    data = np.zeros(pattern.nnz)
    # numpy indexes by int32 slots on a slow path: one cast to intp first
    # is faster (0.07 against 0.10 ms on bench_500's mf pattern)
    slots = pos.slots.astype(np.intp, copy=False)
    data[slots] = pos.weights * sigmoid(-s.take(pos.reads)).take(pos.stored)
    slots = neg.slots.astype(np.intp, copy=False)
    data[slots] += -params.lam * neg.weights * sigmoid(
        s.take(neg.reads)).take(neg.stored)
    G = pattern.matrix(data) @ Y
    del data, slots
    G = prop.apply(G, overwrite_input=True)
    return np.subtract(params.beta * X, G, out=G)


def loss_gradient(X: np.ndarray, masks: MaskSet,
                  params: ModelParams) -> np.ndarray:
    """Exact analytic gradient of model_loss with respect to X.

    grad = beta*X - P M P X with M the residual-weighted difference of the
    two weight matrices, evaluated at the propagated representation.
    """
    Y = masks.prop.apply(X)
    return support_gradient(X, Y, masks.pattern.scores(Y), masks.pattern,
                            masks.prop, params)


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
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"step size alpha must be finite and nonnegative, "
                         f"got {alpha}")
    return check_finite(X - alpha * gradient, "gradient step", step)
