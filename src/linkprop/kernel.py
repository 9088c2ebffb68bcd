"""Forward-propagation kernels: the unified update rule the four models share.

One optimization step of every model in losses.py can be written as a linear
propagation of the current embeddings,

    X' = (c1 I + c2 P [K_plus - lam * K_minus] P) X

with c1 = 1 - alpha * beta and c2 = alpha at step size alpha, where P
averages powers a1..b1 of the normalized adjacency, and the link kernels
weight graph positions by how far the current scores are from their
targets:

    K_plus  = S_A . (c3 * P_{a2,b2}(At) + (1 - c3) * A)     S_A = 1 - sigma(s)
    K_minus = S_B . (c3 * Bt            + (1 - c3) * B)     S_B = sigma(s)

with s the Gram scores of P X.  So a model is its losses.ModelParams (its
row c3, a1..b2, pos_norm, neg_norm of losses.model_table, lam and beta)
and alpha, which is what KernelOperator.build takes.  Stepping this kernel
reproduces gradient descent on the corresponding loss exactly; the test
suite pins the two trajectories against each other step by step.

The propagation matrix H is never formed densely in the main path (the outer
P factors densify); materialize_kernel exists for inspection of small
instances only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from linkprop.graphs import Graph, ProximityOperator, SupportPattern
from linkprop.losses import ModelParams, check_finite, mask_set, sigmoid
from linkprop.negatives import NegativeSet

DENSE_LIMIT = 500


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Step-independent pieces of the kernel of the model `params` at step
    size `alpha` on a fixed graph and negative set.

    Holds the outer proximity operator and the union support pattern of
    both blended masks, on which scores and link kernels live.  Build once,
    step many times; train() reads its pattern and P on both paths.
    """

    params: ModelParams
    alpha: float
    graph: Graph
    prop: ProximityOperator = field(repr=False)
    pattern: SupportPattern = field(repr=False)
    rows: np.ndarray = field(repr=False)  # the pattern's, one per union slot

    @classmethod
    def build(cls, params: ModelParams, alpha: float, graph: Graph,
              negatives: NegativeSet) -> "KernelOperator":
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
        masks = mask_set(graph, negatives, params)
        return cls(params=params, alpha=alpha, graph=graph, prop=masks.prop,
                   pattern=masks.pattern, rows=masks.pattern.rows)

    @property
    def c1(self) -> float:  # the identity's weight; c2 is alpha itself
        return 1.0 - self.alpha * self.params.beta


@dataclass(frozen=True, eq=False)
class ScorePair:
    """Complementary score matrices on the owned slots of the union of the
    two mask supports (a slot's mirror holds the same values).

    s_a weights positive positions (high where a training link is still
    poorly reconstructed), s_b weights negative positions.  They sum to one
    exactly by construction.
    """

    rows: np.ndarray
    cols: np.ndarray
    s_a: np.ndarray
    s_b: np.ndarray

    def complement_deviation(self) -> float:
        return float(np.abs(self.s_a + self.s_b - 1.0).max(initial=0.0))


def score_matrices(Y: np.ndarray, operator: KernelOperator,
                   scores: np.ndarray | None = None) -> ScorePair:
    """Scores of the propagated embedding Y on the owned slots of the
    operator's union support: sigmoid runs once per unordered pair.

    `scores`, if given, must be `operator.pattern.scores(Y)`, the owned
    Gram scores: a caller that already holds the forward pass's scores
    passes them in and the support is not gathered again.
    """
    pattern = operator.pattern
    if scores is None:
        scores = pattern.scores(Y)
    s_b = sigmoid(scores)
    return ScorePair(rows=pattern.owned_rows, cols=pattern.owned_cols,
                     s_a=1.0 - s_b, s_b=s_b)


@dataclass(frozen=True, eq=False)
class LinkKernels:
    """Residual-weighted positive and negative link matrices."""

    k_plus: sp.csr_array = field(repr=False)
    k_minus: sp.csr_array = field(repr=False)


def link_kernels(scores: ScorePair, operator: KernelOperator) -> LinkKernels:
    """Masks times scores: K_plus = S_A . mask_plus, K_minus = S_B . mask_minus."""
    pattern = operator.pattern
    return LinkKernels(k_plus=pattern.pos.weighted(scores.s_a),
                       k_minus=pattern.neg.weighted(scores.s_b))


def mean_positive_kernel(k_plus: sp.csr_array) -> float:
    """Mean of the positive link kernel over its mask support, not over all
    |V|^2 cells, whose density would swamp the fit signal.  Explicitly
    stored zeros (saturated scores) still count as support entries."""
    if k_plus.data.shape[0] == 0:
        raise ValueError("positive kernel has empty support")
    return float(k_plus.data.mean())


def positive_kernel_mean(scores: ScorePair,
                         operator: KernelOperator) -> float:
    """`mean_positive_kernel` of `link_kernels(scores, operator).k_plus`
    without building K+: the same entries S_A . mask_plus in the same
    order, so the same bits."""
    pos = operator.pattern.pos
    entries = scores.s_a.take(pos.sorted_owner)
    if entries.shape[0] == 0:
        raise ValueError("positive kernel has empty support")
    entries *= pos.matrix.data
    return float(entries.mean())


@dataclass(frozen=True)
class SubstepTrace:
    """Frobenius norms along the four substeps of one kernel step, and its
    `mean_positive_kernel` (None on an empty positive support).

    Substeps: (1) outer propagation of X, (2) link-kernel application,
    (3) outer propagation again, (4) the c1/c2 recombination.
    """

    input_norm: float
    norms: tuple[float, float, float, float]
    mean_k_plus: float | None = None


def frobenius(X: np.ndarray) -> float:
    return float(np.linalg.norm(X))


def kernel_update(X: np.ndarray, Y: np.ndarray, scores: ScorePair,
                  operator: KernelOperator):
    """One kernel step from the forward pass at X: Y = P X and its
    `score_matrices`, dropped once read, as are the link kernels.  Returns
    X' (not checked for finiteness) and the trace, K+'s mean included.
    Beside X and Y the step holds one n x d buffer: Z = K+ Y - lam (K- Y),
    P Z, then c2 P Z + c1 X, which commutes to the bits of c1 X + c2 P Z."""
    kernels = link_kernels(scores, operator)
    del scores
    mean_kp = (mean_positive_kernel(kernels.k_plus)
               if kernels.k_plus.data.shape[0] else None)
    Z, T = kernels.k_plus @ Y, kernels.k_minus @ Y
    del kernels
    T *= operator.params.lam
    Z -= T
    del T
    z_norm = frobenius(Z)
    W = operator.prop.apply(Z, overwrite_input=True)
    w_norm = frobenius(W)
    W *= operator.alpha
    W += operator.c1 * X
    return W, SubstepTrace(input_norm=frobenius(X),
                           norms=(frobenius(Y), z_norm, w_norm, frobenius(W)),
                           mean_k_plus=mean_kp)


def kernel_step(X: np.ndarray, operator: KernelOperator,
                step: int | None = None) -> tuple[np.ndarray, SubstepTrace]:
    """One forward-propagation update of the embeddings on its own forward
    pass P X, and its trace; raises DivergenceError (tagged with `step`)
    on a non-finite result."""
    Y = operator.prop.apply(X)
    X, trace = kernel_update(X, Y, score_matrices(Y, operator), operator)
    del Y
    return check_finite(X, "kernel step", step), trace


def materialize_kernel(scores: ScorePair, operator: KernelOperator,
                       limit: int = DENSE_LIMIT) -> np.ndarray:
    """Explicit dense propagation matrix H, for small-instance inspection.

    Refuses to run above `limit` nodes; the main path never needs H.
    """
    n = operator.graph.num_nodes
    if n > limit:
        raise ValueError(f"{n} nodes exceeds the dense limit {limit}")
    kernels = link_kernels(scores, operator)
    middle = (kernels.k_plus - operator.params.lam * kernels.k_minus).toarray()
    P = operator.prop.materialize().toarray()
    return operator.c1 * np.eye(n) + operator.alpha * (P @ middle @ P)


@dataclass(frozen=True)
class SignReport:
    """Off-diagonal sign check of a dense propagation matrix."""

    passed: bool
    checked_positive: int
    checked_negative: int
    violations: tuple


def sign_structure(H: np.ndarray, graph: Graph,
                   negatives: NegativeSet) -> SignReport:
    """Check H is attractive on observed links and repulsive on negatives.

    Only meaningful for configs whose outer propagation is the identity
    (then every off-diagonal entry is attributable to a single link):
    entries at positive-edge positions must be >= 0, at sampled-negative
    positions <= 0.
    """
    violations = []
    for u, v in graph.edges:
        for i, j in ((u, v), (v, u)):
            if H[i, j] < 0:
                violations.append((int(i), int(j), float(H[i, j])))
    for u, v in negatives.pairs:
        for i, j in ((u, v), (v, u)):
            if H[i, j] > 0:
                violations.append((int(i), int(j), float(H[i, j])))
    return SignReport(passed=not violations,
                      checked_positive=2 * graph.num_edges,
                      checked_negative=2 * negatives.num_pairs,
                      violations=tuple(violations))
