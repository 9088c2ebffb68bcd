"""Forward-propagation kernels: the unified update rule the four models share.

One optimization step of every model in losses.py can be written as a linear
propagation of the current embeddings,

    X' = (c1 I + c2 P [K_plus - lam * K_minus] P) X

where P averages powers a1..b1 of the normalized adjacency, and the link
kernels weight graph positions by how far the current scores are from their
targets:

    K_plus  = S_A . (c3 * P_{a2,b2}(At) + (1 - c3) * A)     S_A = 1 - sigma(s)
    K_minus = S_B . (c3 * Bt            + (1 - c3) * B)     S_B = sigma(s)

with s the Gram scores of P X.  Stepping this kernel reproduces gradient
descent on the corresponding loss exactly; the test suite pins the two
trajectories against each other step by step.

The propagation matrix H is never formed densely in the main path (the outer
P factors densify); materialize_kernel exists for inspection of small
instances only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from linkprop.graphs import (MAX_PROXIMITY_ORDER, SCHEMES, Graph,
                             ProximityOperator, SupportPattern, normalize,
                             normalize_matrix, proximity, symmetrize)
from linkprop.losses import MODELS, check_finite, sigmoid
from linkprop.negatives import NegativeSet

DENSE_LIMIT = 500


@dataclass(frozen=True)
class KernelConfig:
    """Constants of the unified update rule for one model instance.

    c3 selects the positive/negative mask flavor (0: raw adjacency, 1:
    normalized high-order form); a1..b1 define the outer propagation, a2..b2
    the positive mask's proximity orders.  pos_norm is the scheme of the
    normalized adjacency used in both proximity operators, neg_norm the
    scheme applied to the sampled negatives.
    """

    model: str
    c1: float
    c2: float
    c3: float
    a1: int
    b1: int
    a2: int
    b2: int
    pos_norm: str
    neg_norm: str
    lam: float = 1.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.c3 not in (0.0, 1.0):
            raise ValueError("c3 must be 0 or 1")
        for name in ("c1", "c2", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0 <= self.a1 <= self.b1) or not (0 <= self.a2 <= self.b2):
            raise ValueError("proximity orders need 0 <= a <= b")
        for name in ("b1", "b2"):
            if getattr(self, name) > MAX_PROXIMITY_ORDER:
                raise ValueError(f"{name} must be <= {MAX_PROXIMITY_ORDER}, "
                                 f"got {getattr(self, name)}")
        for scheme in (self.pos_norm, self.neg_norm):
            if scheme not in SCHEMES:
                raise ValueError(f"unknown normalization scheme {scheme!r}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


def model_config(model: str, alpha: float, beta: float = 0.0,
                 lam: float = 1.0, window: int = 5, layers: int = 3) -> KernelConfig:
    """Kernel constants of one of the four built-in models.

    c1 = 1 - alpha*beta and c2 = alpha for all of them; the rest encodes
    which masks and propagations the model's loss implies.
    """
    if alpha < 0:
        raise ValueError("step size must be nonnegative")
    c1, c2 = 1.0 - alpha * beta, alpha
    if model == "mf":
        return KernelConfig(model, c1, c2, 0.0, 0, 0, 0, 0, "none", "none", lam)
    if model == "line":
        return KernelConfig(model, c1, c2, 1.0, 0, 0, 1, 1, "row", "none", lam)
    if model == "deepwalk":
        return KernelConfig(model, c1, c2, 1.0, 0, 0, 1, window, "row", "row", lam)
    if model == "lightgcn":
        return KernelConfig(model, c1, c2, 0.0, 0, layers, 0, 0,
                            "symmetric", "none", lam)
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Step-independent pieces of the kernel for a fixed (config, graph, negatives).

    Holds the outer proximity operator, both blended masks, and their union
    support pattern, on which scores and link kernels live.  Build once,
    step many times.
    """

    config: KernelConfig
    graph: Graph
    negatives: NegativeSet
    prop: ProximityOperator = field(repr=False)
    pos_mask: sp.csr_array = field(repr=False)
    neg_mask: sp.csr_array = field(repr=False)
    pattern: SupportPattern = field(repr=False)
    rows: np.ndarray = field(repr=False)  # the pattern's, for ScorePair
    cols: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, config: KernelConfig, graph: Graph,
              negatives: NegativeSet) -> "KernelOperator":
        base = normalize(graph, config.pos_norm)
        prop = proximity(base, config.a1, config.b1)
        if config.c3 == 0.0:
            pos_mask = graph.adjacency
            neg_mask = negatives.adjacency
        else:
            high_order = proximity(base, config.a2, config.b2)
            pos_mask = symmetrize(high_order.materialize())
            neg_mask = symmetrize(
                normalize_matrix(negatives.adjacency, config.neg_norm).matrix)
        pattern = SupportPattern(pos_mask, neg_mask)
        return cls(config=config, graph=graph, negatives=negatives, prop=prop,
                   pos_mask=pos_mask, neg_mask=neg_mask, pattern=pattern,
                   rows=pattern.rows, cols=pattern.cols)

    def step(self, X: np.ndarray) -> np.ndarray:
        return kernel_step(X, self)

    def step_traced(self, X: np.ndarray):
        """One kernel step from X: (X', substep trace), X' unchecked."""
        Y = self.prop.apply(X)
        return kernel_update(X, Y, link_kernels(score_matrices(Y, self), self),
                             self)


@dataclass(frozen=True, eq=False)
class ScorePair:
    """Complementary score matrices on the union of the two mask supports.

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


def dense_score_matrices(Y: np.ndarray):
    """Dense (S_A, S_B) of the full Gram matrix, for small-instance checks."""
    S_B = sigmoid(Y @ Y.T)
    return 1.0 - S_B, S_B


def score_matrices(Y: np.ndarray, operator: KernelOperator) -> ScorePair:
    """Scores of the propagated embedding Y on the operator's union support."""
    s_b = sigmoid(operator.pattern.scores(Y))
    return ScorePair(rows=operator.rows, cols=operator.cols, s_a=1.0 - s_b,
                     s_b=s_b)


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


@dataclass(frozen=True)
class SubstepTrace:
    """Frobenius norms along the four substeps of one kernel step.

    Substeps: (1) outer propagation of X, (2) link-kernel application,
    (3) outer propagation again, (4) the c1/c2 recombination.
    """

    input_norm: float
    norms: tuple[float, float, float, float]


def kernel_update(X: np.ndarray, Y: np.ndarray, kernels: LinkKernels,
                  operator: KernelOperator):
    """One kernel step from the forward pass at X: Y = P X and the link
    kernels of its scores.  Returns X' (not checked for finiteness) and the
    substep trace, whose five norms cost little next to the step."""
    config = operator.config
    Z = kernels.k_plus @ Y - config.lam * (kernels.k_minus @ Y)
    W = operator.prop.apply(Z)
    out = config.c1 * X + config.c2 * W
    frob = lambda M: float(np.linalg.norm(M))
    return out, SubstepTrace(input_norm=frob(X),
                             norms=(frob(Y), frob(Z), frob(W), frob(out)))


def kernel_step(X: np.ndarray, operator: KernelOperator,
                step: int | None = None) -> np.ndarray:
    """One forward-propagation update of the embeddings; raises
    DivergenceError (tagged with `step`) on a non-finite result."""
    return check_finite(operator.step_traced(X)[0], "kernel step", step)


def materialize_kernel(config: KernelConfig, scores: ScorePair, graph: Graph,
                       negatives: NegativeSet,
                       operator: KernelOperator | None = None,
                       limit: int = DENSE_LIMIT) -> np.ndarray:
    """Explicit dense propagation matrix H, for small-instance inspection.

    Refuses to run above `limit` nodes; the main path never needs H.
    """
    n = graph.num_nodes
    if n > limit:
        raise ValueError(f"{n} nodes exceeds the dense limit {limit}")
    if operator is None:
        operator = KernelOperator.build(config, graph, negatives)
    kernels = link_kernels(scores, operator)
    middle = (kernels.k_plus - config.lam * kernels.k_minus).toarray()
    P = operator.prop.materialize().toarray()
    return config.c1 * np.eye(n) + config.c2 * (P @ middle @ P)


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
