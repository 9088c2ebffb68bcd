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
                             ProximityOperator, SupportPattern)
from linkprop.losses import (MODELS, ModelParams, check_finite, mask_set,
                             sigmoid)
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
    lam: float

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


def model_config(params: ModelParams, alpha: float) -> KernelConfig:
    """Kernel constants of a built-in model at step size alpha: c1 = 1 -
    alpha*beta and c2 = alpha for all of them, the rest its row of
    losses.model_table and its lambda, all read from `params`."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    return KernelConfig(params.model, 1.0 - alpha * params.beta, alpha,
                        *params.constants, params.lam)


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Step-independent pieces of the kernel for a fixed (config, graph, negatives).

    Holds the outer proximity operator and the union support pattern of
    both blended masks, on which scores and link kernels live.  Build once,
    step many times; train() reads its pattern and P on both paths.
    """

    config: KernelConfig
    graph: Graph
    prop: ProximityOperator = field(repr=False)
    pattern: SupportPattern = field(repr=False)
    rows: np.ndarray = field(repr=False)  # the pattern's, one per union slot

    @classmethod
    def build(cls, config: KernelConfig, graph: Graph,
              negatives: NegativeSet) -> "KernelOperator":
        masks = mask_set(graph, negatives, config)
        return cls(config=config, graph=graph, prop=masks.prop,
                   pattern=masks.pattern, rows=masks.pattern.rows)


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


def positive_kernel(scores: ScorePair, operator: KernelOperator) -> sp.csr_array:
    """K_plus = S_A . mask_plus alone, for a caller that never reads K_minus."""
    return operator.pattern.pos.weighted(scores.s_a)


def link_kernels(scores: ScorePair, operator: KernelOperator) -> LinkKernels:
    """Masks times scores: K_plus = S_A . mask_plus, K_minus = S_B . mask_minus."""
    return LinkKernels(k_plus=positive_kernel(scores, operator),
                       k_minus=operator.pattern.neg.weighted(scores.s_b))


def mean_positive_kernel(k_plus: sp.csr_array) -> float:
    """Mean of the positive link kernel over its mask support, not over all
    |V|^2 cells, whose density would swamp the fit signal.  Explicitly
    stored zeros (saturated scores) still count as support entries."""
    if k_plus.data.shape[0] == 0:
        raise ValueError("positive kernel has empty support")
    return float(k_plus.data.mean())


def positive_kernel_mean(scores: ScorePair,
                         operator: KernelOperator) -> float:
    """`mean_positive_kernel(positive_kernel(scores, operator))` without
    building K+: the same entries S_A . mask_plus in the same order, so
    the same bits."""
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
    config = operator.config
    kernels = link_kernels(scores, operator)
    del scores
    mean_kp = (mean_positive_kernel(kernels.k_plus)
               if kernels.k_plus.data.shape[0] else None)
    Z, T = kernels.k_plus @ Y, kernels.k_minus @ Y
    del kernels
    T *= config.lam
    Z -= T
    del T
    z_norm = frobenius(Z)
    W = operator.prop.apply(Z, overwrite_input=True)
    w_norm = frobenius(W)
    W *= config.c2
    W += config.c1 * X
    return W, SubstepTrace(input_norm=frobenius(X),
                           norms=(frobenius(Y), z_norm, w_norm, frobenius(W)),
                           mean_k_plus=mean_kp)


def kernel_step(X: np.ndarray, operator: KernelOperator,
                step: int | None = None) -> np.ndarray:
    """One forward-propagation update of the embeddings; raises
    DivergenceError (tagged with `step`) on a non-finite result."""
    Y = operator.prop.apply(X)
    return check_finite(kernel_update(X, Y, score_matrices(Y, operator),
                                      operator)[0], "kernel step", step)


def materialize_kernel(scores: ScorePair, operator: KernelOperator,
                       limit: int = DENSE_LIMIT) -> np.ndarray:
    """Explicit dense propagation matrix H, for small-instance inspection.

    Refuses to run above `limit` nodes; the main path never needs H.
    """
    config, n = operator.config, operator.graph.num_nodes
    if n > limit:
        raise ValueError(f"{n} nodes exceeds the dense limit {limit}")
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
