"""Full-batch training loops, early stopping, and the hyperparameter grid.

A run owns nothing mutable but the embedding matrix: masks, kernels, and
negatives are fixed before the first step.  The two update paths (analytic
gradient vs forward propagation) can be run singly or side by side; in
"both" mode the per-epoch max-abs divergence between them is recorded and
the gradient trajectory is the authoritative one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from linkprop.diagnostics import frobenius, mean_positive_kernel
from linkprop.graphs import MAX_PROXIMITY_ORDER, Graph
from linkprop.kernel import (KernelOperator, kernel_update, link_kernels,
                             model_config, score_matrices)
from linkprop.losses import (MODELS, DivergenceError, MaskSet, ModelParams,
                             build_masks, check_finite, gd_step,
                             scoring_propagation, support_gradient,
                             support_loss)
from linkprop.negatives import NegativeSet, sample_negatives
from linkprop.ranking import EvalResult, SplitSet, evaluate

PATHS = ("gradient", "kernel", "both")

ALPHA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
LAYER_GRID = (1, 3, 5)


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, seeds included."""

    model: str
    alpha: float
    dim: int = 64
    beta: float = 0.0
    lam: float = 1.0
    window: int = 5
    layers: int = 3
    max_epochs: int = 200
    patience: int = 10
    path: str = "gradient"
    init_scale: float = 0.01
    seed: int = 0
    eval_every: int = 1
    eval_k: int = 20
    trace_substeps: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.layers <= MAX_PROXIMITY_ORDER:
            raise ValueError(f"layers must be in 0..{MAX_PROXIMITY_ORDER}, "
                             f"got {self.layers}")
        if not 1 <= self.window <= MAX_PROXIMITY_ORDER:
            raise ValueError(f"window must be in 1..{MAX_PROXIMITY_ORDER}, "
                             f"got {self.window}")
        if self.dim < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("dim, max_epochs and patience must be >= 1")
        if self.path not in PATHS:
            raise ValueError(f"path must be one of {PATHS}")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.eval_k < 1:
            raise ValueError(f"eval_k must be >= 1, got {self.eval_k}")
        self.params  # ModelParams names a bad lam or beta

    @cached_property
    def params(self) -> ModelParams:
        return ModelParams(model=self.model, window=self.window,
                           layers=self.layers, lam=self.lam, beta=self.beta)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    mean_k_plus: float
    frob_norm: float
    val_recall: float | None = None
    divergence: float | None = None
    substeps: tuple[float, float, float, float] | None = None

    @property
    def step(self) -> int:
        # alias so diagnostics.emit_trajectories can consume these records
        return self.epoch


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    stopped_epoch: int = 0
    reason: str = ""
    best_epoch: int | None = None
    best_metric: float | None = None

    def max_divergence(self) -> float | None:
        devs = [r.divergence for r in self.records if r.divergence is not None]
        return max(devs) if devs else None


@dataclass(frozen=True, eq=False)
class TrainResult:
    embeddings: np.ndarray
    history: TrainHistory
    config: TrainConfig


def init_embeddings(num_nodes: int, dim: int, scale: float = 0.01,
                    seed: int = 0) -> np.ndarray:
    """Gaussian init, sd = scale.  Exactly zero would be a stationary point."""
    if scale <= 0:
        raise ValueError("init scale must be positive")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(num_nodes, dim))


def scoring_embeddings(X: np.ndarray, masks: MaskSet) -> np.ndarray:
    """Representation used for ranking: propagated for lightgcn, raw otherwise."""
    return masks.prop.apply(X)


def train(graph: Graph, negatives: NegativeSet, config: TrainConfig,
          splits: SplitSet | None = None) -> TrainResult:
    """Run one model to convergence or divergence.

    Early stopping needs `splits` with validation edges: training stops once
    validation Recall@eval_k has not improved for `patience` consecutive
    evaluations, and the best-validation snapshot is returned.  Without
    splits the loop always runs max_epochs and returns the final state.

    Raises DivergenceError (tagged with the epoch) if either path produces
    non-finite embeddings.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges: there is nothing to train on")
    params = config.params
    masks = build_masks(graph, negatives, params)
    kcfg = model_config(config.model, alpha=config.alpha, beta=config.beta,
                        lam=config.lam, window=config.window,
                        layers=config.layers)
    op = KernelOperator.build(kcfg, graph, negatives)

    X = init_embeddings(graph.num_nodes, config.dim, config.init_scale,
                        config.seed)
    # on "both" the kernel trajectory runs beside the authoritative gradient one
    Xk = X.copy() if config.path == "both" else None
    # the forward pass at X, computed once per embedding: P X and its scores
    Y = masks.prop.apply(X)
    s = masks.pattern.scores(Y)

    early = splits is not None and splits.val.shape[0] > 0
    history = TrainHistory()
    best_X = X.copy()
    best_metric = -np.inf
    failed_evals = 0

    for epoch in range(1, config.max_epochs + 1):
        kernels = link_kernels(score_matrices(Y, op), op)
        mean_kp = mean_positive_kernel(kernels.k_plus)

        if config.path == "kernel":
            X, trace = kernel_update(X, Y, kernels, op)
            check_finite(X, "kernel step", epoch)
        else:
            if Xk is not None:
                Xk, trace = op.step_traced(Xk)
                check_finite(Xk, "kernel step", epoch)
            elif config.trace_substeps:
                trace = kernel_update(X, Y, kernels, op)[1]
            X = gd_step(X, support_gradient(X, Y, s, masks, params),
                        config.alpha, step=epoch)
        Y = masks.prop.apply(X)
        s = masks.pattern.scores(Y)

        val_recall = None
        if early and epoch % config.eval_every == 0:
            result = evaluate(Y, splits, graph, k=config.eval_k, split="val")
            val_recall = result.recall
            if val_recall > best_metric:
                best_metric = val_recall
                best_X = X.copy()
                history.best_epoch = epoch
                history.best_metric = val_recall
                failed_evals = 0
            else:
                failed_evals += 1

        history.records.append(EpochRecord(
            epoch=epoch,
            loss=support_loss(X, s, masks.pattern, params.lam, params.beta),
            mean_k_plus=mean_kp,
            frob_norm=frobenius(X),
            val_recall=val_recall,
            divergence=None if Xk is None else float(np.abs(X - Xk).max()),
            substeps=trace.norms if config.trace_substeps else None))

        if early and failed_evals >= config.patience:
            history.stopped_epoch = epoch
            history.reason = "early_stop"
            break
    else:
        history.stopped_epoch = config.max_epochs
        history.reason = "max_epochs"

    final = best_X if early else X
    return TrainResult(embeddings=final, history=history, config=config)


class AllPointsDiverged(RuntimeError):
    """Every grid point blew up; nothing to select."""


@dataclass(frozen=True)
class GridPoint:
    alpha: float
    layers: int
    metric: float | None
    diverged: bool
    stopped_epoch: int


@dataclass(frozen=True)
class GridResult:
    points: tuple
    best: TrainConfig
    best_metric: float


def grid_search(graph: Graph, negatives: NegativeSet, splits: SplitSet,
                base: TrainConfig, alphas=ALPHA_GRID,
                layer_grid=LAYER_GRID) -> GridResult:
    """Pick (alpha, and for lightgcn the layer count) by validation recall.

    Divergent points are quarantined, not fatal.  Ties go to the smaller
    alpha, then the smaller layer count: the grids are scanned in ascending
    order and only strict improvements replace the incumbent.
    """
    if splits.val.shape[0] == 0:
        raise ValueError("grid search needs validation edges")
    layer_values = tuple(layer_grid) if base.model == "lightgcn" else (base.layers,)
    points = []
    best_cfg = None
    best_metric = -np.inf
    for alpha in sorted(alphas):
        for layers in sorted(layer_values):
            cfg = replace(base, alpha=alpha, layers=layers)
            try:
                result = train(graph, negatives, cfg, splits=splits)
            except DivergenceError as err:
                points.append(GridPoint(alpha=alpha, layers=layers, metric=None,
                                        diverged=True,
                                        stopped_epoch=err.step or 0))
                continue
            metric = result.history.best_metric
            if metric is None:
                scored = scoring_propagation(graph, cfg.params).apply(
                    result.embeddings)
                metric = evaluate(scored, splits, graph, k=cfg.eval_k,
                                  split="val").recall
            points.append(GridPoint(alpha=alpha, layers=layers,
                                    metric=float(metric), diverged=False,
                                    stopped_epoch=result.history.stopped_epoch))
            if metric > best_metric:
                best_metric = float(metric)
                best_cfg = cfg
    if best_cfg is None:
        raise AllPointsDiverged(f"all {len(points)} grid points diverged")
    return GridResult(points=tuple(points), best=best_cfg,
                      best_metric=best_metric)


@dataclass(frozen=True, eq=False)
class RepeatOutcome:
    seed: int
    result: TrainResult
    metrics: EvalResult


def repeat_train(graph: Graph, splits: SplitSet, config: TrainConfig, seeds,
                 neg_strategy: str = "uniform", neg_exponent: float = 0.75,
                 per_positive: int = 1) -> list[RepeatOutcome]:
    """Train once per seed (fresh init and fresh negatives) and score on test."""
    outcomes = []
    for seed in seeds:
        negatives = sample_negatives(graph, per_positive=per_positive,
                                     strategy=neg_strategy,
                                     exponent=neg_exponent, seed=seed)
        cfg = replace(config, seed=seed)
        result = train(graph, negatives, cfg, splits=splits)
        scored = scoring_propagation(graph, cfg.params).apply(result.embeddings)
        metrics = evaluate(scored, splits, graph, k=cfg.eval_k, split="test")
        outcomes.append(RepeatOutcome(seed=seed, result=result, metrics=metrics))
    return outcomes
