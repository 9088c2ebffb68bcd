"""Full-batch training loops, early stopping, and the hyperparameter grid.

A run owns nothing mutable but the embedding matrix.  Its step-independent
state is one KernelOperator (P, the masks and their support pattern), built
before the first step and read by both update paths (analytic gradient vs
forward propagation), each with its own per-step algebra.  The paths can be
run singly or side by side; in "both" mode the per-epoch max-abs divergence
between them is recorded and the gradient trajectory is the authoritative
one.

Every step returns a fresh X (`gd_step`, or `kernel_update` for every
kernel step), and nothing writes into X, its forward pass Y = P X or a
returned embedding.  So no embedding-sized array outlives its use and
none is copied: the gradient goes straight into `gd_step`, the old
forward pass, the score pairs and the link kernels are dropped once read,
and the best-validation snapshot is that epoch's X itself, by reference.
Where a kernel step runs at X, its own K+ gives the epoch's mean-K+
diagnostic; elsewhere the diagnostic takes K+'s entries from the score
pair without building K+.  Validation reads only hits (`Ranker.recall`),
from the training graph's one validation `ranker` per split and cutoff,
which every run, grid point and repetition on that graph shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from linkprop.graphs import Graph, check_bool, check_distinct, check_integer
from linkprop.kernel import (KernelOperator, frobenius, kernel_step,
                             kernel_update, positive_kernel_mean,
                             score_matrices)
from linkprop.losses import (DivergenceError, MaskSet, ModelParams,
                             check_finite, gd_step, model_table,
                             scoring_propagation, support_gradient,
                             support_loss)
from linkprop.negatives import NegativeSet, sample_negatives
from linkprop.ranking import EvalResult, SplitSet, ranker

PATHS = ("gradient", "kernel", "both")

# settings that count something, each at least 1: a float or a bool among
# them is rejected (window and layers by ModelParams)
INTEGER_FIELDS = ("dim", "max_epochs", "patience", "eval_every", "eval_k")

ALPHA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
LAYER_GRID = (1, 3, 5)


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, seeds included, and the one
    place each training default is written (the model's own in ModelParams).

    `trace_substeps` records the kernel substep norms each epoch.  On the
    gradient path that runs one `kernel_update` per epoch at X, whose K+
    then also gives the mean-K+ diagnostic: it adds K-, two sparse products
    and one more application of P.  The kernel and "both" paths compute
    the norms with their step.
    """

    model: str
    alpha: float = 0.01
    dim: int = 64
    beta: float = ModelParams.beta
    lam: float = ModelParams.lam
    window: int = ModelParams.window
    layers: int = ModelParams.layers
    max_epochs: int = 200
    patience: int = 10
    path: str = "gradient"
    init_scale: float = 0.01
    seed: int = 0
    eval_every: int = 1
    eval_k: int = 20
    trace_substeps: bool = False

    def __post_init__(self):
        self.params  # ModelParams checks model, window, layers, lam and beta
        for name in INTEGER_FIELDS:
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)
        check_bool("trace_substeps", self.trace_substeps)
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")
        if self.path not in PATHS:
            raise ValueError(f"path must be one of {PATHS}, got {self.path!r}")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError(f"init_scale must be positive and finite, "
                             f"got {self.init_scale}")
        if not math.isfinite(self.alpha * self.beta):  # the kernel's c1
            raise ValueError(f"alpha * beta must be finite, got alpha="
                             f"{self.alpha}, beta={self.beta}")

    @cached_property
    def params(self) -> ModelParams:
        return ModelParams(model=self.model, window=self.window,
                           layers=self.layers, lam=self.lam, beta=self.beta)


TRAIN_FIELDS = tuple(f.name for f in fields(TrainConfig))


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


def init_embeddings(num_nodes: int, dim: int, scale: float,
                    seed: int) -> np.ndarray:
    """Gaussian init, sd = scale.  Exactly zero would be a stationary point."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"init_scale must be positive and finite, got {scale}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(num_nodes, dim))


def scoring_embeddings(X: np.ndarray, masks: MaskSet) -> np.ndarray:
    """Representation used for ranking: propagated for lightgcn, raw otherwise."""
    return masks.prop.apply(X)


def _max_abs_difference(A: np.ndarray, B: np.ndarray) -> float:
    D = A - B
    return float(np.abs(D, out=D).max())


def train(graph: Graph, negatives: NegativeSet, config: TrainConfig,
          splits: SplitSet | None = None) -> TrainResult:
    """Run one model to convergence or divergence.

    Early stopping needs `splits` with validation edges: training stops once
    validation Recall@eval_k has not improved for `patience` consecutive
    evaluations, and the best-validation snapshot is returned.  Without
    splits, or when no epoch was a validation epoch (`eval_every` above
    `max_epochs`), the loop runs max_epochs and returns the final state.

    Raises DivergenceError (tagged with the epoch) at the first non-finite
    embedding of either path or non-finite loss.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges: there is nothing to train on")
    params = config.params
    op = KernelOperator.build(params, config.alpha, graph, negatives)

    X = init_embeddings(graph.num_nodes, config.dim, config.init_scale,
                        config.seed)
    # a kernel step at X runs on the kernel path and for the gradient path's
    # traced substeps; on "both" the kernel trajectory runs beside the
    # authoritative gradient one, on its own forward pass (`kernel_step`)
    Xk = X.copy() if config.path == "both" else None
    step_at_x = config.path == "kernel" or (config.trace_substeps and Xk is None)
    early = splits is not None and splits.val.shape[0] > 0
    # the validation ranking's split-only state, shared by every run on
    # this graph and split at this cutoff
    rank_val = ranker(splits, graph, config.eval_k, "val") if early else None
    history = TrainHistory()
    best_X = None
    best_metric = -np.inf
    failed_evals = 0

    # overflow and nan end the run as a DivergenceError at the first
    # non-finite embedding or loss, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        # the forward pass at X, computed once per embedding: P X and the
        # scores of the pattern's owned slots, one per unordered pair
        Y = op.prop.apply(X)
        s = op.pattern.scores(Y)

        for epoch in range(1, config.max_epochs + 1):
            if step_at_x:  # the step's own K+ gives the diagnostic
                Xs, trace = kernel_update(X, Y, score_matrices(Y, op, s), op)
                mean_kp = trace.mean_k_plus
                if config.path == "kernel":
                    X = check_finite(Xs, "kernel step", epoch)
                del Xs  # the traced gradient path keeps the trace alone
            else:
                mean_kp = positive_kernel_mean(score_matrices(Y, op, s), op)
            if Xk is not None:
                Xk, trace = kernel_step(Xk, op, epoch)
            if config.path != "kernel":
                X = gd_step(X, support_gradient(X, Y, s, op.pattern, op.prop,
                                                params),
                            config.alpha, step=epoch)
            del Y, s  # the step was the old forward pass's last reader
            Y = op.prop.apply(X)
            s = op.pattern.scores(Y)
            loss = support_loss(X, s, op.pattern, params.lam, params.beta)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss ({loss}) in substep "
                                      f"'loss'", epoch)

            val_recall = None
            if early and epoch % config.eval_every == 0:
                val_recall = rank_val.recall(Y)
                if val_recall > best_metric:
                    best_metric = val_recall
                    best_X = X
                    history.best_epoch = epoch
                    history.best_metric = val_recall
                    failed_evals = 0
                else:
                    failed_evals += 1

            history.records.append(EpochRecord(
                epoch=epoch,
                loss=loss,
                mean_k_plus=mean_kp,
                frob_norm=frobenius(X),
                val_recall=val_recall,
                divergence=None if Xk is None else _max_abs_difference(X, Xk),
                substeps=trace.norms if config.trace_substeps else None))

            if early and failed_evals >= config.patience:
                history.stopped_epoch = epoch
                history.reason = "early_stop"
                break
        else:
            history.stopped_epoch = config.max_epochs
            history.reason = "max_epochs"

    final = X if best_X is None else best_X
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
    order and only strict improvements replace the incumbent.  An empty
    `alphas` or `layer_grid`, or one that lists a value twice, is a
    ValueError naming it.
    """
    alphas, layer_grid = tuple(alphas), tuple(layer_grid)
    check_distinct("alphas", alphas)
    check_distinct("layer_grid", layer_grid)
    if splits.val.shape[0] == 0:
        raise ValueError("grid search needs validation edges")
    # the layer grid covers the models whose table row reads `layers`
    rows = (model_table(base.window, 0)[base.model],
            model_table(base.window, 1)[base.model])
    layer_values = layer_grid if rows[0] != rows[1] else (base.layers,)
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
            if metric is None:  # never validated (eval_every > max_epochs)
                scored = scoring_propagation(graph, cfg.params).apply(
                    result.embeddings)
                metric = ranker(splits, graph, base.eval_k, "val").recall(
                    scored)
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
                 **sampling) -> list[RepeatOutcome]:
    """Train once per seed (fresh init and fresh negatives) and score on test,
    every seed through the graph's one test-split `ranker`.  `sampling`
    goes to `sample_negatives` under its own names, which owns their
    defaults."""
    rank_test = ranker(splits, graph, config.eval_k, "test")
    outcomes = []
    for seed in seeds:
        negatives = sample_negatives(graph, seed=seed, **sampling)
        cfg = replace(config, seed=seed)
        result = train(graph, negatives, cfg, splits=splits)
        scored = scoring_propagation(graph, cfg.params).apply(result.embeddings)
        metrics = rank_test(scored)
        outcomes.append(RepeatOutcome(seed=seed, result=result, metrics=metrics))
    return outcomes
