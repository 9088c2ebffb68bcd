"""The benchmark's workloads and the code that runs one repetition of them.

A workload is data, not code: where its edge file comes from, how it is
split, and the list of training jobs.  Every workload runs the same stages
in `run_experiment`'s order:

* setup: ingest (`load_edge_list`), `split_dataset`, `graph_from_split`,
  and `sample_negatives` for every job;
* train: one `train()` call per job;
* eval: per job, the test-split `scoring_embeddings` and `evaluate`, after
  `build_masks` for the scoring propagation, as `repeat_train` does.

Inputs are generated and written by `prepare()`, before any timing starts.
Library functions are always looked up through their module at call time,
so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from linkprop import (data_io, experiment, losses, negatives, ranking,
                      synthetic, training)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_INI = os.path.join(ROOT, "configs", "bench.ini")

# a job raising one of these is recorded with its class; the run goes on
FAILURES = (MemoryError, losses.DivergenceError, negatives.QuotaUnreachable)

# criterion 1 of the acceptance suite: per-step gradient/kernel deviation
DIVERGENCE_BOUND = 1e-8


@dataclass(frozen=True)
class Job:
    label: str
    config: training.TrainConfig
    neg_seed: int
    early_stop: bool  # pass the splits to train(): validation ranking per epoch


@dataclass(frozen=True)
class Inputs:
    """What setup reads: an edge file on disk plus the split and job plan."""

    path: str
    ratios: tuple
    split_seed: int
    per_positive: int
    neg_strategy: str
    neg_exponent: float
    k: int
    jobs: tuple


@dataclass
class JobOutcome:
    label: str
    fingerprint: dict | None = None
    error: str | None = None


@dataclass
class Rep:
    """Wall times of one repetition of a workload and its job outcomes."""

    setup_s: float
    train_s: float = 0.0
    eval_s: float = 0.0
    total_s: float = 0.0
    epochs: int = 0
    jobs: list = field(default_factory=list)


def _bench_config() -> experiment.RunConfig:
    return experiment.RunConfig.from_ini(BENCH_INI)


def _bench_inputs(config, jobs) -> Inputs:
    path = config.dataset_path
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return Inputs(path=path, ratios=config.ratios, split_seed=config.split_seed,
                  per_positive=config.per_positive,
                  neg_strategy=config.neg_strategy,
                  neg_exponent=config.neg_exponent, k=config.k, jobs=tuple(jobs))


def bench500_report(seed: int, workdir: str) -> Inputs:
    """configs/bench.ini as `linkprop report` runs it.

    Seed n shifts the repetition seeds by n times their count, so seed 0
    is exactly the configured experiment.
    """
    config = _bench_config()
    shift = seed * len(config.seeds)
    jobs = [Job(f"{model}/seed{s + shift}",
                replace(config.train_config(model), seed=s + shift),
                neg_seed=s + shift, early_stop=True)
            for model in config.models for s in config.seeds]
    return _bench_inputs(config, jobs)


def bench500_deepwalk_dual(seed: int, workdir: str) -> Inputs:
    """deepwalk on the bench_500 training split, both update paths, no
    validation ranking: the kernel and the gradient path side by side."""
    config = _bench_config()
    cfg = replace(config.train_config("deepwalk"), path="both",
                  max_epochs=20, seed=seed)
    return _bench_inputs(config, [Job(f"deepwalk/seed{seed}", cfg,
                                      neg_seed=seed, early_stop=False)])


def block10k_lightgcn(seed: int, workdir: str) -> Inputs:
    """A 10k-node planted-block graph, written to canonical TSV untimed."""
    graph = synthetic.block_bipartite(2000, 8000, 8, mean_degree=20, seed=seed)
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"block10k-seed{seed}.tsv")
    tmp = f"{path}.{os.getpid()}.tmp"
    data_io.write_canonical(data_io.dataset_from_graph(graph), tmp)
    os.replace(tmp, path)
    cfg = training.TrainConfig(model="lightgcn", alpha=0.05, dim=32, layers=3,
                               max_epochs=5, patience=10, eval_every=1,
                               seed=seed)
    return Inputs(path=path, ratios=(0.8, 0.1, 0.1), split_seed=seed,
                  per_positive=1, neg_strategy="uniform", neg_exponent=0.75,
                  k=20, jobs=(Job(f"lightgcn/seed{seed}", cfg, neg_seed=seed,
                                  early_stop=True),))


# name -> (seed, workdir) -> Inputs; why each exists is in BENCHMARK.json
WORKLOADS: dict[str, Callable[[int, str], Inputs]] = {
    "bench500-report": bench500_report,
    "bench500-deepwalk-dual": bench500_deepwalk_dual,
    "block10k-lightgcn": block10k_lightgcn,
}


def setup(inputs: Inputs):
    """Everything before the first epoch; returns (train graph, splits,
    per-job negatives or the error class that sampling raised)."""
    graph = data_io.load_edge_list(inputs.path).to_graph()
    splits = data_io.split_dataset(graph, inputs.ratios, inputs.split_seed)
    train_graph = data_io.graph_from_split(splits)
    sampled = []
    for job in inputs.jobs:
        try:
            sampled.append(negatives.sample_negatives(
                train_graph, per_positive=inputs.per_positive,
                strategy=inputs.neg_strategy, exponent=inputs.neg_exponent,
                seed=job.neg_seed))
        except FAILURES as err:
            sampled.append(type(err).__name__)
    return train_graph, splits, sampled


def _fingerprint(result: training.TrainResult, metrics: ranking.EvalResult) -> dict:
    history = result.history
    out = {"recall": "%.17g" % metrics.recall, "ndcg": "%.17g" % metrics.ndcg,
           "epochs": history.stopped_epoch,
           "loss": "%.17g" % history.records[-1].loss}
    if history.max_divergence() is not None:
        out["divergence"] = "%.17g" % history.max_divergence()
    return out


def check_job(result: training.TrainResult) -> str | None:
    """Why a finished job's outputs are wrong, or None when they are fine."""
    losses_seen = np.array([r.loss for r in result.history.records])
    if not np.all(np.isfinite(losses_seen)):
        return "non-finite loss"
    if not np.all(np.isfinite(result.embeddings)):
        return "non-finite embedding"
    divergence = result.history.max_divergence()
    if divergence is not None and not divergence < DIVERGENCE_BOUND:
        return f"path divergence {divergence:.3e} >= {DIVERGENCE_BOUND:g}"
    return None


def run_rep(inputs: Inputs) -> Rep:
    """One timed repetition: setup, then train and evaluate every job."""
    clock = time.perf_counter
    start = clock()
    train_graph, splits, sampled = setup(inputs)
    rep = Rep(setup_s=clock() - start)
    for job, negs in zip(inputs.jobs, sampled):
        outcome = JobOutcome(job.label)
        rep.jobs.append(outcome)
        if isinstance(negs, str):
            outcome.error = negs
            continue
        try:
            t0 = clock()
            result = training.train(train_graph, negs, job.config,
                                    splits=splits if job.early_stop else None)
            t1 = clock()
            masks = losses.build_masks(train_graph, negs, job.config.params)
            metrics = ranking.evaluate(
                training.scoring_embeddings(result.embeddings, masks),
                splits, train_graph, k=inputs.k, split="test")
            t2 = clock()
        except FAILURES as err:
            outcome.error = type(err).__name__
            continue
        rep.train_s += t1 - t0
        rep.eval_s += t2 - t1
        rep.epochs += result.history.stopped_epoch
        outcome.error = check_job(result)
        outcome.fingerprint = _fingerprint(result, metrics)
    rep.total_s = clock() - start
    return rep
