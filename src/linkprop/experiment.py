"""End-to-end experiment runs driven by a flat INI config.

One run: ingest -> split -> (optional grid search) -> train with repetition
seeds -> evaluate -> emit report.  Everything written is deterministic for a
fixed config and thread count: reports carry no timestamps, floats are
serialized at full precision, and file names are derived from config fields
only.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy

import linkprop
from linkprop.data_io import (graph_density_pct, graph_from_split,
                              load_edge_list, split_dataset, write_metrics_csv)
from linkprop.diagnostics import emit_trajectories
from linkprop.negatives import check_sampling, sample_negatives
from linkprop.ranking import mean_result
from linkprop.training import (TrainConfig, grid_search, repeat_train)

CONFIG_DEFAULTS = {
    "data": {"path": "", "format": "auto", "name": ""},
    "split": {"ratios": "0.8 0.1 0.1", "seed": "0"},
    "sampling": {"strategy": "uniform", "exponent": "0.75",
                 "per_positive": "1"},
    "model": {"models": "mf", "window": "5", "layers": "3"},
    "train": {"alpha": "0.01", "beta": "0.0", "lambda": "1.0", "dim": "64",
              "max_epochs": "200", "patience": "10", "path": "gradient",
              "init_scale": "0.01", "eval_every": "1",
              "trace_substeps": "false", "grid": "false"},
    "eval": {"k": "20", "seeds": "0"},
    "output": {"outdir": "runs/out"},
}


class ExperimentError(RuntimeError):
    """A pipeline stage failed; `stage` names which one."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass(frozen=True)
class RunConfig:
    """Flat bundle of every knob an experiment run reads."""

    dataset_path: str
    dataset_format: str = "auto"
    name: str = ""
    ratios: tuple = (0.8, 0.1, 0.1)
    split_seed: int = 0
    neg_strategy: str = "uniform"
    neg_exponent: float = 0.75
    per_positive: int = 1
    models: tuple = ("mf",)
    window: int = 5
    layers: int = 3
    alpha: float = 0.01
    beta: float = 0.0
    lam: float = 1.0
    dim: int = 64
    max_epochs: int = 200
    patience: int = 10
    path: str = "gradient"
    init_scale: float = 0.01
    eval_every: int = 1
    trace_substeps: bool = False
    grid: bool = False
    k: int = 20
    seeds: tuple = (0,)
    outdir: str = "runs/out"

    def __post_init__(self):
        if not self.models:
            raise ValueError("models must name at least one model")
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        check_sampling(self.neg_strategy, self.per_positive, self.neg_exponent)
        for model in self.models:
            self.train_config(model)  # TrainConfig names any bad field

    @property
    def dataset_name(self) -> str:
        if self.name:
            return self.name
        stem = os.path.basename(self.dataset_path)
        return stem.rsplit(".", 1)[0] if "." in stem else stem

    def train_config(self, model: str) -> TrainConfig:
        return TrainConfig(model=model, alpha=self.alpha, dim=self.dim,
                           beta=self.beta, lam=self.lam, window=self.window,
                           layers=self.layers, max_epochs=self.max_epochs,
                           patience=self.patience, path=self.path,
                           init_scale=self.init_scale, eval_every=self.eval_every,
                           eval_k=self.k, trace_substeps=self.trace_substeps)

    def to_mapping(self) -> dict:
        return {
            "data": {"path": self.dataset_path, "format": self.dataset_format,
                     "name": self.dataset_name},
            "split": {"ratios": list(self.ratios), "seed": self.split_seed},
            "sampling": {"strategy": self.neg_strategy,
                         "exponent": self.neg_exponent,
                         "per_positive": self.per_positive},
            "model": {"models": list(self.models), "window": self.window,
                      "layers": self.layers},
            "train": {"alpha": self.alpha, "beta": self.beta,
                      "lambda": self.lam, "dim": self.dim,
                      "max_epochs": self.max_epochs, "patience": self.patience,
                      "path": self.path, "init_scale": self.init_scale,
                      "eval_every": self.eval_every,
                      "trace_substeps": self.trace_substeps, "grid": self.grid},
            "eval": {"k": self.k, "seeds": list(self.seeds)},
            "output": {"outdir": self.outdir},
        }

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.read_dict(CONFIG_DEFAULTS)
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file {path} not found")
        for section in parser.sections():
            if section not in CONFIG_DEFAULTS:
                raise ValueError(f"unknown config section [{section}]")
            unknown = set(parser[section]) - set(CONFIG_DEFAULTS[section])
            if unknown:
                raise ValueError(f"unknown keys in [{section}]: {sorted(unknown)}")
        get = parser.get
        return cls(
            dataset_path=get("data", "path"),
            dataset_format=get("data", "format"),
            name=get("data", "name"),
            ratios=tuple(float(r) for r in get("split", "ratios").split()),
            split_seed=parser.getint("split", "seed"),
            neg_strategy=get("sampling", "strategy"),
            neg_exponent=parser.getfloat("sampling", "exponent"),
            per_positive=parser.getint("sampling", "per_positive"),
            models=tuple(m.strip() for m in get("model", "models").replace(
                ",", " ").split()),
            window=parser.getint("model", "window"),
            layers=parser.getint("model", "layers"),
            alpha=parser.getfloat("train", "alpha"),
            beta=parser.getfloat("train", "beta"),
            lam=parser.getfloat("train", "lambda"),
            dim=parser.getint("train", "dim"),
            max_epochs=parser.getint("train", "max_epochs"),
            patience=parser.getint("train", "patience"),
            path=get("train", "path"),
            init_scale=parser.getfloat("train", "init_scale"),
            eval_every=parser.getint("train", "eval_every"),
            trace_substeps=parser.getboolean("train", "trace_substeps"),
            grid=parser.getboolean("train", "grid"),
            k=parser.getint("eval", "k"),
            seeds=tuple(int(s) for s in get("eval", "seeds").replace(
                ",", " ").split()),
            outdir=get("output", "outdir"),
        )


@dataclass
class Report:
    """Machine-readable summary of one experiment run."""

    dataset: dict
    config: dict
    models: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"dataset": self.dataset, "config": self.config,
                   "models": self.models, "versions": self.versions}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        """Fixed-width human-readable results table."""
        lines = [f"dataset {self.dataset['name']}: "
                 f"{self.dataset['nodes']} nodes, {self.dataset['links']} links, "
                 f"density {self.dataset['density_pct']:.3f}%",
                 "",
                 f"{'model':<10} {'seed':>6} {'precision':>12} "
                 f"{'recall':>12} {'ndcg':>12}"]
        for model in sorted(self.models):
            info = self.models[model]
            for row in info["per_seed"]:
                lines.append(f"{model:<10} {row['seed']:>6} "
                             f"{row['precision']:>12.5f} {row['recall']:>12.5f} "
                             f"{row['ndcg']:>12.5f}")
            mean = info["mean"]
            lines.append(f"{model:<10} {'mean':>6} {mean['precision']:>12.5f} "
                         f"{mean['recall']:>12.5f} {mean['ndcg']:>12.5f}")
            if info.get("max_divergence") is not None:
                lines.append(f"{model:<10} path divergence "
                             f"{info['max_divergence']:.3e}")
        return "\n".join(lines) + "\n"


def _result_row(seed: int, metrics) -> dict:
    return {"seed": seed, "k": metrics.k, "precision": metrics.precision,
            "recall": metrics.recall, "ndcg": metrics.ndcg,
            "users_evaluated": metrics.users_evaluated,
            "users_skipped": metrics.users_skipped}


def run_experiment(config: RunConfig) -> Report:
    """Execute the full pipeline and write all artifacts under config.outdir.

    Emits report.json, report.txt, metrics.csv and one trajectory CSV per
    (model, seed).  Raises ExperimentError naming the failed stage.
    """
    try:
        dataset = load_edge_list(config.dataset_path, config.dataset_format)
        graph = dataset.to_graph()
    except Exception as err:
        raise ExperimentError("ingest", err) from err
    try:
        splits = split_dataset(graph, config.ratios, config.split_seed)
        train_graph = graph_from_split(splits)
    except Exception as err:
        raise ExperimentError("split", err) from err

    os.makedirs(config.outdir, exist_ok=True)
    density, pair_density = graph_density_pct(graph)
    report = Report(
        dataset={"name": config.dataset_name, "nodes": graph.num_nodes,
                 "links": graph.num_edges,
                 "users": graph.partition.num_users,
                 "items": graph.partition.num_items,
                 "density_pct": density, "pair_density_pct": pair_density,
                 "flagged_users": len(splits.flagged)},
        config=config.to_mapping(),
        versions={"linkprop": linkprop.__version__,
                  "numpy": np.__version__, "scipy": scipy.__version__})

    metric_rows = []
    for model in config.models:
        base = config.train_config(model)
        info: dict = {"grid": None, "per_seed": [], "trajectories": []}
        try:
            if config.grid:
                grid_negatives = sample_negatives(
                    train_graph, per_positive=config.per_positive,
                    strategy=config.neg_strategy, exponent=config.neg_exponent,
                    seed=config.split_seed)
                grid = grid_search(train_graph, grid_negatives, splits, base)
                base = grid.best
                info["grid"] = {
                    "best_alpha": grid.best.alpha,
                    "best_layers": grid.best.layers,
                    "best_val_recall": grid.best_metric,
                    "points": [{"alpha": p.alpha, "layers": p.layers,
                                "val_recall": p.metric, "diverged": p.diverged}
                               for p in grid.points]}
            outcomes = repeat_train(train_graph, splits, base, config.seeds,
                                    neg_strategy=config.neg_strategy,
                                    neg_exponent=config.neg_exponent,
                                    per_positive=config.per_positive)
        except Exception as err:
            raise ExperimentError(f"train[{model}]", err) from err

        divergences = []
        for outcome in outcomes:
            info["per_seed"].append(_result_row(outcome.seed, outcome.metrics))
            metric_rows.append((config.dataset_name, model, outcome.seed,
                                outcome.metrics))
            traj = os.path.join(config.outdir,
                                f"trajectory_{model}_seed{outcome.seed}.csv")
            emit_trajectories(outcome.result.history.records, traj)
            info["trajectories"].append(os.path.basename(traj))
            dev = outcome.result.history.max_divergence()
            if dev is not None:
                divergences.append(dev)
        mean = mean_result([o.metrics for o in outcomes])
        info["mean"] = {"precision": mean.precision, "recall": mean.recall,
                        "ndcg": mean.ndcg}
        info["max_divergence"] = max(divergences) if divergences else None
        info["config"] = {"alpha": base.alpha, "layers": base.layers,
                          "window": base.window, "beta": base.beta,
                          "lambda": base.lam, "dim": base.dim,
                          "path": base.path}
        report.models[model] = info

    try:
        write_metrics_csv(metric_rows, os.path.join(config.outdir, "metrics.csv"))
        with open(os.path.join(config.outdir, "report.json"), "w") as fh:
            fh.write(report.to_json())
        with open(os.path.join(config.outdir, "report.txt"), "w") as fh:
            fh.write(report.table())
    except Exception as err:
        raise ExperimentError("report", err) from err
    return report
