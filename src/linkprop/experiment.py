"""End-to-end experiment runs driven by a flat INI config.

One run: ingest -> split -> (optional grid search) -> train with repetition
seeds -> evaluate -> emit report.  Everything written is deterministic for a
fixed config and thread count: reports carry no timestamps, floats are
serialized at full precision, and file names are derived from config fields
only.
"""

from __future__ import annotations

import configparser
import inspect
import json
import os
import typing
from dataclasses import dataclass, field, fields

import numpy as np
import scipy

import linkprop
from linkprop.data_io import (check_ratios, graph_density_pct,
                              graph_from_split, load_edge_list, split_dataset,
                              write_metrics_csv)
from linkprop.diagnostics import emit_trajectories
from linkprop.graphs import check_integer
from linkprop.negatives import check_sampling, sample_negatives
from linkprop.ranking import mean_result
from linkprop.training import (TRAIN_FIELDS, TrainConfig, grid_search,
                               repeat_train)

# (INI section, key, RunConfig field), in the order a config file lists them
INI_KEYS = (
    ("data", "path", "dataset_path"), ("data", "format", "dataset_format"),
    ("data", "name", "name"),
    ("split", "ratios", "ratios"), ("split", "seed", "split_seed"),
    ("sampling", "strategy", "neg_strategy"),
    ("sampling", "exponent", "neg_exponent"),
    ("sampling", "per_positive", "per_positive"),
    ("model", "models", "models"), ("model", "window", "window"),
    ("model", "layers", "layers"),
    ("train", "alpha", "alpha"), ("train", "beta", "beta"),
    ("train", "lambda", "lam"), ("train", "dim", "dim"),
    ("train", "max_epochs", "max_epochs"), ("train", "patience", "patience"),
    ("train", "path", "path"), ("train", "init_scale", "init_scale"),
    ("train", "eval_every", "eval_every"),
    ("train", "trace_substeps", "trace_substeps"), ("train", "grid", "grid"),
    ("eval", "k", "k"), ("eval", "seeds", "seeds"),
    ("output", "outdir", "outdir"),
)


def _default(function, name: str):
    """The default of `function`'s parameter `name`, which owns it."""
    return inspect.signature(function).parameters[name].default


class ExperimentError(RuntimeError):
    """A pipeline stage failed; `stage` names which one."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass(frozen=True)
class RunConfig:
    """Flat bundle of every knob an experiment run reads.

    A field named like a TrainConfig field is that setting, with its
    default; `k` is TrainConfig's `eval_k`.  The data, split and sampling
    defaults are load_edge_list's, split_dataset's and sample_negatives'.
    """

    dataset_path: str
    dataset_format: str = _default(load_edge_list, "fmt")
    name: str = ""
    ratios: tuple[float, ...] = _default(split_dataset, "ratios")
    split_seed: int = _default(split_dataset, "seed")
    neg_strategy: str = _default(sample_negatives, "strategy")
    neg_exponent: float = _default(sample_negatives, "exponent")
    per_positive: int = _default(sample_negatives, "per_positive")
    models: tuple[str, ...] = ("mf",)
    window: int = TrainConfig.window
    layers: int = TrainConfig.layers
    alpha: float = TrainConfig.alpha
    beta: float = TrainConfig.beta
    lam: float = TrainConfig.lam
    dim: int = TrainConfig.dim
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    path: str = TrainConfig.path
    init_scale: float = TrainConfig.init_scale
    eval_every: int = TrainConfig.eval_every
    trace_substeps: bool = TrainConfig.trace_substeps
    grid: bool = False
    k: int = TrainConfig.eval_k
    seeds: tuple[int, ...] = (TrainConfig.seed,)
    outdir: str = "runs/out"

    def __post_init__(self):
        if not self.models:
            raise ValueError("models must name at least one model")
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        # the checked floats, so the config and what it writes hold numbers
        object.__setattr__(self, "ratios", check_ratios(self.ratios))
        check_integer("split_seed", self.split_seed, 0)
        for seed in self.seeds:
            check_integer("seeds", seed, 0)
        # a repeat would train the same run twice, write its files twice
        # and count it twice in the report's mean
        for name in ("models", "seeds"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once")
        check_sampling(**self.sampling)
        for model in self.models:
            self.train_config(model)  # TrainConfig names any bad field

    @property
    def dataset_name(self) -> str:
        if self.name:
            return self.name
        stem = os.path.basename(self.dataset_path)
        return stem.rsplit(".", 1)[0] if "." in stem else stem

    @property
    def sampling(self) -> dict:
        """The sampling settings under sample_negatives' names."""
        return {"per_positive": self.per_positive,
                "strategy": self.neg_strategy, "exponent": self.neg_exponent}

    def train_config(self, model: str) -> TrainConfig:
        return TrainConfig(model=model, eval_k=self.k, **{
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name in TRAIN_FIELDS})

    def to_mapping(self) -> dict:
        mapping: dict = {}
        for section, key, name in INI_KEYS:
            value = getattr(self, name)
            mapping.setdefault(section, {})[key] = (
                list(value) if isinstance(value, tuple) else value)
        return mapping

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(converters=_LIST_CONVERTERS)
        parser.read_dict(CONFIG_DEFAULTS)
        if not parser.read(path, encoding="utf-8"):
            raise FileNotFoundError(f"config file {path} not found")
        for section in parser.sections():
            if section not in CONFIG_DEFAULTS:
                raise ValueError(f"unknown config section [{section}]")
            unknown = set(parser[section]) - set(CONFIG_DEFAULTS[section])
            if unknown:
                raise ValueError(f"unknown keys in [{section}]: {sorted(unknown)}")
        types = typing.get_type_hints(cls)
        return cls(**{name: getattr(parser, _GETTERS[types[name]])(section, key)
                      for section, key, name in INI_KEYS})


# the parser's getter by RunConfig field type; models and seeds may be
# separated by commas, ratios only by whitespace
_GETTERS = {str: "get", int: "getint", float: "getfloat", bool: "getboolean",
            tuple[float, ...]: "getfloats", tuple[str, ...]: "getwords",
            tuple[int, ...]: "getints"}
_LIST_CONVERTERS = {
    "floats": lambda text: tuple(float(r) for r in text.split()),
    "words": lambda text: tuple(text.replace(",", " ").split()),
    "ints": lambda text: tuple(int(s) for s in text.replace(",", " ").split())}


def _ini_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


# every INI key's default as text; the data path has none
CONFIG_DEFAULTS = {
    section: {key: _ini_text(value) for key, value in keys.items()}
    for section, keys in RunConfig(dataset_path="").to_mapping().items()}


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
                    train_graph, seed=config.split_seed, **config.sampling)
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
                                    **config.sampling)
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
        with open(os.path.join(config.outdir, "report.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_json())
        with open(os.path.join(config.outdir, "report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.table())
    except Exception as err:
        raise ExperimentError("report", err) from err
    return report
