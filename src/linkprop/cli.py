"""Command-line entry point.

Subcommands map to pipeline stages (ingest, split, train, evaluate), plus
the dual-path verification harness and the full experiment orchestrator
(report).  The package's `__init__` applies LINKPROP_THREADS before any
module of it imports numpy.  `ingest`, `split`, `train` and `evaluate` pass
on only the flags given (argparse.SUPPRESS): an omitted one takes the
library default, TrainConfig's for a training setting.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from linkprop.data_io import (FORMATS, graph_density_pct, graph_from_split,
                              load_edge_list, load_splits, save_splits,
                              split_dataset, write_canonical,
                              write_metrics_csv)
from linkprop.diagnostics import emit_trajectories
from linkprop.experiment import RunConfig, run_experiment
from linkprop.graphs import check_integer
from linkprop.losses import MODELS, ModelParams, scoring_propagation
from linkprop.negatives import STRATEGIES, sample_negatives
from linkprop.ranking import evaluate
from linkprop.synthetic import equivalence_instance
from linkprop.training import PATHS, TRAIN_FIELDS, TrainConfig, train

EPILOG = """environment:
  LINKPROP_THREADS   pin BLAS/OpenMP thread count (set before numpy loads;
                     required for bit-reproducible reports across runs)
  LINKPROP_OUTDIR    default output directory for train/report artifacts
"""


def _given(args, names) -> dict:
    """The settings among `names` that a flag gave."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _default_outdir(flag_value):
    return flag_value or os.environ.get("LINKPROP_OUTDIR", RunConfig.outdir)


def cmd_ingest(args) -> int:
    dataset = load_edge_list(args.input, **_given(args, ("fmt",)))
    graph = dataset.to_graph()
    write_canonical(dataset, args.output)
    density, _ = graph_density_pct(graph)
    print(f"{args.output}: {graph.partition.num_users} users, "
          f"{graph.partition.num_items} items, {graph.num_edges} links, "
          f"density {density:.3f}%")
    return 0


def cmd_split(args) -> int:
    dataset = load_edge_list(args.input, **_given(args, ("fmt",)))
    splits = split_dataset(dataset.to_graph(),
                           **_given(args, ("ratios", "seed")))
    save_splits(dataset, splits, args.outdir)
    print(f"{args.outdir}: train {splits.train.shape[0]}, "
          f"val {splits.val.shape[0]}, test {splits.test.shape[0]} "
          f"({len(splits.flagged)} users without test edges)")
    return 0


def cmd_train(args) -> int:
    _, splits = load_splits(args.splits)
    graph = graph_from_split(splits)
    config = TrainConfig(**_given(args, TRAIN_FIELDS))
    negatives = sample_negatives(graph, seed=config.seed,
                                 **_given(args, ("per_positive", "strategy",
                                                 "exponent")))
    result = train(graph, negatives, config, splits=splits)
    outdir = _default_outdir(args.outdir)
    os.makedirs(outdir, exist_ok=True)
    stem = f"{config.model}_seed{config.seed}"
    emb_path = os.path.join(outdir, f"embeddings_{stem}.npy")
    np.save(emb_path, result.embeddings)
    traj_path = os.path.join(outdir, f"trajectory_{stem}.csv")
    emit_trajectories(result.history.records, traj_path)
    hist = result.history
    print(f"{emb_path}: stopped at epoch {hist.stopped_epoch} ({hist.reason})"
          + (f", best val recall {hist.best_metric:.5f} at epoch "
             f"{hist.best_epoch}" if hist.best_metric is not None else ""))
    return 0


def cmd_evaluate(args) -> int:
    _, splits = load_splits(args.splits)
    graph = graph_from_split(splits)
    X = np.load(args.embeddings)
    params = ModelParams(model=args.model,
                         **_given(args, ("window", "layers")))
    result = evaluate(scoring_propagation(graph, params).apply(X), splits,
                      graph, getattr(args, "k", TrainConfig.eval_k))
    print(f"precision@{result.k} {result.precision:.5f}  recall@{result.k} "
          f"{result.recall:.5f}  ndcg@{result.k} {result.ndcg:.5f}  "
          f"({result.users_evaluated} users, {result.users_skipped} skipped)")
    if args.csv:
        seed = getattr(args, "seed", TrainConfig.seed)
        write_metrics_csv([(args.splits, args.model, seed, result)], args.csv)
    return 0


def cmd_verify_equivalence(args) -> int:
    check_integer("--graphs", args.graphs, 1)
    check_integer("--steps", args.steps, 1)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"--tolerance must be positive and finite, "
                         f"got {args.tolerance}")
    variants = [("mf", {}), ("line", {}), ("deepwalk", {"window": 2}),
                ("lightgcn", {})]
    if args.model != "all":
        variants = [(m, kw) for m, kw in variants if m == args.model]
        if not variants:
            print(f"unknown model {args.model!r}", file=sys.stderr)
            return 2
    failed = False
    for model, kw in variants:
        worst_step = worst_cum = 0.0
        for seed in range(args.graphs):
            graph, negatives = equivalence_instance(seed)
            config = TrainConfig(model, beta=args.beta, dim=args.dim,
                                 max_epochs=args.steps, path="both",
                                 seed=seed, **_given(args, ("alpha",)), **kw)
            history = train(graph, negatives, config).history
            worst_step = max(worst_step, history.max_divergence())
            worst_cum = max(worst_cum, history.records[-1].divergence)
        ok = worst_step < args.tolerance
        failed = failed or not ok
        print(f"{model:10s} per-step max dev {worst_step:.3e}  "
              f"final dev {worst_cum:.3e}  "
              f"{'OK' if ok else 'EXCEEDS ' + str(args.tolerance)}")
    return 1 if failed else 0


def cmd_report(args) -> int:
    config = RunConfig.from_ini(args.config)
    if args.outdir or "LINKPROP_OUTDIR" in os.environ:
        config = replace(config, outdir=_default_outdir(args.outdir))
    report = run_experiment(config)
    print(report.table(), end="")
    print(f"artifacts in {config.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkprop",
        description="Link prediction by gradient descent and equivalent "
                    "propagation kernels.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an edge list, write canonical form",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    p.add_argument("--format", dest="fmt", choices=FORMATS)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="per-user train/val/test split",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    p.add_argument("--format", dest="fmt", choices=FORMATS)
    p.add_argument("--outdir", required=True)
    p.add_argument("--ratios", nargs=3, type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_split)

    # each flag's dest is the setting it gives
    p = sub.add_parser("train", help="train one model on a split directory",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--splits", required=True)
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--epochs", dest="max_epochs", metavar="EPOCHS", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--path", choices=PATHS)
    p.add_argument("--init-scale", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--k", dest="eval_k", metavar="K", type=int)
    p.add_argument("--trace", dest="trace_substeps", action="store_true",
                   help="record substep norms each epoch")
    p.add_argument("--neg-strategy", dest="strategy", choices=STRATEGIES)
    p.add_argument("--neg-exponent", dest="exponent", metavar="NEG_EXPONENT",
                   type=float)
    p.add_argument("--per-positive", type=int)
    p.add_argument("--outdir", default="")
    # main names these flags, not their settings, in an error message
    p.set_defaults(func=cmd_train, flags={
        a.dest: a.option_strings[-1] for a in p._actions
        if a.option_strings[-1] != "--" + a.dest})

    p = sub.add_parser("evaluate", help="rank and score saved embeddings",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--splits", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--window", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--csv", default="")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify-equivalence",
                       help="check kernel steps against gradient steps")
    p.add_argument("--model", default="all")
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("report", help="run a full experiment from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default="")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as err:
        name, space, rest = str(err).partition(" ")
        flag = getattr(args, "flags", {}).get(name, name)
        print(f"error: {flag}{space}{rest}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
