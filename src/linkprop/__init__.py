"""Link prediction engine: four classic models trained by full-batch gradient
descent, each with an equivalent forward-propagation kernel, plus the
evaluation and diagnostics harness around them."""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _apply_thread_env():
    """Copy LINKPROP_THREADS to every BLAS/OpenMP thread variable not
    already set."""
    threads = os.environ.get("LINKPROP_THREADS")
    if threads:
        for var in THREAD_VARS:
            os.environ.setdefault(var, threads)


# a BLAS sizes its thread pool when numpy first loads it, so this runs
# before the imports below bring numpy in
_apply_thread_env()

from linkprop.graphs import (Graph, Partition, ProximityOperator,
                             build_graph, normalize, proximity)
from linkprop.negatives import NegativeSet, QuotaUnreachable, sample_negatives
from linkprop.losses import (DivergenceError, MaskSet, ModelParams, bce_loss,
                             build_masks, gd_step, loss_gradient, model_loss)
from linkprop.kernel import (KernelOperator, LinkKernels, ScorePair,
                             SubstepTrace, kernel_step, link_kernels,
                             materialize_kernel, score_matrices,
                             sign_structure)
from linkprop.training import (TrainConfig, TrainHistory, TrainResult,
                               grid_search, init_embeddings, repeat_train,
                               scoring_embeddings, train)
from linkprop.ranking import EvalResult, Ranker, SplitSet, evaluate, top_k
from linkprop.data_io import (Dataset, ExpectedStats, load_edge_list,
                              split_dataset, verify_stats, write_canonical)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Partition", "ProximityOperator",
    "build_graph", "normalize", "proximity",
    "NegativeSet", "QuotaUnreachable", "sample_negatives",
    "DivergenceError", "MaskSet", "ModelParams", "bce_loss", "build_masks",
    "gd_step", "loss_gradient", "model_loss",
    "KernelOperator", "LinkKernels", "ScorePair", "SubstepTrace",
    "kernel_step", "link_kernels", "materialize_kernel", "score_matrices",
    "sign_structure",
    "TrainConfig", "TrainHistory", "TrainResult", "grid_search",
    "init_embeddings", "repeat_train", "scoring_embeddings", "train",
    "EvalResult", "Ranker", "SplitSet", "evaluate", "top_k",
    "Dataset", "ExpectedStats", "load_edge_list", "split_dataset",
    "verify_stats", "write_canonical",
]
