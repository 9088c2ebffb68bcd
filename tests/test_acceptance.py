"""The nine headline guarantees, one test per criterion.

Each test emits a single `criterion N: PASS/FAIL` line with capture
suspended, so the checklist shows up even when the run is piped into a
log.  Time-bounded criteria measure their own wall time and fold the
bound into the verdict.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import (DATA_DIR, negatives_from_pairs, oracle_masks,
                      random_graph_instance)
from linkprop.data_io import (ExpectedStats, dataset_from_graph,
                              graph_from_split, load_edge_list, split_dataset,
                              verify_stats, write_canonical)
from linkprop.diagnostics import frobenius, substep_contractions
from linkprop.experiment import RunConfig, run_experiment
from linkprop.graphs import Partition, build_graph
from linkprop.kernel import (KernelOperator, SubstepTrace, kernel_step,
                             materialize_kernel, model_config, score_matrices,
                             sign_structure)
from linkprop.losses import (ModelParams, build_masks, gd_step, loss_gradient,
                             model_loss)
from linkprop.negatives import sample_negatives
from linkprop.ranking import SplitSet, evaluate
from reference import (evaluate_scalar, finite_difference_gradient,
                       gradient_relative_error)
from linkprop.synthetic import equivalence_instance, table_shaped_dataset
from linkprop.training import TrainConfig, init_embeddings, repeat_train, train

ROOT = DATA_DIR.rsplit("/", 1)[0]

EQUIV_VARIANTS = (
    ("mf", {}),
    ("line", {}),
    ("deepwalk", {"window": 1}),
    ("deepwalk", {"window": 2}),
    ("deepwalk", {"window": 5}),
    ("lightgcn", {"layers": 1}),
    ("lightgcn", {"layers": 3}),
    ("lightgcn", {"layers": 5}),
)


@pytest.fixture
def check(capsys):
    """Print one `criterion N: PASS/FAIL` line past the capture, then assert."""
    def _check(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        message = f"criterion {num}: {verdict} - {detail}"
        with capsys.disabled():
            print(message, flush=True)
        assert ok, message
    return _check


def test_criterion_1_kernel_gd_trajectories_coincide(check):
    # both update rules advance independently from a shared init; the
    # per-step bound must hold along the whole trajectory, the looser
    # cumulative bound at step 50.  The gradient path steps on the dense
    # oracle's masks and P, the kernel path on the library's, so a wrong
    # mask or table entry cannot hide behind one build read by both
    start = time.perf_counter()
    worst_step, worst_final = 0.0, 0.0
    for seed in range(20):
        graph, negatives = equivalence_instance(seed)
        dim = (4, 8)[seed % 2]
        beta = (0.0, 0.01)[(seed // 2) % 2]
        alpha = (1e-3, 1e-2)[(seed // 4) % 2]
        for model, extra in EQUIV_VARIANTS:
            params = ModelParams(model=model, lam=1.0, beta=beta, **extra)
            masks = oracle_masks(graph, negatives, params)
            op = KernelOperator.build(model_config(params, alpha), graph,
                                      negatives)
            Xg = init_embeddings(graph.num_nodes, dim, TrainConfig.init_scale,
                                 seed)
            Xk = Xg.copy()
            for step in range(1, 51):
                grad = loss_gradient(Xg, masks, params)
                Xg = gd_step(Xg, grad, alpha, step=step)
                Xk, _ = kernel_step(Xk, op)
                worst_step = max(worst_step, float(np.abs(Xg - Xk).max()))
            worst_final = max(worst_final, float(np.abs(Xg - Xk).max()))
    elapsed = time.perf_counter() - start
    ok = worst_step < 1e-8 and worst_final < 1e-6 and elapsed < 30.0
    check(1, ok, f"8 variants x 20 graphs x 50 steps: worst per-step "
                 f"{worst_step:.2e}, worst final {worst_final:.2e}, "
                 f"{elapsed:.1f}s")


def test_criterion_2_gradients_match_finite_differences(check):
    start = time.perf_counter()
    worst = 0.0
    cases = (("mf", {}), ("line", {}), ("deepwalk", {"window": 2}),
             ("lightgcn", {"layers": 2}))
    for idx, (model, extra) in enumerate(cases):
        graph, negatives = random_graph_instance(seed=idx, min_nodes=10,
                                                 max_nodes=10)
        params = ModelParams(model=model, lam=1.0, beta=0.01, **extra)
        masks = build_masks(graph, negatives, params)
        rng = np.random.default_rng(idx)
        points = [np.zeros((graph.num_nodes, 3))]
        points += [rng.normal(scale=0.5, size=(graph.num_nodes, 3))
                   for _ in range(5)]
        for X in points:
            approx = finite_difference_gradient(
                lambda Y: model_loss(Y, masks, params), X)
            exact = loss_gradient(X, masks, params)
            worst = max(worst, gradient_relative_error(exact, approx))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 10.0
    check(2, ok, f"4 losses x 6 points: worst relative error {worst:.2e}, "
                 f"{elapsed:.1f}s")


def test_criterion_3_zero_layer_lightgcn_collapses_to_mf(check):
    matched = 0
    for seed in range(100):
        graph, negatives = random_graph_instance(seed=seed)
        lam = (1.0, 1.5)[seed % 2]
        beta = (0.0, 0.05)[(seed // 2) % 2]
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=0.3, size=(graph.num_nodes, 4))
        mf = ModelParams("mf", lam=lam, beta=beta)
        lgc = ModelParams("lightgcn", layers=0, lam=lam, beta=beta)
        mf_masks = build_masks(graph, negatives, mf)
        lgc_masks = build_masks(graph, negatives, lgc)
        same_loss = (model_loss(X, mf_masks, mf)
                     == model_loss(X, lgc_masks, lgc))
        same_grad = np.array_equal(loss_gradient(X, mf_masks, mf),
                                   loss_gradient(X, lgc_masks, lgc))
        matched += same_loss and same_grad
    check(3, matched == 100, f"{matched}/100 cases bitwise equal in loss "
                             f"and gradient")


def test_criterion_4_score_and_kernel_structure(check):
    models = ("mf", "line", "deepwalk", "lightgcn")
    worst_complement = 0.0
    for seed in range(50):
        graph, negatives = random_graph_instance(seed=seed + 200)
        config = model_config(ModelParams(models[seed % 4]), alpha=0.01)
        op = KernelOperator.build(config, graph, negatives)
        rng = np.random.default_rng(seed)
        Y = op.prop.apply(rng.normal(size=(graph.num_nodes, 4)))
        deviation = score_matrices(Y, op).complement_deviation()
        worst_complement = max(worst_complement, deviation)

    signs_passed = 0
    for seed in range(50):
        graph, negatives = random_graph_instance(seed=seed + 300)
        config = model_config(ModelParams("mf", beta=0.01), alpha=0.05)
        op = KernelOperator.build(config, graph, negatives)
        rng = np.random.default_rng(seed)
        scores = score_matrices(rng.normal(size=(graph.num_nodes, 4)), op)
        H = materialize_kernel(scores, op)
        signs_passed += sign_structure(H, graph, negatives).passed

    # perfectly reconstructed blocks saturate every residual sigmoid to an
    # exact float64 zero, so with beta = 0 the update returns X bitwise
    clique = lambda nodes: [(u, v) for u in nodes for v in nodes if u < v]
    graph = build_graph(clique(range(4)) + clique(range(4, 8)), num_nodes=8)
    negatives = negatives_from_pairs([(0, 4), (1, 5), (2, 6), (3, 7)], 8)
    X = np.array([[30.0]] * 4 + [[-30.0]] * 4)
    config = model_config(ModelParams("mf"), alpha=0.1)
    op = KernelOperator.build(config, graph, negatives)
    fixed = np.array_equal(kernel_step(X, op)[0], X)

    ok = worst_complement <= 1e-14 and signs_passed == 50 and fixed
    check(4, ok, f"complement deviation {worst_complement:.1e}, sign "
                 f"structure {signs_passed}/50, saturated fixed point "
                 f"{'held' if fixed else 'broke'}")


def test_criterion_5_positive_kernel_decay_and_contractions(check):
    start = time.perf_counter()
    graph = load_edge_list(DATA_DIR + "/bench_500.tsv").to_graph()
    negatives = sample_negatives(graph, seed=0)
    mf = train(graph, negatives,
               TrainConfig(model="mf", alpha=0.1, dim=32, path="kernel",
                           max_epochs=20))
    lgc = train(graph, negatives,
                TrainConfig(model="lightgcn", layers=3, alpha=0.1, dim=32,
                            path="kernel", max_epochs=50, trace_substeps=True))
    mf_mean = mf.history.records[19].mean_k_plus
    lgc_mean = lgc.history.records[19].mean_k_plus

    prev = frobenius(init_embeddings(graph.num_nodes, 32,
                                     TrainConfig.init_scale, 0))
    contracted = 0
    for record in lgc.history.records:
        trace = SubstepTrace(input_norm=prev, norms=record.substeps)
        contracted += substep_contractions(trace) == (True, True)
        prev = record.frob_norm
    elapsed = time.perf_counter() - start
    ok = mf_mean < lgc_mean and contracted == 50 and elapsed < 120.0
    check(5, ok, f"mean positive kernel at epoch 20: mf {mf_mean:.4f} < "
                 f"lightgcn {lgc_mean:.4f}; contractions {contracted}/50, "
                 f"{elapsed:.0f}s")


def test_criterion_6_ranking_metrics_match_scalar_oracle(check):
    # the library's ranking against the oracle that sorts each user's
    # candidates: small random splits (users without test edges, trained
    # test items, users with no candidate left), distinct or tied scores
    # and cutoffs past the item count
    rng = np.random.default_rng(123)
    exact = 0
    for _ in range(1000):
        part = Partition(int(rng.integers(1, 6)), int(rng.integers(1, 31)))
        cells = np.array([(u, part.num_users + i)
                          for u in range(part.num_users)
                          for i in range(part.num_items)])
        label = rng.choice(3, size=cells.shape[0], p=[0.4, 0.4, 0.2])
        label[rng.integers(cells.shape[0])] = 2  # at least one test edge
        train, test = cells[label == 1], cells[label == 2]
        splits = SplitSet(partition=part, train=train, val=cells[:0],
                          test=test, ratios=(0.8, 0.1, 0.1), seed=0)
        graph = build_graph(train, partition=part)
        X = rng.normal(size=(part.num_nodes, int(rng.integers(1, 5))))
        if rng.random() < 0.5:
            X = np.round(X)
        k = int(rng.integers(1, 26))
        exact += (dataclasses.astuple(evaluate(X, splits, graph, k))
                  == evaluate_scalar(X, splits, graph, k))
    # one user, items scored 3, 2, 1: the held-out item ranked first, then
    # second
    part = Partition(1, 3)
    X = np.array([[1.0], [3.0], [2.0], [1.0]])
    graph = build_graph(np.empty((0, 2), dtype=np.int64), partition=part)
    ndcg = [evaluate(X, SplitSet(partition=part, train=graph.edges,
                                 val=graph.edges, test=np.array([[0, item]]),
                                 ratios=(0.8, 0.1, 0.1), seed=0),
                     graph, k=3).ndcg for item in (1, 2)]
    closed = ndcg == [1.0, 1.0 / math.log2(3.0)]
    ok = exact == 1000 and closed
    check(6, ok, f"{exact}/1000 randomized splits exact, closed forms "
                 f"{'exact' if closed else 'off'}")


def test_criterion_7_reference_shape_certification(check, tmp_path):
    cases = (("elect", ExpectedStats(nodes=2957, links=35931,
                                     density_pct=1.645)),
             ("lastfm", ExpectedStats(nodes=6381, links=52668,
                                      density_pct=0.620)))
    passed = []
    for name, expected in cases:
        graph = table_shaped_dataset(name, seed=0)
        path = tmp_path / f"{name}.tsv"
        write_canonical(dataset_from_graph(graph), path)
        loaded = load_edge_list(path).to_graph()
        passed.append(verify_stats(loaded, expected).passed)
    check(7, all(passed),
          "elect 2957/35931/1.645% and lastfm 6381/52668/0.620% certified "
          "through the full write/load round trip")


def test_criterion_8_lightgcn_beats_mf_on_benchmark(check):
    start = time.perf_counter()
    graph = load_edge_list(DATA_DIR + "/bench_500.tsv").to_graph()
    splits = split_dataset(graph, seed=0)
    train_graph = graph_from_split(splits)
    common = dict(dim=32, max_epochs=80, patience=10)
    mf = repeat_train(train_graph, splits,
                      TrainConfig(model="mf", alpha=0.05, **common),
                      seeds=range(5))
    lgc = repeat_train(train_graph, splits,
                       TrainConfig(model="lightgcn", layers=3, alpha=0.1,
                                   **common),
                       seeds=range(5))
    margins = [l.metrics.recall - m.metrics.recall for m, l in zip(mf, lgc)]
    elapsed = time.perf_counter() - start
    ok = all(margin >= 0 for margin in margins) and elapsed < 180.0
    check(8, ok, f"recall@20 margin over 5 seeds: min {min(margins):+.4f}, "
                 f"{elapsed:.0f}s")


def test_criterion_9_reruns_are_bit_identical(check, tmp_path):
    config = RunConfig.from_ini(ROOT + "/configs/toy.ini")
    config = dataclasses.replace(config, dataset_path=DATA_DIR + "/toy_50.tsv",
                                 outdir=str(tmp_path / "run"))
    run_experiment(config)
    names = ("report.json", "report.txt", "metrics.csv",
             "trajectory_mf_seed0.csv")
    first = {name: (tmp_path / "run" / name).read_bytes() for name in names}
    run_experiment(config)
    identical = sum((tmp_path / "run" / name).read_bytes() == first[name]
                    for name in names)
    check(9, identical == len(names),
          f"{identical}/{len(names)} artifacts byte-identical on rerun")
