import dataclasses
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from linkprop import training
from linkprop.data_io import graph_from_split, split_dataset
from linkprop.experiment import RunConfig, run_experiment
from linkprop.graphs import (MAX_PROXIMITY_ORDER, MaskEntries, Partition,
                             ProximityOperator, SupportPattern, build_graph)
from linkprop.kernel import KernelOperator, link_kernels
from linkprop.losses import (DivergenceError, ModelParams, build_masks, gd_step,
                             loss_gradient, sigmoid)
from linkprop.negatives import _sample, sample_negatives
from linkprop.ranking import Ranker, SplitSet, evaluate
from reference import evaluate_scalar
from linkprop.synthetic import block_bipartite, equivalence_instance
from linkprop.training import (ALPHA_GRID, INTEGER_FIELDS, AllPointsDiverged,
                               GridPoint, TrainConfig, TrainHistory, TrainResult,
                               grid_search, init_embeddings, repeat_train,
                               scoring_embeddings, train)

from conftest import DATA_DIR, counted_rankers, negatives_from_pairs

CONFIGS = DATA_DIR.rsplit("/", 1)[0] + "/configs"

TINY = 1e-15  # small enough that rankings cannot move between epochs


@pytest.fixture
def split_instance():
    """Bipartite instance with hand-made train/val/test splits."""
    part = Partition(5, 4)
    train = np.array([(0, 5), (1, 5), (2, 6), (3, 7), (4, 5)])
    val = np.array([(0, 6), (1, 7), (2, 8)])
    test = np.array([(3, 8), (4, 8)])
    splits = SplitSet(partition=part, train=train, val=val, test=test,
                      ratios=(0.5, 0.3, 0.2), seed=0)
    graph = build_graph(train, partition=part)
    negatives = sample_negatives(graph, seed=1)
    return graph, negatives, splits


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"model": "prone"}, {"alpha": 0.0}, {"alpha": -1.0}, {"dim": 0},
        {"max_epochs": 0}, {"patience": 0}, {"path": "mixed"},
        {"init_scale": 0.0}, {"eval_every": 0}])
    def test_validation(self, kwargs):
        base = dict(model="mf", alpha=0.05)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TrainConfig(**base)

    @pytest.mark.parametrize("field, value", [
        ("alpha", float("nan")), ("alpha", float("inf")),
        ("layers", -1), ("layers", MAX_PROXIMITY_ORDER + 1),
        ("window", 0), ("window", MAX_PROXIMITY_ORDER + 1),
        ("eval_k", 0), ("lam", float("nan")), ("lam", float("inf")),
        ("lam", -1.0), ("beta", float("nan")), ("beta", float("inf")),
        ("beta", -1.0), ("init_scale", float("nan")),
        ("init_scale", float("inf")), ("init_scale", float("-inf")),
        ("seed", -1)])
    def test_rejection_names_the_field(self, field, value):
        kwargs = {"model": "lightgcn", "alpha": 0.05, field: value}
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(2.0)])
    @pytest.mark.parametrize("field",
                             INTEGER_FIELDS + ("window", "layers", "seed"))
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        # eval_k=2.5 used to fail only inside the first validation ranking
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(model="lightgcn", alpha=0.05, **{field: value})

    @pytest.mark.parametrize("field",
                             INTEGER_FIELDS + ("window", "layers", "seed"))
    def test_integer_fields_accept_numpy_integers(self, field):
        config = TrainConfig(model="lightgcn", alpha=0.05,
                             **{field: np.int64(2)})
        assert getattr(config, field) == 2

    def test_model_defaults_are_model_params(self):
        config, params = TrainConfig(model="lightgcn"), ModelParams("lightgcn")
        assert config.params == params
        for name in ("window", "layers", "lam", "beta"):
            assert getattr(config, name) == getattr(params, name)

    def test_overflowing_alpha_times_beta_names_both(self):
        # each is finite, but the kernel's c1 = 1 - alpha * beta is not
        with pytest.raises(ValueError, match=r"alpha \* beta.*alpha=.*beta="):
            TrainConfig(model="mf", alpha=1e300, beta=1e300)

    @pytest.mark.parametrize("kwargs", [
        {"layers": 0}, {"layers": MAX_PROXIMITY_ORDER}, {"window": 1},
        {"window": MAX_PROXIMITY_ORDER}, {"eval_k": 1}])
    def test_range_ends_accepted(self, kwargs):
        assert TrainConfig(model="lightgcn", alpha=0.05, **kwargs)

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None,
                                       np.bool_(False)])
    def test_trace_substeps_must_be_a_bool(self, value):
        # "false" used to be accepted and then read as true by train()
        with pytest.raises(ValueError, match=f"trace_substeps must be a "
                                             f"bool, got {value!r}"):
            TrainConfig("mf", trace_substeps=value)

    def test_params_passthrough(self):
        cfg = TrainConfig("deepwalk", alpha=0.1, window=7, lam=0.5, beta=0.2)
        assert cfg.params.model == "deepwalk"
        assert cfg.params.window == 7
        assert cfg.params.lam == 0.5
        assert cfg.params.beta == 0.2


class TestInitEmbeddings:
    def test_deterministic_per_seed(self):
        a = init_embeddings(20, 8, 0.01, seed=3)
        assert np.array_equal(a, init_embeddings(20, 8, 0.01, seed=3))
        assert not np.array_equal(a, init_embeddings(20, 8, 0.01, seed=4))

    def test_moments(self):
        X = init_embeddings(2000, 50, scale=0.02, seed=0)
        assert abs(float(X.mean())) < 0.001
        assert float(X.std()) == pytest.approx(0.02, rel=0.05)

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            init_embeddings(5, 2, scale=0.0, seed=0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="init_scale"):
            init_embeddings(5, 2, scale=scale, seed=0)


class TestTrainPaths:
    @pytest.mark.parametrize("model,extra", [
        ("mf", {}), ("line", {}), ("deepwalk", {"window": 2}),
        ("lightgcn", {"layers": 2})])
    def test_both_paths_coincide(self, bipartite_instance, model, extra):
        graph, neg = bipartite_instance
        cfg = TrainConfig(model, alpha=0.05, dim=8, beta=0.01, path="both",
                          max_epochs=30, seed=0, **extra)
        result = train(graph, neg, cfg)
        assert len(result.history.records) == 30
        assert result.history.reason == "max_epochs"
        assert result.history.max_divergence() < 1e-6

    def test_bitwise_reproducible(self, bipartite_instance):
        graph, neg = bipartite_instance
        cfg = TrainConfig("line", alpha=0.05, dim=6, max_epochs=10, seed=7)
        a = train(graph, neg, cfg)
        b = train(graph, neg, cfg)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert [r.loss for r in a.history.records] == \
               [r.loss for r in b.history.records]

    def test_kernel_path_tracks_gradient_path(self, bipartite_instance):
        graph, neg = bipartite_instance
        shared = dict(alpha=0.05, dim=6, beta=0.01, max_epochs=15, seed=2)
        grad = train(graph, neg, TrainConfig("mf", path="gradient", **shared))
        kern = train(graph, neg, TrainConfig("mf", path="kernel", **shared))
        assert float(np.abs(grad.embeddings - kern.embeddings).max()) < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_tagged_with_epoch(self, bipartite_instance):
        graph, neg = bipartite_instance
        cfg = TrainConfig("mf", alpha=1e100, dim=4, init_scale=1.0,
                          max_epochs=60, seed=0)
        with pytest.raises(DivergenceError) as exc:
            train(graph, neg, cfg)
        assert exc.value.step is not None

    @pytest.mark.parametrize("max_epochs", [44, 200])
    def test_first_non_finite_loss_raises_without_warnings(self, max_epochs):
        # the loss reaches inf at epoch 43 while the embedding is still
        # finite; before epoch 45 no step fails, so the run must stop on
        # the loss itself, and nothing numpy warns about may precede it
        graph = block_bipartite(50, 80, 4, mean_degree=6, seed=0)
        cfg = TrainConfig("mf", alpha=500, init_scale=1.0, dim=8,
                          max_epochs=max_epochs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="loss") as exc:
                train(graph, sample_negatives(graph, seed=0), cfg)
        assert exc.value.step == 43

    def test_substep_traces_recorded(self, bipartite_instance):
        graph, neg = bipartite_instance
        cfg = TrainConfig("lightgcn", alpha=0.05, dim=4, layers=2,
                          max_epochs=5, path="both", trace_substeps=True)
        result = train(graph, neg, cfg)
        for record in result.history.records:
            assert record.substeps is not None
            assert len(record.substeps) == 4
            assert record.divergence is not None


    @pytest.mark.parametrize("path", ["gradient", "kernel", "both"])
    @pytest.mark.parametrize("model,extra", [
        ("deepwalk", {"window": 2}), ("lightgcn", {"layers": 2})])
    def test_trace_changes_nothing_but_substeps(self, split_instance, path,
                                                model, extra):
        graph, neg, splits = split_instance
        cfg = TrainConfig(model, alpha=0.05, dim=4, beta=0.01, max_epochs=8,
                          path=path, **extra)
        plain = train(graph, neg, cfg, splits=splits)
        traced = train(graph, neg, replace(cfg, trace_substeps=True),
                       splits=splits)
        assert np.array_equal(plain.embeddings, traced.embeddings)
        assert all(r.substeps is not None for r in traced.history.records)
        assert [replace(r, substeps=None) for r in traced.history.records] \
            == plain.history.records

    @pytest.mark.parametrize("model,extra", [("mf", {}),
                                             ("lightgcn", {"layers": 2})])
    def test_gradient_path_applies_p_twice_per_epoch(self, split_instance,
                                                     monkeypatch, model, extra):
        # once to X after each update, once to the residual; plus the
        # forward pass at the initial embedding
        graph, neg, splits = split_instance
        calls = []
        apply = ProximityOperator.apply
        monkeypatch.setattr(ProximityOperator, "apply",
                            lambda op, X, **kw: calls.append(1)
                            or apply(op, X, **kw))
        cfg = TrainConfig(model, alpha=0.05, dim=4, max_epochs=6, **extra)
        train(graph, neg, cfg, splits=splits)
        assert len(calls) == 2 * 6 + 1

    @pytest.mark.parametrize("path", ["gradient", "kernel", "both"])
    def test_one_support_pattern_per_run(self, split_instance, path):
        # every path, the validation forward pass and the diagnostic read
        # the one KernelOperator's pattern
        graph, neg, splits = split_instance
        cfg = TrainConfig("deepwalk", alpha=0.05, dim=4, window=2,
                          max_epochs=3, path=path, trace_substeps=True)
        with mock.patch.object(SupportPattern, "__init__", autospec=True,
                               side_effect=SupportPattern.__init__) as built:
            train(graph, neg, cfg, splits=splits)
        assert built.call_count == 1

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("path, per_epoch", [("gradient", 1), ("kernel", 1),
                                                 ("both", 2)])
    def test_support_gathered_once_per_forward_pass(self, split_instance, path,
                                                    per_epoch, trace):
        # the forward pass at each X is gathered once, at the start and
        # after every step; the diagnostic, the traced substeps and the
        # kernel-path step read its scores, and only the kernel trajectory
        # beside the gradient one on "both" gathers its own
        graph, neg, splits = split_instance
        cfg = TrainConfig("deepwalk", alpha=0.05, dim=4, window=2,
                          max_epochs=5, path=path, trace_substeps=trace)
        with mock.patch.object(SupportPattern, "scores", autospec=True,
                               side_effect=SupportPattern.scores) as scores:
            result = train(graph, neg, cfg, splits=splits)
        epochs = result.history.stopped_epoch
        assert epochs == 5
        assert scores.call_count == 1 + per_epoch * epochs

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("path", ["gradient", "kernel", "both"])
    def test_negative_kernel_built_only_for_a_step_at_x(self, split_instance,
                                                        path, trace):
        # K- feeds only a kernel_update: the kernel path's step, the
        # gradient path's traced substeps and the kernel trajectory on
        # "both"; the untraced gradient path's diagnostic builds K+ alone
        graph, neg, splits = split_instance
        cfg = TrainConfig("deepwalk", alpha=0.05, dim=4, window=2,
                          max_epochs=5, path=path, trace_substeps=trace)
        with mock.patch("linkprop.kernel.link_kernels",
                        side_effect=link_kernels) as built:
            result = train(graph, neg, cfg, splits=splits)
        stepped = path != "gradient" or trace
        assert built.call_count == (result.history.stopped_epoch if stepped
                                    else 0)

    @pytest.mark.parametrize("path, trace, builds, passes", [
        ("gradient", False, 0, 1), ("gradient", True, 2, 1),
        ("kernel", False, 2, 1), ("kernel", True, 2, 1),
        ("both", False, 2, 2), ("both", True, 2, 2)])
    def test_one_positive_kernel_per_step_at_x(self, path, trace, builds,
                                               passes):
        # per epoch: a kernel step at X (the kernel path's, the gradient
        # path's traced substeps) gives the mean-K+ diagnostic from its own
        # K+, so the scores pass through the sigmoid once and K+ is built
        # once beside K-; elsewhere the diagnostic takes K+'s entries from
        # the score pair without building K+, and "both" adds the kernel
        # trajectory's scores, K+ and K-
        graph = block_bipartite(40, 60, 4, mean_degree=6, seed=0)
        neg = sample_negatives(graph, seed=0)
        cfg = TrainConfig("deepwalk", alpha=0.05, dim=4, window=2,
                          max_epochs=5, path=path, trace_substeps=trace)
        with mock.patch.object(MaskEntries, "weighted", autospec=True,
                               side_effect=MaskEntries.weighted) as built, \
                mock.patch("linkprop.kernel.sigmoid",
                           side_effect=sigmoid) as scored:
            train(graph, neg, cfg)
        assert built.call_count == 5 * builds
        assert scored.call_count == 5 * passes

    def test_edgeless_graph_rejected_at_entry(self):
        graph = build_graph([], num_nodes=4)
        neg = negatives_from_pairs([(0, 1)], 4)
        with pytest.raises(ValueError, match="no edges"):
            train(graph, neg, TrainConfig("mf", alpha=0.05, dim=2))


def test_negatives_of_another_graph_rejected():
    # used to fail deep inside the first step with numpy's broadcast error
    graph, _ = equivalence_instance(0)
    _, negatives = equivalence_instance(5)
    assert (graph.num_nodes, negatives.num_nodes) == (10, 15)
    with pytest.raises(ValueError, match="negatives are drawn on 15 nodes, "
                                         "but the graph has 10"):
        train(graph, negatives, TrainConfig("mf", max_epochs=2))


class TestEarlyStopping:
    def test_flat_validation_stops_after_patience(self, split_instance):
        # recall cannot change under a vanishing step, so the second
        # evaluation already fails to improve and patience=1 stops the run
        graph, neg, splits = split_instance
        cfg = TrainConfig("mf", alpha=TINY, dim=4, max_epochs=50, patience=1,
                          eval_k=2, seed=0)
        result = train(graph, neg, cfg, splits=splits)
        assert result.history.stopped_epoch == 2
        assert result.history.reason == "early_stop"
        assert result.history.best_epoch == 1

    def test_best_snapshot_is_post_first_epoch_state(self, split_instance):
        graph, neg, splits = split_instance
        cfg = TrainConfig("mf", alpha=TINY, dim=4, max_epochs=50, patience=1,
                          eval_k=2, seed=0)
        result = train(graph, neg, cfg, splits=splits)
        masks = build_masks(graph, neg, cfg.params)
        X0 = init_embeddings(graph.num_nodes, cfg.dim, cfg.init_scale, cfg.seed)
        X1 = gd_step(X0, loss_gradient(X0, masks, cfg.params),
                     cfg.alpha, step=1)
        assert np.array_equal(result.embeddings, X1)

    def test_eval_every_skips_epochs(self, split_instance):
        graph, neg, splits = split_instance
        cfg = TrainConfig("mf", alpha=TINY, dim=4, max_epochs=9, patience=2,
                          eval_every=2, eval_k=2, seed=0)
        result = train(graph, neg, cfg, splits=splits)
        assert result.history.stopped_epoch == 6
        recorded = [r.val_recall is not None for r in result.history.records]
        assert recorded == [False, True, False, True, False, True]

    def test_no_splits_runs_to_max_epochs(self, split_instance):
        graph, neg, _ = split_instance
        cfg = TrainConfig("mf", alpha=0.05, dim=4, max_epochs=6, patience=1)
        result = train(graph, neg, cfg)
        assert result.history.stopped_epoch == 6
        assert result.history.reason == "max_epochs"
        assert result.history.best_epoch is None


    def test_no_validation_epoch_returns_the_final_state(self,
                                                         split_instance):
        # eval_every above max_epochs: no epoch validates, so the run
        # returns its final embeddings, as a run without splits does, not
        # the initial ones
        graph, neg, splits = split_instance
        cfg = TrainConfig("mf", alpha=0.05, dim=4, max_epochs=5, eval_every=10,
                          eval_k=2)
        result = train(graph, neg, cfg, splits=splits)
        assert result.history.best_epoch is None
        assert (result.history.stopped_epoch, result.history.reason) == \
            (5, "max_epochs")
        assert np.array_equal(result.embeddings,
                              train(graph, neg, cfg).embeddings)
        assert not np.array_equal(result.embeddings, init_embeddings(
            graph.num_nodes, cfg.dim, cfg.init_scale, cfg.seed))


class TestEmbeddingBuffers:
    """train() keeps one buffer per live embedding-sized array: every step
    returns a fresh X, nothing writes into X, Y or a returned embedding,
    and the best-validation snapshot is held by reference."""

    @pytest.fixture(scope="class")
    def early_instance(self):
        graph = block_bipartite(30, 40, 3, mean_degree=10, seed=2)
        splits = split_dataset(graph, (0.6, 0.2, 0.2), seed=0)
        train_graph = graph_from_split(splits)
        return train_graph, sample_negatives(train_graph, seed=0), splits

    @pytest.mark.parametrize("path", ["gradient", "kernel", "both"])
    @pytest.mark.parametrize("model", ["mf", "lightgcn"])
    def test_best_epoch_embeddings_returned_bit_for_bit(self, early_instance,
                                                        path, model):
        # the early-stopped run returns what a run of best_epoch epochs
        # without validation ends on, although later epochs ran
        graph, neg, splits = early_instance
        cfg = TrainConfig(model, alpha=0.05, dim=8, max_epochs=60, patience=4,
                          eval_k=3, path=path)
        result = train(graph, neg, cfg, splits=splits)
        best = result.history.best_epoch
        assert best is not None and best < result.history.stopped_epoch
        short = train(graph, neg, replace(cfg, max_epochs=best))
        assert result.embeddings.tobytes() == short.embeddings.tobytes()

    @pytest.mark.parametrize("path, trace", [
        ("gradient", False), ("gradient", True), ("kernel", False),
        ("both", True)])
    @pytest.mark.parametrize("model", ["mf", "deepwalk", "lightgcn"])
    def test_nothing_writes_into_an_embedding(self, early_instance,
                                              monkeypatch, path, trace, model):
        # every X and every plain P X made read-only as it is made: a
        # write into one raises, and the run keeps its bits
        graph, neg, splits = early_instance
        cfg = TrainConfig(model, alpha=0.05, dim=8, window=2, max_epochs=8,
                          patience=2, eval_k=3, path=path,
                          trace_substeps=trace)
        expected = train(graph, neg, cfg, splits=splits)

        def frozen(out):
            array = out[0] if isinstance(out, tuple) else out
            array.flags.writeable = False
            return out

        def freezing(fn):
            return lambda *args, **kwargs: frozen(fn(*args, **kwargs))

        for name in ("init_embeddings", "gd_step", "kernel_update",
                     "kernel_step"):
            monkeypatch.setattr(f"linkprop.training.{name}",
                                freezing(getattr(training, name)))
        apply = ProximityOperator.apply
        monkeypatch.setattr(
            ProximityOperator, "apply",
            lambda op, X, **kw: (apply(op, X, **kw) if kw
                                 else frozen(apply(op, X))))
        got = train(graph, neg, cfg, splits=splits)
        assert not got.embeddings.flags.writeable
        assert got.embeddings.tobytes() == expected.embeddings.tobytes()
        assert got.history == expected.history

    @staticmethod
    def traced_peak(path, trace):
        graph = block_bipartite(1000, 4000, 8, mean_degree=20, seed=0)
        splits = split_dataset(graph, (0.8, 0.1, 0.1), seed=0)
        train_graph = graph_from_split(splits)
        neg = sample_negatives(train_graph, seed=0)
        cfg = TrainConfig("lightgcn", alpha=0.05, dim=32, layers=3,
                          max_epochs=3, patience=10, path=path,
                          trace_substeps=trace)
        # fills the graph's memo, the validation Ranker included
        train(train_graph, neg, cfg, splits=splits)
        tracemalloc.start()
        try:
            op = KernelOperator.build(cfg.params, cfg.alpha, train_graph, neg)
            own = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del op
        tracemalloc.start()
        try:
            result = train(train_graph, neg, cfg, splits=splits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.history.best_epoch is not None
        return (peak - own) / result.embeddings.nbytes

    def test_traced_peak_in_embedding_units(self):
        # 5000 nodes x 32 float64: each n x d array is 1.28 MB, next to
        # which the operator's own bytes are subtracted.
        # Live at the peak, inside the gradient's P M Y: X, Y, the best
        # snapshot, M Y accumulating P, and the two terms of one sparse
        # product, plus the owned scores; about 6.2 units.  Copies of the
        # residual, a bound gradient and a copied snapshot read 9.8
        assert self.traced_peak("gradient", False) < 8.0

    @pytest.mark.parametrize("path, trace, bound", [
        ("gradient", True, 7.0), ("kernel", False, 7.0), ("both", False, 9.0)])
    def test_traced_peak_with_a_kernel_step(self, path, trace, bound):
        # the kernel step holds one n x d buffer beside X and Y, so the
        # gradient's peak stays the run's: 6.2 units on the kernel path
        # and with the traced substeps, 8.2 on "both", which adds the
        # kernel trajectory's X and Y.  With an array per intermediate
        # they read 7.6, 7.6 and 9.6
        assert self.traced_peak(path, trace) < bound


class TestValidationRanking:
    def test_one_plan_per_run_and_none_without_splits(self, split_instance):
        # the plan lives in the graph's memo: one for every run on the
        # graph at that split and cutoff, none without splits
        graph, neg, splits = split_instance
        built = []
        cfg = TrainConfig("mf", alpha=0.05, dim=4, max_epochs=6, patience=10,
                          eval_k=2)
        with mock.patch("linkprop.ranking.Ranker", counted_rankers(built)):
            train(graph, neg, cfg, splits=splits)
            assert built == [(2, "val")]
            train(graph, neg, replace(cfg, seed=1), splits=splits)
            train(graph, neg, cfg)
        assert built == [(2, "val")]

    def test_validation_reads_hits_without_a_full_ranking(self,
                                                          split_instance):
        # every validation epoch, and grid_search's ranking of a point that
        # never validated, calls Ranker.recall; none ranks for ndcg
        graph, neg, splits = split_instance
        calls = []

        class HitsOnly(Ranker):
            def __call__(self, X):
                raise AssertionError("a full ranking in validation")

            def recall(self, X):
                calls.append(X.shape)
                return super().recall(X)

        cfg = TrainConfig("mf", alpha=0.05, dim=4, max_epochs=6, patience=10,
                          eval_k=2)
        with mock.patch("linkprop.ranking.Ranker", HitsOnly):
            history = train(graph, neg, cfg, splits=splits).history
            assert len(calls) == len(history.records) == 6
            grid_search(graph, neg, splits, replace(cfg, eval_every=7),
                        alphas=(0.05,))
        assert len(calls) == 7

    @pytest.mark.parametrize("model", ["mf", "lightgcn"])
    def test_early_stopping_as_the_scalar_oracle_ranks(self, model):
        # the same run with each epoch's validation ranking done by
        # reference.evaluate_scalar at the configured k, whatever plan
        # train() asked for: a plan for the test split or for another k
        # moves the recalls, the best epoch or the stop.  Each run has its
        # own training graph, so the oracle stays in the first one's memo
        graph = block_bipartite(30, 40, 3, mean_degree=10, seed=2)
        splits = split_dataset(graph, (0.6, 0.2, 0.2), seed=0)
        oracle_graph, train_graph = (graph_from_split(splits),
                                     graph_from_split(splits))
        cfg = TrainConfig(model, alpha=0.05, dim=8, max_epochs=60, patience=4,
                          eval_k=3)
        asked = []

        class Oracle:
            def __init__(self, *args):
                asked.append(args)

            def recall(self, Y):
                return evaluate_scalar(Y, splits, oracle_graph, k=cfg.eval_k,
                                       split="val")[2]

        with mock.patch("linkprop.ranking.Ranker", Oracle):
            expected = train(oracle_graph, sample_negatives(oracle_graph,
                                                            seed=0),
                             cfg, splits=splits).history
        assert len(asked) == 1
        got = train(train_graph, sample_negatives(train_graph, seed=0), cfg,
                    splits=splits).history
        assert expected.reason == "early_stop"
        assert [r.val_recall for r in got.records] == \
            [r.val_recall for r in expected.records]
        assert (got.best_epoch, got.stopped_epoch) == \
            (expected.best_epoch, expected.stopped_epoch)


class TestGridSearch:
    def test_requires_validation_edges(self, split_instance):
        graph, neg, splits = split_instance
        empty = SplitSet(partition=splits.partition, train=splits.train,
                         val=np.empty((0, 2), dtype=int), test=splits.test,
                         ratios=(1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ValueError, match="validation"):
            grid_search(graph, neg, empty, TrainConfig("mf", alpha=0.1))

    @pytest.mark.parametrize("model,grids,message", [
        ("mf", {"alphas": ()}, "alphas must list at least one value"),
        ("mf", {"alphas": (0.01, 0.1, 0.01)},
         "alphas lists 0.01 more than once"),
        ("lightgcn", {"layer_grid": ()},
         "layer_grid must list at least one value"),
        ("lightgcn", {"layer_grid": [1, 3, 1]},
         "layer_grid lists 1 more than once")])
    def test_rejects_an_empty_or_repeated_grid(self, split_instance,
                                               monkeypatch, model, grids,
                                               message):
        # an empty grid would train nothing and then report that all of
        # its 0 points diverged; a repeat would train one point twice
        graph, neg, splits = split_instance
        trained = []
        monkeypatch.setattr("linkprop.training.train",
                            lambda *args, **kwargs: trained.append(args))
        with pytest.raises(ValueError, match=message):
            grid_search(graph, neg, splits, TrainConfig(model, alpha=0.1),
                        **grids)
        assert trained == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_selects_and_quarantines(self, split_instance):
        graph, neg, splits = split_instance
        base = TrainConfig("mf", alpha=0.1, dim=4, max_epochs=12, patience=20,
                           eval_k=2, init_scale=1.0)
        result = grid_search(graph, neg, splits, base,
                             alphas=(1e-3, 1e100), layer_grid=(1,))
        assert len(result.points) == 2
        blown = [p for p in result.points if p.diverged]
        assert len(blown) == 1 and blown[0].alpha == 1e100
        assert blown[0].metric is None
        assert result.best.alpha == 1e-3
        assert result.best_metric >= 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_points_diverged(self, split_instance):
        graph, neg, splits = split_instance
        base = TrainConfig("mf", alpha=0.1, dim=4, max_epochs=12, patience=20,
                           init_scale=1.0)
        with pytest.raises(AllPointsDiverged):
            grid_search(graph, neg, splits, base, alphas=(1e100, 1e120),
                        layer_grid=(1,))

    def test_ties_prefer_smaller_alpha_then_layers(self, split_instance,
                                                   monkeypatch):
        graph, neg, splits = split_instance
        base = TrainConfig("lightgcn", alpha=0.1, dim=4, max_epochs=2)
        seen = []

        def fake_train(graph, negatives, cfg, splits=None):
            seen.append((cfg.alpha, cfg.layers))
            history = TrainHistory(best_epoch=1, best_metric=0.5)
            history.stopped_epoch = 1
            return TrainResult(embeddings=np.zeros((graph.num_nodes, cfg.dim)),
                               history=history, config=cfg)

        monkeypatch.setattr("linkprop.training.train", fake_train)
        result = grid_search(graph, neg, splits, base,
                             alphas=(1e-2, 1e-3), layer_grid=(3, 1))
        # scanned ascending on both axes, so the first point is the winner
        assert seen[0] == (1e-3, 1)
        assert result.best.alpha == 1e-3
        assert result.best.layers == 1
        assert len(result.points) == 4

    def test_layer_grid_ignored_for_flat_models(self, split_instance,
                                                monkeypatch):
        graph, neg, splits = split_instance

        def fake_train(graph, negatives, cfg, splits=None):
            history = TrainHistory(best_epoch=1, best_metric=0.1)
            return TrainResult(embeddings=np.zeros((graph.num_nodes, cfg.dim)),
                               history=history, config=cfg)

        monkeypatch.setattr("linkprop.training.train", fake_train)
        base = TrainConfig("mf", alpha=0.1, dim=4, layers=3)
        result = grid_search(graph, neg, splits, base, alphas=(1e-3, 1e-2),
                             layer_grid=(1, 3, 5))
        assert len(result.points) == 2
        assert all(p.layers == 3 for p in result.points)


    def test_unvalidated_points_rank_final_embeddings_through_one_plan(
            self, split_instance):
        # eval_every above max_epochs: every point falls back to ranking
        # its final embeddings, all through one validation plan
        graph, neg, splits = split_instance
        base = TrainConfig("mf", alpha=0.1, dim=4, max_epochs=4,
                           eval_every=5, eval_k=2)
        built = []
        with mock.patch("linkprop.ranking.Ranker", counted_rankers(built)):
            result = grid_search(graph, neg, splits, base,
                                 alphas=(1e-2, 1e-1), layer_grid=(1,))
        # one plan for every run and the grid's fallback
        assert len(result.points) == 2
        assert built == [(2, "val")]
        for point in result.points:
            final = train(graph, neg, replace(base, alpha=point.alpha))
            assert point.metric == evaluate_scalar(
                final.embeddings, splits, graph, k=2, split="val")[2]


class TestRepeatTrain:
    def test_one_test_plan_for_every_seed(self, split_instance):
        graph, _, splits = split_instance
        cfg = TrainConfig("mf", alpha=0.05, dim=4, max_epochs=5, patience=5,
                          eval_k=2)
        built = []
        with mock.patch("linkprop.ranking.Ranker", counted_rankers(built)):
            outcomes = repeat_train(graph, splits, cfg, seeds=(0, 1, 2))
        # one validation plan for every run, one test plan for the experiment
        assert sorted(built) == [(2, "test"), (2, "val")]
        for outcome in outcomes:
            assert dataclasses.astuple(outcome.metrics) == evaluate_scalar(
                outcome.result.embeddings, splits, graph, k=2, split="test")

    def test_fresh_seed_per_repeat(self, split_instance):
        graph, _, splits = split_instance
        cfg = TrainConfig("mf", alpha=0.05, dim=4, max_epochs=5, patience=5,
                          eval_k=2)
        outcomes = repeat_train(graph, splits, cfg, seeds=(0, 1))
        assert [o.seed for o in outcomes] == [0, 1]
        assert all(o.result.config.seed == o.seed for o in outcomes)
        assert all(o.metrics.k == cfg.eval_k for o in outcomes)
        assert not np.array_equal(outcomes[0].result.embeddings,
                                  outcomes[1].result.embeddings)


class TestScoringEmbeddings:
    def test_identity_for_flat_models(self, bipartite_instance):
        graph, neg = bipartite_instance
        masks = build_masks(graph, neg, TrainConfig("mf", alpha=0.1).params)
        X = np.arange(graph.num_nodes * 2, dtype=float).reshape(-1, 2)
        assert np.array_equal(scoring_embeddings(X, masks), X)

    def test_propagates_for_lightgcn(self, bipartite_instance):
        graph, neg = bipartite_instance
        cfg = TrainConfig("lightgcn", alpha=0.1, layers=2)
        masks = build_masks(graph, neg, cfg.params)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(graph.num_nodes, 3))
        expected = masks.prop.apply(X)
        assert np.array_equal(scoring_embeddings(X, masks), expected)


class TestSharedOperators:
    """Every consumer on one graph shares its memoized masks and
    adjacencies, and gets the bits a fresh graph gives."""

    @pytest.fixture
    def instance(self):
        graph = block_bipartite(12, 10, 2, mean_degree=6, seed=0)
        splits = split_dataset(graph, seed=0)
        train_graph = graph_from_split(splits)
        return train_graph, sample_negatives(train_graph, seed=0), splits

    @staticmethod
    def spy():
        # counts every materialize call, and still runs it
        return mock.patch.object(ProximityOperator, "materialize",
                                 autospec=True,
                                 side_effect=ProximityOperator.materialize)

    @pytest.mark.parametrize("path", ["gradient", "kernel", "both"])
    @pytest.mark.parametrize("model,extra", [
        ("deepwalk", {"window": 3}), ("line", {}), ("lightgcn", {"layers": 2})])
    def test_second_run_on_one_graph_equals_a_run_on_a_copy(
            self, instance, model, extra, path):
        graph, negatives, splits = instance
        cfg = TrainConfig(model, alpha=0.05, dim=6, max_epochs=8, path=path,
                          eval_k=2, **extra)
        runs = [train(graph, negatives, cfg, splits=splits) for _ in range(2)]
        copies = [train(build_graph(graph.edges, partition=graph.partition),
                        negatives, cfg, splits=splits) for _ in range(2)]
        for mine, theirs in zip(runs, copies):
            assert mine.embeddings.tobytes() == theirs.embeddings.tobytes()
            assert mine.history == theirs.history

    def test_one_walk_mask_per_graph_and_window(self, instance):
        graph, negatives, splits = instance
        with self.spy() as materialize:
            for window in (2, 3):
                cfg = TrainConfig("deepwalk", window=window, alpha=0.05, dim=4,
                                  max_epochs=3, eval_k=2)
                KernelOperator.build(cfg.params, cfg.alpha, graph, negatives)
                build_masks(graph, negatives, cfg.params)
                train(graph, negatives, cfg)
                train(graph, negatives, cfg, splits=splits)
                repeat_train(graph, splits, cfg, seeds=(0, 1, 2))
        assert [call.args[0].high for call in materialize.call_args_list] == [2, 3]

    @pytest.mark.parametrize("grid", [False, True])
    def test_report_builds_each_positive_mask_once(self, tmp_path, grid):
        # deepwalk's window-5 walk mask and line's mask, whatever the seeds
        # and grid points
        config = RunConfig(dataset_path=f"{DATA_DIR}/toy_50.tsv",
                           models=("deepwalk", "line"), seeds=(0, 1),
                           max_epochs=3, grid=grid, outdir=str(tmp_path))
        with self.spy() as materialize:
            run_experiment(config)
        assert sorted(call.args[0].high
                      for call in materialize.call_args_list) == [1, 5]

    def test_report_samples_each_seed_once(self, tmp_path):
        # bench.ini: two models over five seeds share five negative sets
        config = replace(RunConfig.from_ini(f"{CONFIGS}/bench.ini"),
                         dataset_path=f"{DATA_DIR}/bench_500.tsv",
                         outdir=str(tmp_path))
        with mock.patch("linkprop.negatives._sample", wraps=_sample) as draw:
            run_experiment(config)
        assert sorted(call.args[4] for call in draw.call_args_list) == [
            0, 1, 2, 3, 4]


class TestOneRankerPerSplit:
    """Every ranking on one training graph of one split set at one cutoff
    goes through one `Ranker` per split."""

    def test_runs_evaluations_grid_and_repeats_share_two(self,
                                                         split_instance):
        graph, neg, splits = split_instance
        cfg = TrainConfig("mf", alpha=0.05, dim=4, max_epochs=4, patience=5,
                          eval_k=2)
        built = []
        with mock.patch("linkprop.ranking.Ranker", counted_rankers(built)):
            for seed in (0, 1):
                X = train(graph, neg, replace(cfg, seed=seed),
                          splits=splits).embeddings
                for split in ("test", "val"):
                    evaluate(X, splits, graph, 2, split)
            grid_search(graph, neg, splits, cfg, alphas=(0.01, 0.05))
            grid_search(graph, neg, splits, replace(cfg, eval_every=5),
                        alphas=(0.05,))
            repeat_train(graph, splits, cfg, seeds=(0, 1))
        assert sorted(built) == [(2, "test"), (2, "val")]

    @pytest.mark.parametrize("grid", [False, True])
    def test_report_builds_one_per_split(self, tmp_path, grid):
        # two models over two seeds, and the grid's points, on one graph
        config = RunConfig(dataset_path=f"{DATA_DIR}/toy_50.tsv",
                           models=("mf", "lightgcn"), seeds=(0, 1),
                           max_epochs=3, grid=grid, k=5,
                           outdir=str(tmp_path))
        built = []
        with mock.patch("linkprop.ranking.Ranker", counted_rankers(built)):
            run_experiment(config)
        assert sorted(built) == [(5, "test"), (5, "val")]
