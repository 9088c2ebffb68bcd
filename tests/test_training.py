from dataclasses import replace

import numpy as np
import pytest

from linkprop.graphs import (MAX_PROXIMITY_ORDER, Partition, ProximityOperator,
                             build_graph)
from linkprop.losses import DivergenceError, build_masks, gd_step, loss_gradient
from linkprop.negatives import sample_negatives
from linkprop.ranking import SplitSet
from linkprop.training import (ALPHA_GRID, AllPointsDiverged, GridPoint,
                               TrainConfig, TrainHistory, TrainResult,
                               grid_search, init_embeddings, repeat_train,
                               scoring_embeddings, train)

from conftest import negatives_from_pairs

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
        ("beta", -1.0)])
    def test_rejection_names_the_field(self, field, value):
        kwargs = {"model": "lightgcn", "alpha": 0.05, field: value}
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"layers": 0}, {"layers": MAX_PROXIMITY_ORDER}, {"window": 1},
        {"window": MAX_PROXIMITY_ORDER}, {"eval_k": 1}])
    def test_range_ends_accepted(self, kwargs):
        assert TrainConfig(model="lightgcn", alpha=0.05, **kwargs)

    def test_params_passthrough(self):
        cfg = TrainConfig("deepwalk", alpha=0.1, window=7, lam=0.5, beta=0.2)
        assert cfg.params.model == "deepwalk"
        assert cfg.params.window == 7
        assert cfg.params.lam == 0.5
        assert cfg.params.beta == 0.2


class TestInitEmbeddings:
    def test_deterministic_per_seed(self):
        a = init_embeddings(20, 8, seed=3)
        assert np.array_equal(a, init_embeddings(20, 8, seed=3))
        assert not np.array_equal(a, init_embeddings(20, 8, seed=4))

    def test_moments(self):
        X = init_embeddings(2000, 50, scale=0.02, seed=0)
        assert abs(float(X.mean())) < 0.001
        assert float(X.std()) == pytest.approx(0.02, rel=0.05)

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            init_embeddings(5, 2, scale=0.0)


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
                            lambda op, X: calls.append(1) or apply(op, X))
        cfg = TrainConfig(model, alpha=0.05, dim=4, max_epochs=6, **extra)
        train(graph, neg, cfg, splits=splits)
        assert len(calls) == 2 * 6 + 1

    def test_edgeless_graph_rejected_at_entry(self):
        graph = build_graph([], num_nodes=4)
        neg = negatives_from_pairs([(0, 1)], 4)
        with pytest.raises(ValueError, match="no edges"):
            train(graph, neg, TrainConfig("mf", alpha=0.05, dim=2))


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
        X1 = gd_step(X0, loss_gradient(X0, graph, neg, cfg.params, masks),
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


class TestGridSearch:
    def test_requires_validation_edges(self, split_instance):
        graph, neg, splits = split_instance
        empty = SplitSet(partition=splits.partition, train=splits.train,
                         val=np.empty((0, 2), dtype=int), test=splits.test,
                         ratios=(1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ValueError, match="validation"):
            grid_search(graph, neg, empty, TrainConfig("mf", alpha=0.1))

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


class TestRepeatTrain:
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
