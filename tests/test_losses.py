import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linkprop import reference
from linkprop.graphs import build_graph
from linkprop.losses import (DivergenceError, ModelParams, build_masks,
                             bce_loss, gd_step, loss_gradient, model_loss,
                             sigmoid)

from conftest import graph_with_negatives, negatives_from_pairs, random_graph_instance

ALL_MODELS = [ModelParams("mf"), ModelParams("line"),
              ModelParams("deepwalk", window=3), ModelParams("lightgcn", layers=2)]


def dense_weights(graph, negatives, params):
    """Reassemble one model's weight matrices and propagation from scratch."""
    n = graph.num_nodes
    A = reference.dense_adjacency(graph.edges, n)
    B = reference.dense_adjacency(negatives.pairs, n)
    P = None
    if params.model == "mf":
        W_pos, W_neg = A, B
    elif params.model == "line":
        R = reference.dense_normalize(A, "row")
        W_pos, W_neg = 0.5 * (R + R.T), B
    elif params.model == "deepwalk":
        R = reference.dense_proximity(
            reference.dense_normalize(A, "row"), 1, params.window)
        RB = reference.dense_normalize(B, "row")
        W_pos, W_neg = 0.5 * (R + R.T), 0.5 * (RB + RB.T)
    else:
        W_pos, W_neg = A, B
        P = reference.dense_proximity(
            reference.dense_normalize(A, "symmetric"), 0, params.layers)
    return W_pos, W_neg, P


class TestModelLoss:
    def test_zero_embedding_closed_form(self, small_instance):
        # every touched pair scores 0, so each unit of weight costs log 2
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes, 4))
        params = ModelParams("mf", lam=1.0)
        expected = (graph.num_edges + neg.num_pairs) * math.log(2.0)
        assert model_loss(X, graph, neg, params) == pytest.approx(expected, rel=1e-14)

    def test_lambda_scales_negative_half(self, small_instance):
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes, 4))
        loss = model_loss(X, graph, neg, ModelParams("mf", lam=3.0))
        expected = (graph.num_edges + 3.0 * neg.num_pairs) * math.log(2.0)
        assert loss == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("params", ALL_MODELS, ids=lambda p: p.model)
    def test_matches_brute_force(self, small_instance, params):
        graph, neg = small_instance
        rng = np.random.default_rng(0)
        X = rng.normal(scale=0.5, size=(graph.num_nodes, 4))
        params = ModelParams(params.model, window=params.window,
                             layers=params.layers, lam=1.5, beta=0.2)
        W_pos, W_neg, P = dense_weights(graph, neg, params)
        expected = reference.brute_force_loss(X, W_pos, W_neg, lam=params.lam,
                                              beta=params.beta, P=P)
        assert model_loss(X, graph, neg, params) == pytest.approx(expected, rel=1e-12)

    def test_penalty_on_raw_not_propagated(self, small_instance):
        # lightgcn's quadratic term must see X, not the propagated rows
        graph, neg = small_instance
        rng = np.random.default_rng(1)
        X = rng.normal(size=(graph.num_nodes, 3))
        with_pen = model_loss(X, graph, neg, ModelParams("lightgcn", layers=2, beta=2.0))
        without = model_loss(X, graph, neg, ModelParams("lightgcn", layers=2, beta=0.0))
        assert with_pen - without == pytest.approx(float(np.sum(X * X)), rel=1e-12)

    def test_lightgcn_zero_layers_is_mf_bitwise(self, small_instance):
        graph, neg = small_instance
        rng = np.random.default_rng(2)
        X = rng.normal(size=(graph.num_nodes, 4))
        mf = ModelParams("mf", beta=0.1)
        lgc = ModelParams("lightgcn", layers=0, beta=0.1)
        assert model_loss(X, graph, neg, lgc) == model_loss(X, graph, neg, mf)
        assert np.array_equal(loss_gradient(X, graph, neg, lgc),
                              loss_gradient(X, graph, neg, mf))

    def test_deepwalk_window_one_mask_equals_line(self, small_instance):
        graph, neg = small_instance
        dw = build_masks(graph, neg, ModelParams("deepwalk", window=1))
        ln = build_masks(graph, neg, ModelParams("line"))
        assert np.array_equal(dw.pos.toarray(), ln.pos.toarray())

    def test_saturated_scores_stay_finite(self):
        graph = build_graph([(0, 1), (1, 2)], num_nodes=3)
        neg = negatives_from_pairs([(0, 2)], 3)
        X = np.array([[30.0], [30.0], [-30.0]])
        loss = model_loss(X, graph, neg, ModelParams("mf"))
        assert math.isfinite(loss)
        # the (0,2) negative is maximally violated, so it dominates
        assert loss > 800.0

    @given(graph_with_negatives(), st.integers(0, 2**16))
    def test_property_nonnegative_finite(self, instance, xseed):
        graph, neg = instance
        rng = np.random.default_rng(xseed)
        X = rng.normal(size=(graph.num_nodes, 3))
        for params in ALL_MODELS:
            loss = model_loss(X, graph, neg, params)
            assert math.isfinite(loss)
            assert loss >= 0.0


class TestBceLoss:
    def test_shape_mismatch(self, small_instance):
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes + 1, 2))
        with pytest.raises(ValueError, match="match X rows"):
            bce_loss(X, graph.adjacency, neg.adjacency)

    def test_beta_term_only(self, small_instance):
        graph, neg = small_instance
        masks = build_masks(graph, neg, ModelParams("mf"))
        X = np.full((graph.num_nodes, 2), 2.0)
        base = bce_loss(X, masks.pos, masks.neg, beta=0.0)
        assert bce_loss(X, masks.pos, masks.neg, beta=1.0) == pytest.approx(
            base + 0.5 * np.sum(X * X))


class TestLossGradient:
    @pytest.mark.parametrize("params", ALL_MODELS, ids=lambda p: p.model)
    def test_zero_embedding_zero_gradient(self, small_instance, params):
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes, 4))
        grad = loss_gradient(X, graph, neg, params)
        assert np.array_equal(grad, np.zeros_like(X))

    @pytest.mark.parametrize("model", ["line", "lightgcn"])
    def test_matches_finite_differences(self, small_instance, model):
        graph, neg = small_instance
        params = ModelParams(model, window=3, layers=2, lam=1.2, beta=0.05)
        masks = build_masks(graph, neg, params)
        rng = np.random.default_rng(3)
        X = rng.normal(scale=0.3, size=(graph.num_nodes, 3))
        exact = loss_gradient(X, graph, neg, params, masks=masks)
        approx = reference.finite_difference_gradient(
            lambda Z: model_loss(Z, graph, neg, params, masks=masks), X)
        assert reference.gradient_relative_error(exact, approx) < 1e-6

    def test_relabeling_invariance(self):
        # renaming nodes permutes loss terms but cannot change their sum
        graph, neg = random_graph_instance(seed=21, min_nodes=10, max_nodes=10)
        n = graph.num_nodes
        rng = np.random.default_rng(4)
        X = rng.normal(size=(n, 3))
        perm = rng.permutation(n)
        perm_graph = build_graph(perm[graph.edges], num_nodes=n)
        perm_neg = negatives_from_pairs(perm[neg.pairs], n)
        X_perm = np.empty_like(X)
        X_perm[perm] = X
        for params in ALL_MODELS:
            assert model_loss(X, graph, neg, params) == pytest.approx(
                model_loss(X_perm, perm_graph, perm_neg, params), rel=1e-12)

    def test_descent_reduces_loss(self, small_instance):
        graph, neg = small_instance
        params = ModelParams("mf", lam=1.0, beta=0.01)
        masks = build_masks(graph, neg, params)
        rng = np.random.default_rng(5)
        X = rng.normal(scale=0.1, size=(graph.num_nodes, 4))
        prev = model_loss(X, graph, neg, params, masks=masks)
        for step in range(20):
            X = gd_step(X, loss_gradient(X, graph, neg, params, masks=masks),
                        alpha=1e-3, step=step)
            cur = model_loss(X, graph, neg, params, masks=masks)
            assert cur < prev + 1e-12
            prev = cur


class TestGdStep:
    def test_zero_alpha_keeps_embedding(self):
        X = np.arange(6.0).reshape(3, 2)
        out = gd_step(X, np.ones_like(X), alpha=0.0)
        assert np.array_equal(out, X)

    def test_zero_gradient_keeps_embedding(self):
        X = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(gd_step(X, np.zeros_like(X), alpha=0.5), X)

    def test_negative_alpha_rejected(self):
        X = np.zeros((2, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            gd_step(X, X, alpha=-0.1)

    def test_divergence_carries_step(self):
        X = np.zeros((2, 2))
        bad = np.full_like(X, np.inf)
        with pytest.raises(DivergenceError, match="step 7"):
            gd_step(X, bad, alpha=0.1, step=7)
        assert pytest.raises(DivergenceError, gd_step, X, bad, 0.1).value.step is None


class TestModelParams:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelParams("svd")

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"layers": -1}, {"lam": -0.5}, {"beta": -1e-9},
        {"lam": float("nan")}, {"lam": float("inf")},
        {"beta": float("nan")}, {"beta": float("inf")}])
    def test_invalid_hyperparameters(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError,
                           match=field if field in ("lam", "beta") else None):
            ModelParams("mf", **kwargs)

    def test_lightgcn_zero_layers_allowed(self):
        assert ModelParams("lightgcn", layers=0).layers == 0


class TestSigmoid:
    def test_matches_scalar_reference(self):
        z = np.linspace(-40, 40, 81)
        expected = np.array([reference.sigmoid_scalar(v) for v in z])
        assert np.allclose(sigmoid(z), expected, rtol=0, atol=1e-15)

    def test_extreme_arguments_saturate(self):
        assert sigmoid(np.array([900.0]))[0] == 1.0
        assert sigmoid(np.array([-900.0]))[0] == 0.0

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30),
           st.sampled_from([1e-3, 1.0, 30.0, 800.0]))
    def test_bitwise_equal_to_masked_body(self, values, scale):
        # sigmoid's earlier two-branch body, with boolean scatter
        def masked(z):
            out = np.empty_like(z, dtype=float)
            nonneg = z >= 0
            out[nonneg] = 1.0 / (1.0 + np.exp(-z[nonneg]))
            ez = np.exp(z[~nonneg])
            out[~nonneg] = ez / (1.0 + ez)
            return out

        drawn = np.random.default_rng(len(values)).normal(scale=scale, size=64)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        z = np.concatenate([np.array(values, dtype=float), drawn, special])
        assert np.array_equal(sigmoid(z).view(np.int64), masked(z).view(np.int64))

    @given(st.floats(-700, 700))
    def test_property_complement(self, z):
        a = sigmoid(np.array([z]))[0]
        b = sigmoid(np.array([-z]))[0]
        assert a + b == pytest.approx(1.0, abs=1e-15)
