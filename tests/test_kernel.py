import warnings

import numpy as np
import pytest

import linkprop
import reference
from linkprop.graphs import build_graph
from linkprop.kernel import (KernelOperator, kernel_step, kernel_update,
                             link_kernels, materialize_kernel,
                             mean_positive_kernel, positive_kernel_mean,
                             score_matrices, sign_structure)
from linkprop.losses import (DivergenceError, ModelParams, build_masks,
                             loss_gradient, scoring_propagation, sigmoid)

from conftest import negatives_from_pairs, random_graph_instance

MODEL_GRID = [
    ("mf", {}),
    ("line", {}),
    ("deepwalk", {"window": 2}),
    ("deepwalk", {"window": 5}),
    ("lightgcn", {"layers": 1}),
    ("lightgcn", {"layers": 3}),
]


def operator_for(model, graph, negatives, alpha=0.05, **kwargs):
    return KernelOperator.build(ModelParams(model, **kwargs), alpha, graph,
                                negatives)


class TestModelConfig:
    """A model is its row of model_table (through ModelParams.constants),
    its lam and beta, and the step size KernelOperator.build takes."""

    def test_mf_constants(self):
        k = ModelParams("mf").constants
        assert (k.c3, k.a1, k.b1, k.a2, k.b2) == (0.0, 0, 0, 0, 0)
        assert (k.pos_norm, k.neg_norm) == ("none", "none")

    def test_line_constants(self):
        k = ModelParams("line").constants
        assert (k.c3, k.a2, k.b2) == (1.0, 1, 1)
        assert (k.pos_norm, k.neg_norm) == ("row", "none")
        assert (k.a1, k.b1) == (0, 0)

    def test_deepwalk_window_sets_orders(self):
        k = ModelParams("deepwalk", window=4).constants
        assert (k.c3, k.a2, k.b2) == (1.0, 1, 4)
        assert (k.pos_norm, k.neg_norm) == ("row", "row")

    def test_lightgcn_layers_set_outer_orders(self):
        k = ModelParams("lightgcn", layers=2).constants
        assert (k.c3, k.a1, k.b1) == (0.0, 0, 2)
        assert (k.pos_norm, k.neg_norm) == ("symmetric", "none")
        assert (k.a2, k.b2) == (0, 0)

    def test_negative_alpha_rejected(self, small_instance):
        with pytest.raises(ValueError, match="alpha must be finite and "
                                             "nonnegative, got -0.1"):
            operator_for("mf", *small_instance, alpha=-0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_alpha_rejected(self, small_instance, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and "
                                             f"nonnegative, got {alpha}"):
            operator_for("deepwalk", *small_instance, alpha=alpha)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model must be one of"):
            ModelParams("gat")


class TestOneBuild:
    @pytest.mark.parametrize("model,kwargs", MODEL_GRID, ids=lambda v: str(v))
    def test_build_masks_is_the_operators_build(self, small_instance, model,
                                                kwargs):
        # the loss API's build_masks and train()'s KernelOperator.build
        # both take the masks from mask_set; they must give the same bits
        graph, neg = small_instance
        params = ModelParams(model, lam=1.3, beta=0.02, **kwargs)
        masks = build_masks(graph, neg, params)
        op = operator_for(model, graph, neg, beta=0.02, lam=1.3, **kwargs)
        same = lambda a, b: (a.dtype == b.dtype and a.shape == b.shape
                             and a.tobytes() == b.tobytes())
        mine, theirs = masks.pattern, op.pattern
        for name in ("rows", "cols", "indptr", "owned_rows", "owned_cols",
                     "owner"):
            assert same(getattr(mine, name), getattr(theirs, name))
        for a, b in ((mine.pos, theirs.pos), (mine.neg, theirs.neg)):
            for name in ("weights", "slots"):
                assert same(getattr(a, name), getattr(b, name))
            for part in ("data", "indices", "indptr"):
                assert same(getattr(a.matrix, part), getattr(b.matrix, part))
        X = np.random.default_rng(0).normal(size=(graph.num_nodes, 3))
        assert same(masks.prop.apply(X), op.prop.apply(X))
        assert same(scoring_propagation(graph, params).apply(X),
                    op.prop.apply(X))


class TestScores:
    def test_zero_embedding_scores_half(self, small_instance):
        graph, neg = small_instance
        op = operator_for("mf", graph, neg)
        scores = score_matrices(np.zeros((graph.num_nodes, 3)), op)
        assert np.all(scores.s_a == 0.5)
        assert np.all(scores.s_b == 0.5)

    def test_complement_is_exact(self, small_instance):
        graph, neg = small_instance
        op = operator_for("deepwalk", graph, neg, window=3)
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(graph.num_nodes, 4))
        scores = score_matrices(Y, op)
        assert scores.complement_deviation() <= 1e-15

    def test_matches_dense_scores(self, small_instance):
        graph, neg = small_instance
        op = operator_for("mf", graph, neg)
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(graph.num_nodes, 4))
        scores = score_matrices(Y, op)
        S_B = sigmoid(Y @ Y.T)
        S_A = 1.0 - S_B
        assert np.allclose(scores.s_a, S_A[scores.rows, scores.cols],
                           rtol=0, atol=1e-15)
        assert np.allclose(scores.s_b, S_B[scores.rows, scores.cols],
                           rtol=0, atol=1e-15)


class TestLinkKernels:
    def test_mf_kernels_are_masked_scores(self, small_instance):
        graph, neg = small_instance
        op = operator_for("mf", graph, neg)
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(graph.num_nodes, 4))
        kernels = link_kernels(score_matrices(Y, op), op)
        S_B = sigmoid(Y @ Y.T)
        S_A = 1.0 - S_B
        A = graph.adjacency.toarray()
        B = neg.adjacency.toarray()
        assert np.allclose(kernels.k_plus.toarray(), S_A * A, atol=1e-15)
        assert np.allclose(kernels.k_minus.toarray(), S_B * B, atol=1e-15)

    @pytest.mark.parametrize("model,kwargs", MODEL_GRID, ids=lambda v: str(v))
    def test_kernels_bounded_by_masks(self, small_instance, model, kwargs):
        graph, neg = small_instance
        op = operator_for(model, graph, neg, **kwargs)
        rng = np.random.default_rng(3)
        Y = op.prop.apply(rng.normal(size=(graph.num_nodes, 4)))
        kernels = link_kernels(score_matrices(Y, op), op)
        KP = kernels.k_plus.toarray()
        KN = kernels.k_minus.toarray()
        assert np.all(KP >= 0) and np.all(KP <= op.pattern.pos.matrix.toarray() + 1e-15)
        assert np.all(KN >= 0) and np.all(KN <= op.pattern.neg.matrix.toarray() + 1e-15)

    @pytest.mark.parametrize("model,kwargs", MODEL_GRID, ids=lambda v: str(v))
    def test_positive_kernel_is_k_plus_bit_for_bit(self, small_instance, model,
                                                   kwargs):
        # K+ = S_A . mask_plus entry by entry: the positive mask times a
        # dense S_A spread from the score pair's owned slots
        graph, neg = small_instance
        op = operator_for(model, graph, neg, **kwargs)
        rng = np.random.default_rng(4)
        scores = score_matrices(op.prop.apply(
            rng.normal(size=(graph.num_nodes, 4))), op)
        S_A = np.zeros((graph.num_nodes, graph.num_nodes))
        S_A[scores.rows, scores.cols] = S_A[scores.cols, scores.rows] = \
            scores.s_a
        k_plus = link_kernels(scores, op).k_plus
        assert k_plus.nnz == op.pattern.pos.matrix.nnz
        assert np.array_equal(k_plus.toarray(),
                              op.pattern.pos.matrix.toarray() * S_A)

    @pytest.mark.parametrize("model,kwargs", MODEL_GRID, ids=lambda v: str(v))
    def test_positive_kernel_mean_is_k_plus_mean_bit_for_bit(
            self, small_instance, model, kwargs):
        # the untraced gradient path's diagnostic takes K+'s mean without
        # building K+; saturated scores (explicit zeros) included
        graph, neg = small_instance
        op = operator_for(model, graph, neg, **kwargs)
        rng = np.random.default_rng(5)
        for scale in (1.0, 30.0):
            scores = score_matrices(op.prop.apply(
                scale * rng.normal(size=(graph.num_nodes, 4))), op)
            mean = positive_kernel_mean(scores, op)
            assert type(mean) is float
            assert repr(mean) == repr(mean_positive_kernel(
                link_kernels(scores, op).k_plus))


class TestKernelStep:
    def test_zero_embedding_is_fixed(self, small_instance):
        graph, neg = small_instance
        op = operator_for("line", graph, neg)
        X = np.zeros((graph.num_nodes, 4))
        assert np.array_equal(kernel_step(X, op)[0], X)

    def test_zero_alpha_returns_x_bit_for_bit(self, small_instance):
        # c1 = 1 - 0 * beta = 1 and c2 = 0: the step adds 0 to X
        graph, neg = small_instance
        rng = np.random.default_rng(4)
        X = rng.normal(size=(graph.num_nodes, 3))
        op = operator_for("deepwalk", graph, neg, alpha=0.0, beta=0.3)
        assert kernel_step(X, op)[0].tobytes() == X.tobytes()

    def test_non_finite_input_raises(self, small_instance):
        graph, neg = small_instance
        op = operator_for("mf", graph, neg)
        X = np.zeros((graph.num_nodes, 2))
        X[0, 0] = np.inf
        with pytest.raises(DivergenceError, match="step 3"):
            kernel_step(X, op, step=3)

    @pytest.mark.parametrize("model,kwargs", MODEL_GRID, ids=lambda v: str(v))
    def test_matches_dense_oracle(self, small_instance, model, kwargs):
        graph, neg = small_instance
        alpha, beta = 0.05, 0.02
        op = operator_for(model, graph, neg, alpha=alpha, beta=beta, **kwargs)
        rng = np.random.default_rng(5)
        X = rng.normal(scale=0.4, size=(graph.num_nodes, 4))
        # the oracle's masks and P are spelled per model, and its c1 and c2
        # from the step size, not read from the library
        W_pos, W_neg, P = reference.dense_weights(
            graph, neg, ModelParams(model, **kwargs))
        P1 = np.eye(graph.num_nodes) if P is None else P
        expected = reference.dense_kernel_step(
            X, 1 - alpha * beta, alpha, P1, W_pos, W_neg, 1.0)
        assert np.allclose(kernel_step(X, op)[0], expected, rtol=0,
                           atol=1e-12)

    def test_saturated_blocks_are_exactly_fixed(self):
        # two fully reconstructed cliques, negatives across them: every
        # residual sigmoid saturates to exactly 0 in float64, so both the
        # kernel update and the gradient step return the input bitwise
        clique = lambda nodes: [(u, v) for u in nodes for v in nodes if u < v]
        edges = clique(range(4)) + clique(range(4, 8))
        graph = build_graph(edges, num_nodes=8)
        neg = negatives_from_pairs([(0, 4), (1, 5), (2, 6), (3, 7)], 8)
        X = np.array([[30.0]] * 4 + [[-30.0]] * 4)
        op = operator_for("mf", graph, neg, alpha=0.1, beta=0.0)
        assert np.array_equal(kernel_step(X, op)[0], X)
        params = ModelParams("mf")
        grad = loss_gradient(X, build_masks(graph, neg, params), params)
        assert np.array_equal(grad, np.zeros_like(X))

    @pytest.mark.parametrize("model,kwargs", [("mf", {}), ("line", {}),
                                              ("lightgcn", {"layers": 2})])
    def test_empty_positive_support_steps_without_a_warning(self, model,
                                                            kwargs):
        # an edgeless graph has no K+ entries and so no mean K+: a direct
        # step still runs, on K- alone, with the plain expression's bits
        graph = build_graph([], num_nodes=4)
        neg = negatives_from_pairs([(0, 1)], 4)
        op = operator_for(model, graph, neg, **kwargs)
        X = np.random.default_rng(8).normal(size=(4, 3))
        Y = op.prop.apply(X)
        kernels = link_kernels(score_matrices(Y, op), op)
        assert kernels.k_plus.nnz == 0 and kernels.k_minus.nnz == 2
        # lam = 1 and beta = 0, so c1 = 1 and c2 = alpha = 0.05
        W = op.prop.apply(kernels.k_plus @ Y - 1.0 * (kernels.k_minus @ Y))
        plain = 1.0 * X + 0.05 * W
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepped, stepped_trace = kernel_step(X, op)
            out, trace = kernel_update(X, Y, score_matrices(Y, op), op)
        assert stepped.tobytes() == out.tobytes() == plain.tobytes()
        assert stepped_trace == trace
        assert trace.mean_k_plus is None


class TestTrace:
    def test_trace_shapes_and_output(self, small_instance):
        graph, neg = small_instance
        op = operator_for("lightgcn", graph, neg, layers=2)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(graph.num_nodes, 3))
        out, trace = kernel_step(X, op)
        # the step on its own forward pass: kernel_update's X' and trace
        Y = op.prop.apply(X)
        plain, plain_trace = kernel_update(X, Y, score_matrices(Y, op), op)
        assert out.tobytes() == plain.tobytes()
        assert trace == plain_trace
        assert trace.input_norm == pytest.approx(float(np.linalg.norm(X)))
        assert len(trace.norms) == 4
        assert trace.norms[3] == pytest.approx(float(np.linalg.norm(out)))

    @pytest.mark.parametrize("model, kwargs", MODEL_GRID)
    def test_step_keeps_the_plain_expressions_bits(self, small_instance,
                                                   model, kwargs):
        # one buffer for Z, P Z and X': the result and every substep norm
        # are those of c1 X + c2 P (K+ Y - lam K- Y), and X and Y are
        # only read
        graph, neg = small_instance
        op = operator_for(model, graph, neg, beta=0.01, **kwargs)
        X = np.random.default_rng(9).normal(size=(graph.num_nodes, 4))
        Y = op.prop.apply(X)
        kernels = link_kernels(score_matrices(Y, op), op)
        # lam = 1, alpha = 0.05 and beta = 0.01
        Z = kernels.k_plus @ Y - 1.0 * (kernels.k_minus @ Y)
        W = op.prop.apply(Z)
        plain = (1.0 - 0.05 * 0.01) * X + 0.05 * W
        X.flags.writeable = Y.flags.writeable = False
        out, trace = kernel_update(X, Y, score_matrices(Y, op), op)
        assert out.tobytes() == plain.tobytes()
        assert trace.input_norm == float(np.linalg.norm(X))
        assert trace.norms == tuple(float(np.linalg.norm(M))
                                    for M in (Y, Z, W, plain))
        # the diagnostic's mean K+, read from the step's own K+
        assert trace.mean_k_plus == mean_positive_kernel(kernels.k_plus)

    def test_outer_propagation_never_expands(self, small_instance):
        # substeps (1) and (3) apply an averaged stochastic-like operator
        graph, neg = small_instance
        op = operator_for("lightgcn", graph, neg, layers=3)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(graph.num_nodes, 3))
        _, trace = kernel_step(X, op)
        assert trace.norms[0] <= trace.input_norm * (1 + 1e-12)
        assert trace.norms[2] <= trace.norms[1] * (1 + 1e-12)


class TestMaterialize:
    def test_step_equals_matrix_action(self, small_instance):
        graph, neg = small_instance
        for model, kwargs in MODEL_GRID:
            op = operator_for(model, graph, neg, alpha=0.03,
                                      beta=0.01, **kwargs)
            rng = np.random.default_rng(8)
            X = rng.normal(size=(graph.num_nodes, 4))
            scores = score_matrices(op.prop.apply(X), op)
            H = materialize_kernel(scores, op)
            assert np.allclose(H @ X, kernel_step(X, op)[0], rtol=0,
                               atol=1e-10)

    def test_limit_guard(self, small_instance):
        graph, neg = small_instance
        op = operator_for("mf", graph, neg)
        scores = score_matrices(np.zeros((graph.num_nodes, 2)), op)
        with pytest.raises(ValueError, match="dense limit"):
            materialize_kernel(scores, op, limit=graph.num_nodes - 1)

    def test_mf_zero_embedding_closed_form(self, small_instance):
        # all sigmoids sit at 1/2, so H = (1 - alpha*beta) I + alpha/2 (A - lam B)
        graph, neg = small_instance
        alpha, beta, lam = 0.2, 0.05, 1.5
        op = operator_for("mf", graph, neg, alpha=alpha, beta=beta,
                                  lam=lam)
        X = np.zeros((graph.num_nodes, 2))
        scores = score_matrices(X, op)
        H = materialize_kernel(scores, op)
        n = graph.num_nodes
        A = reference.dense_adjacency(graph.edges, n)
        B = reference.dense_adjacency(neg.pairs, n)
        expected = (1 - alpha * beta) * np.eye(n) + 0.5 * alpha * (A - lam * B)
        assert np.allclose(H, expected, rtol=0, atol=1e-15)

    def test_isolated_node_row_is_scaled_identity(self):
        # a node with no links on either side only sees the c1 I term
        graph = build_graph([(0, 1), (1, 2)], num_nodes=4)
        neg = negatives_from_pairs([(0, 2)], 4)
        op = operator_for("mf", graph, neg, alpha=0.1, beta=0.2)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(4, 3))
        scores = score_matrices(op.prop.apply(X), op)
        H = materialize_kernel(scores, op)
        expected_row = np.zeros(4)
        expected_row[3] = 1 - 0.1 * 0.2
        assert np.array_equal(H[3], expected_row)
        assert np.array_equal(H[:, 3], expected_row)


class TestSignStructure:
    def test_mf_kernel_has_correct_signs(self):
        for seed in range(10):
            graph, neg = random_graph_instance(seed=seed + 40)
            op = operator_for("mf", graph, neg, alpha=0.05, beta=0.01)
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(graph.num_nodes, 4))
            scores = score_matrices(op.prop.apply(X), op)
            H = materialize_kernel(scores, op)
            report = sign_structure(H, graph, neg)
            assert report.passed
            assert report.checked_positive == 2 * graph.num_edges
            assert report.checked_negative == 2 * neg.num_pairs

    def test_doctored_matrix_fails(self, small_instance):
        graph, neg = small_instance
        op = operator_for("mf", graph, neg)
        scores = score_matrices(np.zeros((graph.num_nodes, 2)), op)
        H = materialize_kernel(scores, op)
        u, v = graph.edges[0]
        H[u, v] = -0.25
        report = sign_structure(H, graph, neg)
        assert not report.passed
        assert (int(u), int(v), -0.25) in report.violations


def test_every_exported_name_resolves():
    missing = [name for name in linkprop.__all__ if not hasattr(linkprop, name)]
    assert missing == []
