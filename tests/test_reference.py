"""Sanity checks for the dense oracle module itself.

The oracles vouch for the fast implementations, so they get their own
closed-form checks: everything here is verifiable with pencil and paper.
"""

import ast
import importlib.util
import math
import pathlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ranked_list_split
import reference
from linkprop.graphs import Partition, build_graph
from linkprop.ranking import SplitSet, evaluate

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "linkprop"


PATH_EDGES = [(0, 1), (1, 2), (2, 3)]


class TestDenseGraphPieces:
    def test_adjacency(self):
        A = reference.dense_adjacency(PATH_EDGES, 4)
        assert np.array_equal(A, A.T)
        assert A.sum() == 6.0
        assert A[0, 1] == 1.0 and A[0, 2] == 0.0

    def test_row_normalization(self):
        A = reference.dense_adjacency(PATH_EDGES, 4)
        R = reference.dense_normalize(A, "row")
        assert R[0, 1] == 1.0
        assert R[1, 0] == 0.5
        assert np.allclose(R.sum(axis=1), 1.0)

    def test_symmetric_normalization(self):
        A = reference.dense_adjacency(PATH_EDGES, 4)
        S = reference.dense_normalize(A, "symmetric")
        assert S[0, 1] == pytest.approx(1.0 / math.sqrt(2.0))
        assert S[1, 2] == pytest.approx(0.5)
        assert np.array_equal(S, S.T)

    def test_zero_degree_row_stays_zero(self):
        A = reference.dense_adjacency([(0, 1)], 3)
        for scheme in ("row", "symmetric"):
            N = reference.dense_normalize(A, scheme)
            assert np.all(N[2] == 0.0)

    def test_proximity_of_identity(self):
        assert np.array_equal(reference.dense_proximity(np.eye(3), 1, 4),
                              np.eye(3))

    def test_proximity_includes_power_zero(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = reference.dense_proximity(M, 0, 1)
        assert np.allclose(got, 0.5 * (np.eye(2) + M))


class TestScalarSigmoids:
    def test_midpoint(self):
        assert reference.sigmoid_scalar(0.0) == 0.5
        assert reference.log_sigmoid_scalar(0.0) == pytest.approx(-math.log(2.0))

    def test_log_consistency(self):
        for x in (-5.0, -0.3, 0.7, 4.0):
            assert reference.log_sigmoid_scalar(x) == pytest.approx(
                math.log(reference.sigmoid_scalar(x)), rel=1e-12)

    def test_tails_do_not_overflow(self):
        assert reference.sigmoid_scalar(800.0) == 1.0
        assert reference.sigmoid_scalar(-800.0) == 0.0
        assert reference.log_sigmoid_scalar(-800.0) == pytest.approx(-800.0)
        assert reference.log_sigmoid_scalar(800.0) == 0.0


class TestBruteForceLoss:
    def test_single_edge_halving(self):
        # both ordered pairs contribute, the half cancels the double count
        W = reference.dense_adjacency([(0, 1)], 2)
        X = np.array([[1.0], [2.0]])
        loss = reference.brute_force_loss(X, W, np.zeros((2, 2)))
        assert loss == pytest.approx(-reference.log_sigmoid_scalar(2.0))

    def test_lambda_zero_ignores_negatives(self):
        W_neg = reference.dense_adjacency([(0, 1)], 2)
        X = np.array([[3.0], [1.0]])
        loss = reference.brute_force_loss(X, np.zeros((2, 2)), W_neg, lam=0.0)
        assert loss == 0.0

    def test_penalty_only(self):
        X = np.array([[1.0, 2.0], [2.0, 0.0]])
        loss = reference.brute_force_loss(X, np.zeros((2, 2)),
                                          np.zeros((2, 2)), beta=2.0)
        assert loss == pytest.approx(9.0)

    def test_propagation_applies_to_scores_not_penalty(self):
        W = reference.dense_adjacency([(0, 1)], 2)
        P = np.zeros((2, 2))  # propagated scores all vanish
        X = np.array([[5.0], [5.0]])
        loss = reference.brute_force_loss(X, W, np.zeros((2, 2)), beta=1.0, P=P)
        assert loss == pytest.approx(math.log(2.0) + 0.5 * 50.0)


class TestFiniteDifferences:
    def test_quadratic_is_exact_to_rounding(self):
        X = np.array([[0.5, -1.0], [2.0, 0.25]])
        grad = reference.finite_difference_gradient(
            lambda Z: 0.5 * float((Z * Z).sum()), X)
        assert np.allclose(grad, X, rtol=0, atol=1e-8)

    def test_quartic_second_order_accuracy(self):
        X = np.array([[0.3, -0.7]])
        grad = reference.finite_difference_gradient(
            lambda Z: float((Z ** 4).sum()), X, h=1e-4)
        assert np.allclose(grad, 4.0 * X ** 3, rtol=0, atol=1e-6)


class TestGradientRelativeError:
    def test_identical_arrays(self):
        X = np.ones((3, 2))
        assert reference.gradient_relative_error(X, X) == 0.0

    def test_unit_denominator_floor(self):
        exact = np.array([[0.1]])
        approx = np.array([[0.3]])
        assert reference.gradient_relative_error(exact, approx) == \
            pytest.approx(0.2)

    def test_scales_by_max_entry(self):
        exact = np.array([[10.0]])
        approx = np.array([[12.0]])
        assert reference.gradient_relative_error(exact, approx) == \
            pytest.approx(0.2)


class TestMetricsScalar:
    def test_hit_at_top(self):
        assert reference.metrics_scalar([7, 1, 2], [7], 20) == (
            pytest.approx(0.05), 1.0, 1.0)

    def test_hit_at_second_place(self):
        _, _, ndcg = reference.metrics_scalar([9, 7, 2], [7], 20)
        assert ndcg == pytest.approx(1.0 / math.log2(3.0))

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="relevant"):
            reference.metrics_scalar([1, 2], [], 5)

    @given(st.integers(0, 2**16), st.integers(1, 15))
    def test_property_matches_evaluate(self, seed, k):
        # bit for bit: `evaluate` on a split that ranks one user's
        # candidates in list order, every other item trained
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(20)[: rng.integers(1, 21)]
        relevant = rng.choice(20, size=rng.integers(1, 6), replace=False)
        result = evaluate(*ranked_list_split(ranked, relevant), k=k)
        assert (result.precision, result.recall, result.ndcg) == \
            reference.metrics_scalar(ranked, relevant, k)


class TestEvaluateScalar:
    """Two users, three items; user 0 trained on item 0, user 1 on item 1."""

    @staticmethod
    def case(test):
        part = Partition(2, 3)
        train = np.array([(0, 2), (1, 3)])
        splits = SplitSet(partition=part, train=train, val=np.empty((0, 2)),
                          test=np.array(test), ratios=(0.8, 0.1, 0.1), seed=0)
        return splits, build_graph(train, partition=part)

    def test_trained_items_are_not_ranked(self):
        # item 0 scores highest for user 0 but is a training edge
        splits, graph = self.case([(0, 3)])
        X = np.array([[1.0], [1.0], [3.0], [2.0], [1.0]])
        assert reference.evaluate_scalar(X, splits, graph, k=1) == (
            1, 1.0, 1.0, 1.0, 1, 1)

    def test_ties_rank_lower_item_first_and_nan_is_dropped(self):
        # user 1: item 0 ties item 2 and wins, item 1 is trained;
        # user 0: item 1 is nan, so item 2 is the only candidate left
        splits, graph = self.case([(0, 4), (1, 4)])
        X = np.array([[0.0], [1.0], [1.0], [np.nan], [1.0]])
        k, precision, recall, ndcg, evaluated, skipped = \
            reference.evaluate_scalar(X, splits, graph, k=2)
        assert (k, evaluated, skipped) == (2, 2, 0)
        assert (precision, recall) == (0.5, 1.0)
        assert ndcg == pytest.approx((1.0 + 1.0 / math.log2(3.0)) / 2.0)


class TestDenseKernelPieces:
    def test_propagation_matrix_closed_form(self):
        P1 = np.eye(2)
        K_pos = np.array([[0.0, 0.4], [0.4, 0.0]])
        K_neg = np.array([[0.0, 0.1], [0.1, 0.0]])
        H = reference.dense_propagation_matrix(0.9, 0.5, P1, K_pos, K_neg, 2.0)
        expected = 0.9 * np.eye(2) + 0.5 * (K_pos - 2.0 * K_neg)
        assert np.allclose(H, expected)

    def test_kernel_step_fixes_zero(self):
        A = reference.dense_adjacency([(0, 1)], 3)
        B = reference.dense_adjacency([(0, 2)], 3)
        X = np.zeros((3, 2))
        out = reference.dense_kernel_step(X, 1.0, 0.1, np.eye(3), A, B, 1.0)
        assert np.array_equal(out, X)


class TestDenseWeights:
    def test_path_graph_closed_forms(self):
        graph = SimpleNamespace(edges=PATH_EDGES, num_nodes=4)
        negatives = SimpleNamespace(pairs=[(0, 2), (0, 3)])
        params = lambda model, window=5, layers=3: SimpleNamespace(
            model=model, window=window, layers=layers)
        A = reference.dense_adjacency(PATH_EDGES, 4)
        B = reference.dense_adjacency(negatives.pairs, 4)
        W_pos, W_neg, P = reference.dense_weights(graph, negatives, params("mf"))
        assert np.array_equal(W_pos, A) and np.array_equal(W_neg, B) and P is None
        # (D^-1 A + A D^-1) / 2 on the path: degrees 1, 2, 2, 1
        line = np.array([[0, 0.75, 0, 0], [0.75, 0, 0.5, 0],
                         [0, 0.5, 0, 0.75], [0, 0, 0.75, 0]])
        W_pos, W_neg, P = reference.dense_weights(graph, negatives,
                                                  params("line"))
        assert np.array_equal(W_pos, line) and np.array_equal(W_neg, B)
        W_pos, W_neg, P = reference.dense_weights(graph, negatives,
                                                  params("deepwalk", window=1))
        # node 0 has two negatives, nodes 2 and 3 one each
        neg = np.array([[0, 0, 0.75, 0.75], [0, 0, 0, 0],
                        [0.75, 0, 0, 0], [0.75, 0, 0, 0]])
        assert np.array_equal(W_pos, line) and np.array_equal(W_neg, neg)
        W_pos, W_neg, P = reference.dense_weights(graph, negatives,
                                                  params("lightgcn", layers=0))
        assert np.array_equal(W_pos, A) and np.array_equal(P, np.eye(4))

    def test_unknown_model(self):
        graph = SimpleNamespace(edges=PATH_EDGES, num_nodes=4)
        with pytest.raises(ValueError):
            reference.dense_weights(graph, SimpleNamespace(pairs=[]),
                                    SimpleNamespace(model="svd"))


def imported_modules(path):
    """Every module a source file imports, with `from m import x` also
    giving `m.x` (x may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path.name}: relative import"
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


class TestOracleIndependence:
    # criterion 1 steps the gradient path on reference.dense_weights: the
    # oracle must not lean on the library it checks, in any CI job
    def test_reference_imports_only_stdlib_and_numpy(self):
        roots = {name.split(".")[0]
                 for name in imported_modules(TESTS / "reference.py")}
        allowed = set(sys.stdlib_module_names) | {"numpy"}
        assert roots <= allowed, roots - allowed

    def test_no_library_module_imports_reference(self):
        offenders = [path.name for path in sorted(SRC.glob("*.py"))
                     if imported_modules(path)
                     & {"reference", "linkprop.reference"}]
        assert offenders == []

    def test_oracle_is_not_in_the_package(self):
        # the oracle is test code: an install of linkprop does not ship it
        assert (SRC / "ranking.py").is_file()
        assert list(SRC.rglob("reference.py")) == []
        assert importlib.util.find_spec("linkprop.reference") is None
