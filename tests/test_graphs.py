import numpy as np
import pytest
from hypothesis import given, strategies as st

from linkprop import reference
from linkprop.graphs import (MAX_PROXIMITY_ORDER, Partition, build_graph,
                             normalize, proximity)

from conftest import graph_strategy


class TestBuildGraph:
    def test_canonicalizes_duplicates_and_orientation(self):
        g = build_graph([(2, 1), (1, 2), (0, 3), (0, 3)], num_nodes=4)
        assert g.edges.tolist() == [[0, 3], [1, 2]]
        assert g.num_edges == 2

    def test_degrees_and_neighbors(self, path_graph):
        assert path_graph.degrees.tolist() == [1, 2, 2, 1]
        assert path_graph.neighbors(1).tolist() == [0, 2]

    def test_adjacency_symmetric_binary(self, path_graph):
        A = path_graph.adjacency.toarray()
        assert np.array_equal(A, A.T)
        assert set(np.unique(A)) <= {0.0, 1.0}
        assert np.all(np.diag(A) == 0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph([(1, 1)], num_nodes=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph([(0, 5)], num_nodes=3)

    def test_bipartite_violation_rejected(self):
        part = Partition(2, 2)
        with pytest.raises(ValueError, match="bipartite violation"):
            build_graph([(0, 1)], partition=part)  # user-user edge
        with pytest.raises(ValueError, match="bipartite violation"):
            build_graph([(2, 3)], partition=part)  # item-item edge

    def test_partition_size_mismatch(self):
        with pytest.raises(ValueError, match="does not match partition"):
            build_graph([(0, 2)], num_nodes=5, partition=Partition(2, 1))

    def test_partition_needs_both_sides(self):
        with pytest.raises(ValueError):
            Partition(0, 3)

    def test_empty_graph(self):
        g = build_graph([], num_nodes=4)
        assert g.num_edges == 0
        assert g.degrees.tolist() == [0, 0, 0, 0]


class TestNormalize:
    def test_row_scheme_path(self, path_graph):
        M = normalize(path_graph, "row").matrix.toarray()
        expected = np.array([[0, 1, 0, 0],
                             [0.5, 0, 0.5, 0],
                             [0, 0.5, 0, 0.5],
                             [0, 0, 1, 0]])
        assert np.allclose(M, expected)

    def test_symmetric_scheme_path(self, path_graph):
        M = normalize(path_graph, "symmetric").matrix.toarray()
        r2 = 1.0 / np.sqrt(2.0)
        expected = np.array([[0, r2, 0, 0],
                             [r2, 0, 0.5, 0],
                             [0, 0.5, 0, r2],
                             [0, 0, r2, 0]])
        assert np.allclose(M, expected)

    def test_none_scheme_is_copy(self, path_graph):
        M = normalize(path_graph, "none").matrix
        assert np.array_equal(M.toarray(), path_graph.adjacency.toarray())

    def test_zero_degree_rows_stay_zero(self):
        g = build_graph([(0, 1)], num_nodes=3)
        for scheme in ("row", "symmetric"):
            M = normalize(g, scheme).matrix.toarray()
            assert np.all(M[2] == 0)
            assert np.all(M[:, 2] == 0)
            assert np.all(np.isfinite(M))

    def test_unknown_scheme(self, path_graph):
        with pytest.raises(ValueError, match="unknown normalization"):
            normalize(path_graph, "l2")

    @given(graph_strategy())
    def test_matches_dense_oracle(self, g):
        for scheme in ("none", "row", "symmetric"):
            fast = normalize(g, scheme).matrix.toarray()
            dense = reference.dense_normalize(
                reference.dense_adjacency(g.edges, g.num_nodes), scheme)
            assert np.allclose(fast, dense, atol=1e-14)


class TestProximity:
    def test_identity_operator_copies(self, path_graph):
        op = proximity(normalize(path_graph, "row"), 0, 0)
        X = np.arange(8.0).reshape(4, 2)
        out = op.apply(X)
        assert out is not X
        assert np.array_equal(out, X)
        assert op.is_identity()

    def test_single_power_is_plain_product(self, path_graph):
        base = normalize(path_graph, "row")
        op = proximity(base, 1, 1)
        X = np.arange(8.0).reshape(4, 2)
        assert np.allclose(op.apply(X), base.matrix @ X)

    def test_order_validation(self, path_graph):
        base = normalize(path_graph, "row")
        with pytest.raises(ValueError, match="0 <= low <= high"):
            proximity(base, 2, 1)
        with pytest.raises(ValueError, match="0 <= low <= high"):
            proximity(base, -1, 1)
        with pytest.raises(ValueError, match="configured maximum"):
            proximity(base, 0, MAX_PROXIMITY_ORDER + 1)

    def test_shape_mismatch(self, path_graph):
        op = proximity(normalize(path_graph, "row"), 1, 2)
        with pytest.raises(ValueError, match="row count"):
            op.apply(np.zeros((3, 2)))

    @given(graph_strategy(), st.integers(0, 3), st.integers(0, 2))
    def test_lazy_equals_materialized(self, g, low, extra):
        high = low + extra
        op = proximity(normalize(g, "symmetric"), low, high)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(g.num_nodes, 3))
        assert np.allclose(op.apply(X), op.materialize() @ X, atol=1e-10)

    @given(graph_strategy(), st.integers(0, 3), st.integers(0, 2))
    def test_matches_dense_power_oracle(self, g, low, extra):
        high = low + extra
        dense = reference.dense_proximity(
            reference.dense_normalize(
                reference.dense_adjacency(g.edges, g.num_nodes), "row"),
            low, high)
        ours = proximity(normalize(g, "row"), low, high).materialize().toarray()
        assert np.allclose(ours, dense, atol=1e-12)

    @given(graph_strategy(min_nodes=5, max_nodes=10))
    def test_row_proximity_is_row_stochastic_without_isolates(self, g):
        if np.any(g.degrees == 0):
            return
        op = proximity(normalize(g, "row"), 1, 3)
        sums = op.materialize().toarray().sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    @given(graph_strategy())
    def test_symmetric_proximity_contracts_frobenius(self, g):
        op = proximity(normalize(g, "symmetric"), 0, 3)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(g.num_nodes, 4))
        assert np.linalg.norm(op.apply(X)) <= np.linalg.norm(X) * (1 + 1e-12)

    @given(graph_strategy())
    def test_apply_is_linear(self, g):
        op = proximity(normalize(g, "symmetric"), 1, 2)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(g.num_nodes, 3))
        Y = rng.normal(size=(g.num_nodes, 3))
        assert np.allclose(op.apply(2.0 * X - 0.5 * Y),
                           2.0 * op.apply(X) - 0.5 * op.apply(Y), atol=1e-10)

    def test_materialize_drop_threshold_prunes(self, path_graph):
        op = proximity(normalize(path_graph, "row"), 1, 3)
        full = op.materialize()
        pruned = op.materialize(drop_below=0.2)
        assert pruned.nnz < full.nnz
        assert np.all(np.abs(pruned.data) >= 0.2)
