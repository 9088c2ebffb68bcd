import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

import reference
from linkprop.graphs import (MAX_PROXIMITY_ORDER, SCHEMES, Partition,
                             build_graph, canonical_pairs, normalize,
                             proximity, read_only, unique_rows)

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

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("edges, message, bad", [
        ([(0, 2), (2**63 - 1, 1)], "node id out of range [0, 4)",
         (1, 2**63 - 1)),
        ([(0, 2), (-2**63, 3)], "node id out of range [0, 4)", (-2**63, 3)),
        ([(3, 0), (2, 2), (1, 1)], "self-loop not allowed", (1, 1)),
    ])
    def test_messages_name_the_first_bad_pair_at_any_id(self, edges, message,
                                                          bad, as_array):
        edge_list = np.array(edges, dtype=np.int64) if as_array else edges
        # the pair prints as plain ints whatever the numpy version
        expected = f"{message}: pair {bad}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            build_graph(edge_list, num_nodes=4)

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, 3)], []])
    def test_arrays_are_read_only(self, edges):
        # the graph's memo can only go stale if the graph changes
        g = build_graph(edges, num_nodes=4)
        a = g.adjacency
        for array in (g.edges, g.degrees, a.data, a.indices, a.indptr):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            g.edges.sort(axis=0)
        if edges:
            with pytest.raises(ValueError, match="read-only"):
                a.data *= 2.0
        assert g.adjacency.toarray().sum() == 2 * len(edges)

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.integers(n, n + 3),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda p: p[0] != p[1]), max_size=3 * n))))
    @example((6, [(3, 1), (1, 3), (0, 2), (0, 2)]))
    def test_degrees_are_int64_row_sums(self, drawn):
        # the node count can exceed the largest id, leaving isolated nodes;
        # pairs come in either orientation and may repeat
        num_nodes, edges = drawn
        g = build_graph(edges, num_nodes=num_nodes)
        row_sums = np.asarray(g.adjacency.sum(axis=1)).ravel()
        assert g.degrees.dtype == np.int64
        assert np.array_equal(g.degrees, row_sums.astype(np.int64))
        assert g.degrees.sum() == 2 * len({frozenset(p) for p in edges})
        assert not g.degrees.flags.writeable

    def test_input_edge_array_stays_writeable(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        g = build_graph(edges, num_nodes=3)
        assert not np.shares_memory(g.edges, edges)
        edges[0, 0] = 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("as_array", [False, True])
    def test_bipartite_message_names_the_first_bad_pair(self, as_array):
        edges = [(3, 4), (1, 3), (2, 0)]
        edge_list = np.array(edges, dtype=np.int64) if as_array else edges
        expected = "bipartite violation: pair (3, 4) does not join a user"
        with pytest.raises(ValueError, match=re.escape(expected)):
            build_graph(edge_list, num_nodes=5, partition=Partition(2, 3))


# ids at which key arithmetic such as u * n + v overflows int64
EXTREME_IDS = st.sampled_from([-2**63, -2**63 + 1, -2**31, 2**31, 2**62,
                               2**63 - 2, 2**63 - 1])
ROW_IDS = st.one_of(st.integers(-3, 3), EXTREME_IDS)


@st.composite
def int_rows(draw):
    """(m, 2) int64 rows: empty, duplicated, negative or near int64's
    limits, in any order or already sorted."""
    rows = draw(st.lists(st.tuples(ROW_IDS, ROW_IDS), max_size=30))
    arr = np.array(rows, dtype=np.int64).reshape(-1, 2)
    order = draw(st.sampled_from(["as drawn", "sorted", "unique"]))
    if order != "as drawn" and arr.size:
        arr = np.unique(arr, axis=0)
        if order == "sorted":
            arr = np.repeat(arr, 2, axis=0)
    return arr


class TestUniqueRows:
    @given(int_rows())
    def test_equal_to_numpy_unique(self, arr):
        before = arr.copy()
        got = unique_rows(arr)
        expected = np.unique(arr, axis=0)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(arr, before)
        assert not np.shares_memory(got, arr)

    @given(int_rows())
    def test_canonical_pairs_same_for_arrays_and_lists(self, arr):
        got = canonical_pairs(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, canonical_pairs(arr.tolist()))
        assert np.array_equal(got, np.unique(np.sort(arr, axis=1), axis=0)
                              if arr.size else np.empty((0, 2)))


class TestNormalize:
    def test_row_scheme_path(self, path_graph):
        M = normalize(path_graph, "row").toarray()
        expected = np.array([[0, 1, 0, 0],
                             [0.5, 0, 0.5, 0],
                             [0, 0.5, 0, 0.5],
                             [0, 0, 1, 0]])
        assert np.allclose(M, expected)

    def test_symmetric_scheme_path(self, path_graph):
        M = normalize(path_graph, "symmetric").toarray()
        r2 = 1.0 / np.sqrt(2.0)
        expected = np.array([[0, r2, 0, 0],
                             [r2, 0, 0.5, 0],
                             [0, 0.5, 0, r2],
                             [0, 0, r2, 0]])
        assert np.allclose(M, expected)

    def test_none_scheme_is_read_only_adjacency(self, path_graph):
        # no copy is needed: nothing can write into the adjacency
        M = normalize(path_graph, "none")
        assert M is path_graph.adjacency
        with pytest.raises(ValueError, match="read-only"):
            M.data[0] = 2.0

    def test_zero_degree_rows_stay_zero(self):
        g = build_graph([(0, 1)], num_nodes=3)
        for scheme in ("row", "symmetric"):
            M = normalize(g, scheme).toarray()
            assert np.all(M[2] == 0)
            assert np.all(M[:, 2] == 0)
            assert np.all(np.isfinite(M))

    def test_unknown_scheme(self, path_graph):
        with pytest.raises(ValueError, match="unknown normalization"):
            normalize(path_graph, "l2")

    @given(graph_strategy())
    def test_one_read_only_matrix_per_graph_and_scheme(self, g):
        fresh = build_graph(g.edges, num_nodes=g.num_nodes)
        for scheme in SCHEMES:
            M = normalize(g, scheme)
            assert normalize(g, scheme) is M
            for array in (M.data, M.indices, M.indptr):
                assert not array.flags.writeable
            # the memo holds the matrix as built, bit for bit and in order
            F = normalize(fresh, scheme)
            for mine, theirs in ((M.data, F.data), (M.indices, F.indices),
                                 (M.indptr, F.indptr)):
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()

    def test_memo_freed_with_graph(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], num_nodes=4)
        matrices = [weakref.ref(normalize(g, scheme)) for scheme in SCHEMES]
        graph = weakref.ref(g)
        del g
        gc.collect()
        assert graph() is None
        assert all(m() is None for m in matrices)

    def test_replace_starts_with_an_empty_memo(self, path_graph):
        row = normalize(path_graph, "row")
        other = dataclasses.replace(path_graph)
        assert other.adjacency is path_graph.adjacency
        assert normalize(other, "row") is not row
        assert normalize(path_graph, "row") is row

    def test_unsorted_matrix_is_never_sorted_in_place(self, path_graph):
        # scipy's sparse product emits each row of D^-1 A in reverse order;
        # sorting it would change the walk masks' bits, so the memo keeps a
        # matrix as built, read-only, and a scipy call that sorts in place
        # raises rather than reorder a matrix that every caller shares
        built = []

        def build():
            built.append(1)
            return read_only(sp.csr_array(
                (np.ones(3), np.array([3, 2, 1]), np.array([0, 3, 3, 3, 3])),
                shape=(4, 4)))

        M = path_graph.memoized(("unsorted",), build)
        assert path_graph.memoized(("unsorted",), build) is M
        assert len(built) == 1
        for sort in (M.sort_indices, M.sum_duplicates):
            with pytest.raises(ValueError, match="read-only"):
                sort()
        assert M.indices.tolist() == [3, 2, 1]
        assert M.copy().max() == 1.0

    @given(graph_strategy())
    def test_matches_dense_oracle(self, g):
        for scheme in ("none", "row", "symmetric"):
            fast = normalize(g, scheme).toarray()
            dense = reference.dense_normalize(
                reference.dense_adjacency(g.edges, g.num_nodes), scheme)
            assert np.allclose(fast, dense, atol=1e-14)


class TestProximity:
    def test_identity_operator_passes_x_through(self, path_graph):
        op = proximity(normalize(path_graph, "row"), 0, 0)
        X = np.arange(8.0).reshape(4, 2)
        assert op.apply(X) is X
        assert op.is_identity()

    def test_single_power_is_plain_product(self, path_graph):
        base = normalize(path_graph, "row")
        op = proximity(base, 1, 1)
        X = np.arange(8.0).reshape(4, 2)
        assert np.allclose(op.apply(X), base @ X)

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

    @pytest.mark.parametrize("low, high", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("X", [np.zeros((4, 2), dtype=np.int64),
                                   np.zeros((4, 2), dtype=bool),
                                   np.zeros((4, 2), dtype=np.complex128),
                                   np.zeros((4, 2, 2)), np.zeros(4)])
    def test_apply_rejects_all_but_2d_real_float(self, path_graph, low, high,
                                                 X):
        # checked before the identity operator returns X as it is
        op = proximity(normalize(path_graph, "row"), low, high)
        with pytest.raises(ValueError, match=re.escape(
                f"2-d real floating-point array, got shape {X.shape} and "
                f"dtype {X.dtype}")):
            op.apply(X)

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

    @given(graph_strategy(), st.sampled_from(SCHEMES), st.integers(0, 3),
           st.integers(0, 2), st.sampled_from([np.float32, np.float64]),
           st.integers(0, 2**16))
    def test_overwrite_input_keeps_the_bits_of_apply(self, g, scheme, low,
                                                     extra, dtype, seed):
        # orders 0..high and low >= 1, the identity (0, 0) among them: P
        # summed into a surrendered buffer is that buffer, holding apply's
        # bits, and a plain apply leaves its input bit for bit as it was
        op = proximity(normalize(g, scheme), low, low + extra)
        X = np.random.default_rng(seed).normal(
            size=(g.num_nodes, 3)).astype(dtype)
        before = X.tobytes()
        expected = op.apply(X)
        assert X.tobytes() == before
        surrendered = X.copy()
        got = op.apply(surrendered, overwrite_input=True)
        assert got is surrendered
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @given(graph_strategy())
    def test_apply_is_linear(self, g):
        op = proximity(normalize(g, "symmetric"), 1, 2)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(g.num_nodes, 3))
        Y = rng.normal(size=(g.num_nodes, 3))
        assert np.allclose(op.apply(2.0 * X - 0.5 * Y),
                           2.0 * op.apply(X) - 0.5 * op.apply(Y), atol=1e-10)
