import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from linkprop import negatives
from linkprop.data_io import load_edge_list
from linkprop.graphs import Partition, build_graph
from linkprop.negatives import (STRATEGIES, QuotaUnreachable,
                                degree_power_weights, sample_negatives)

from conftest import DATA_DIR, graph_strategy


def edge_set(pairs):
    return {(int(u), int(v)) for u, v in pairs}


class TestSampleNegatives:
    def test_disjoint_from_positives(self, small_instance):
        graph, neg = small_instance
        assert not (edge_set(graph.edges) & edge_set(neg.pairs))

    def test_one_per_positive(self, small_instance):
        graph, neg = small_instance
        assert neg.num_pairs == graph.num_edges

    def test_canonical_and_unique(self, small_instance):
        _, neg = small_instance
        assert np.all(neg.pairs[:, 0] < neg.pairs[:, 1])
        assert len(edge_set(neg.pairs)) == neg.num_pairs

    def test_deterministic_per_seed(self, small_instance):
        # two graphs built apart, so each set is drawn, not read from a memo
        graph, _ = small_instance
        twin = build_graph(graph.edges, num_nodes=graph.num_nodes)
        a = sample_negatives(graph, seed=5)
        b = sample_negatives(twin, seed=5)
        c = sample_negatives(twin, seed=6)
        assert b is not a
        assert np.array_equal(a.pairs, b.pairs)
        assert not np.array_equal(a.pairs, c.pairs)

    def test_adjacency_matches_pairs(self, small_instance):
        _, neg = small_instance
        B = neg.adjacency.toarray()
        assert np.array_equal(B, B.T)
        assert B.sum() == 2 * neg.num_pairs

    def test_bipartite_anchors_users_partners_items(self, bipartite_instance):
        graph, neg = bipartite_instance
        num_users = graph.partition.num_users
        assert np.all(neg.pairs[:, 0] < num_users)
        assert np.all(neg.pairs[:, 1] >= num_users)

    def test_per_positive_multiplier(self):
        graph = build_graph([(0, 3), (1, 4), (2, 5)],
                            partition=Partition(3, 6))
        neg = sample_negatives(graph, per_positive=2, seed=1)
        assert neg.num_pairs == 2 * graph.num_edges

    def test_quota_unreachable_reports_progress(self):
        # the single user is connected to every item: no negative exists
        graph = build_graph([(0, 1), (0, 2)], partition=Partition(1, 2))
        with pytest.raises(QuotaUnreachable) as exc:
            sample_negatives(graph, seed=0, max_tries=20)
        assert exc.value.requested == 2
        assert exc.value.achieved == 0

    def test_partial_progress_in_error(self):
        # user 0 has room for one negative, user 1 saturates the item side;
        # the sampler walks anchors in edge order so it finds (0, 3) before
        # giving up on user 1's slots
        graph = build_graph([(0, 2), (1, 2), (1, 3)], partition=Partition(2, 2))
        with pytest.raises(QuotaUnreachable) as exc:
            sample_negatives(graph, seed=0, max_tries=20)
        assert exc.value.achieved == 1
        assert edge_set(exc.value.pairs) == {(0, 3)}

    @pytest.mark.parametrize("max_tries", [0, -1])
    def test_max_tries_below_one_rejected(self, max_tries):
        # a quota no draw can fill: the check must come first
        graph = build_graph([(0, 1), (0, 2)], partition=Partition(1, 2))
        with mock.patch.object(negatives.np.random, "default_rng") as rng, \
                pytest.raises(ValueError, match="max_tries"):
            sample_negatives(graph, max_tries=max_tries)
        rng.assert_not_called()

    @pytest.mark.parametrize("max_tries", [2.5, True])
    def test_max_tries_must_be_an_integer(self, small_instance, max_tries):
        # the loop counts tries up to max_tries, and it is part of the memo key
        graph, _ = small_instance
        with pytest.raises(ValueError, match="max_tries must be an integer"):
            sample_negatives(graph, max_tries=max_tries)

    def test_unknown_strategy(self, small_instance):
        graph, _ = small_instance
        with pytest.raises(ValueError, match="strategy must be one of"):
            sample_negatives(graph, strategy="popularity")

    def test_per_positive_validation(self, small_instance):
        graph, _ = small_instance
        with pytest.raises(ValueError, match="per_positive"):
            sample_negatives(graph, per_positive=0)

    @pytest.mark.parametrize("value", [1.5, 1.0, True, np.float64(2.0)])
    def test_per_positive_must_be_an_integer(self, small_instance, value):
        # True used to count as 1 and 1.5 to fail inside numpy
        graph, _ = small_instance
        with pytest.raises(ValueError, match="per_positive must be an integer"):
            sample_negatives(graph, per_positive=value)

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must be >= 0, got -1"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5")])
    def test_bad_seed_names_the_seed(self, small_instance, seed, message):
        graph, _ = small_instance
        with pytest.raises(ValueError, match=message):
            sample_negatives(graph, seed=seed)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"),
                                          float("-inf")])
    def test_non_finite_exponent_rejected(self, bipartite_instance, exponent):
        graph, _ = bipartite_instance
        with pytest.raises(ValueError, match="exponent must be finite"):
            sample_negatives(graph, strategy="degree_power", exponent=exponent)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_exponent_rejected(self, bipartite_instance):
        graph, _ = bipartite_instance
        with pytest.raises(ValueError, match="overflows"):
            sample_negatives(graph, strategy="degree_power", exponent=1e4)

    def test_degree_power_draws_valid_set(self, bipartite_instance):
        graph, _ = bipartite_instance
        neg = sample_negatives(graph, strategy="degree_power", seed=3)
        assert neg.num_pairs == graph.num_edges
        assert not (edge_set(graph.edges) & edge_set(neg.pairs))

    def test_degree_power_skews_toward_popular_items(self):
        # item 19 holds most edges; under degree weighting the cold item 18
        # should receive clearly fewer negatives than under uniform
        edges = [(u, 19) for u in range(15)] + [(15, 18), (16, 20), (17, 20)]
        graph = build_graph(edges, partition=Partition(18, 3))
        uni = sample_negatives(graph, seed=0, strategy="uniform")
        pw = sample_negatives(graph, seed=0, strategy="degree_power",
                              exponent=1.0)
        cold = lambda neg: int((neg.pairs[:, 1] == 18).sum())
        assert cold(pw) < cold(uni)

    @given(graph_strategy(bipartite=True), st.integers(0, 100))
    def test_property_disjoint_and_sized(self, graph, seed):
        try:
            neg = sample_negatives(graph, seed=seed, max_tries=50)
        except QuotaUnreachable:
            return  # dense little graphs may legitimately run out of room
        assert not (edge_set(graph.edges) & edge_set(neg.pairs))
        assert neg.num_pairs == graph.num_edges


class TestBatchedDraws:
    """The batched walk against the per-draw loop it replaced.  Each test
    samples on a graph it built itself: a set memoized on a shared graph
    would have been drawn at another batch size."""

    @settings(max_examples=150)
    @given(graph=st.one_of(graph_strategy(bipartite=True), graph_strategy()),
           strategy=st.sampled_from(STRATEGIES),
           exponent=st.sampled_from([0.75, 1.0, -0.5]),
           per_positive=st.integers(1, 3),
           max_tries=st.sampled_from([1, 2, 3, 5, 200]),
           seed=st.integers(0, 2**16),
           batch=st.sampled_from([1, 2, 3, 7, 4096]))
    def test_equal_to_scalar_oracle(self, graph, strategy, exponent,
                                    per_positive, max_tries, seed, batch):
        expected, requested = reference.sample_negatives_scalar(
            graph, per_positive, strategy, exponent, seed, max_tries)
        with mock.patch.object(negatives, "_BATCH", batch):
            try:
                got = sample_negatives(graph, per_positive, strategy,
                                       exponent, seed, max_tries)
            except QuotaUnreachable as err:
                assert expected.shape[0] < requested
                assert (err.requested, err.achieved) == (requested,
                                                         expected.shape[0])
                assert err.pairs.dtype == expected.dtype
                assert np.array_equal(err.pairs, expected)
                return
        assert got.pairs.dtype == expected.dtype
        assert np.array_equal(got.pairs, expected)
        assert np.array_equal(got.adjacency.toarray(), reference.dense_adjacency(
            expected.tolist(), graph.num_nodes))

    @pytest.mark.parametrize("batch", [1, 2, 5, 4096])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_equal_to_scalar_oracle_on_bench_500(self, batch, strategy):
        graph = load_edge_list(f"{DATA_DIR}/bench_500.tsv").to_graph()
        expected, _ = reference.sample_negatives_scalar(
            graph, 2, strategy, seed=7)
        with mock.patch.object(negatives, "_BATCH", batch):
            got = sample_negatives(graph, 2, strategy, seed=7)
        assert np.array_equal(got.pairs, expected)

    def test_unfillable_quota_matches_the_oracle(self):
        # user 1 saturates the items; user 0 fills its slots first
        graph = build_graph([(0, 3), (1, 2), (1, 3), (1, 4)],
                            partition=Partition(2, 3))
        expected, requested = reference.sample_negatives_scalar(
            graph, per_positive=2, max_tries=30)
        assert expected.shape[0] < requested
        with mock.patch.object(negatives, "_BATCH", 3), \
                pytest.raises(QuotaUnreachable) as exc:
            sample_negatives(graph, per_positive=2, max_tries=30)
        assert exc.value.requested == requested == 8
        assert exc.value.achieved == expected.shape[0] == 2
        assert np.array_equal(exc.value.pairs, expected)


class TestMemo:
    """One set per graph and setting, kept in the graph's memo."""

    SETTING = {"per_positive": 1, "strategy": "uniform", "exponent": 0.75,
               "seed": 0, "max_tries": 200}

    @pytest.fixture
    def graph(self):
        return load_edge_list(f"{DATA_DIR}/bench_500.tsv").to_graph()

    def test_same_graph_and_setting_return_one_object(self, graph):
        first = sample_negatives(graph, **self.SETTING)
        assert sample_negatives(graph, **self.SETTING) is first
        # the defaults name the same setting
        assert sample_negatives(graph) is first

    @pytest.mark.parametrize("name,value", [
        ("per_positive", 2), ("strategy", "degree_power"), ("exponent", 1.0),
        ("seed", 1), ("max_tries", 199)])
    def test_any_other_argument_draws_a_new_set(self, graph, name, value):
        first = sample_negatives(graph, **self.SETTING)
        with mock.patch.object(negatives, "_sample",
                               wraps=negatives._sample) as draw:
            other = sample_negatives(graph, **{**self.SETTING, name: value})
        assert other is not first
        assert draw.call_count == 1
        assert sample_negatives(graph, **{**self.SETTING, name: value}) is other

    def test_pairs_and_adjacency_are_read_only(self, graph):
        neg = sample_negatives(graph)
        for array in (neg.pairs, neg.adjacency.data, neg.adjacency.indices,
                      neg.adjacency.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_unreachable_quota_is_raised_again(self):
        graph = build_graph([(0, 2), (1, 2), (1, 3)], partition=Partition(2, 2))
        with mock.patch.object(negatives, "_sample",
                               wraps=negatives._sample) as draw:
            for _ in range(2):
                with pytest.raises(QuotaUnreachable) as exc:
                    sample_negatives(graph, max_tries=20)
                assert edge_set(exc.value.pairs) == {(0, 3)}
        assert draw.call_count == 2
        assert graph._memo == {}

    def test_replace_starts_with_an_empty_memo(self, graph):
        first = sample_negatives(graph)
        other = dataclasses.replace(graph)
        again = sample_negatives(other)
        assert again is not first
        assert np.array_equal(again.pairs, first.pairs)
        assert sample_negatives(graph) is first


class TestDegreePowerWeights:
    def test_zero_degree_weightless(self):
        w = degree_power_weights(np.array([0, 1, 16]), 0.75)
        assert w[0] == 0.0
        assert w[1] == 1.0
        assert w[2] == pytest.approx(8.0)

    def test_exponent_one_is_proportional(self):
        deg = np.array([2, 4, 6])
        assert np.allclose(degree_power_weights(deg, 1.0), deg)

    def test_all_isolated_rejected(self):
        graph = build_graph([(0, 2)], partition=Partition(2, 2))
        # drop the only edge's weight contribution by pointing at a graph
        # whose item side is all zero-degree: impossible here, so check the
        # guard directly instead
        w = degree_power_weights(np.zeros(3, dtype=int), 0.75)
        assert w.sum() == 0.0
