import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linkprop import ranking
from linkprop.graphs import Partition, build_graph
from linkprop.ranking import (EvalResult, SplitSet, evaluate, mean_result,
                              metrics_at_k, score_user, top_k)
from linkprop.reference import evaluate_scalar, metrics_scalar


def make_splits(part, train, val=(), test=()):
    to_arr = lambda pairs: np.asarray(list(pairs), dtype=int).reshape(-1, 2)
    return SplitSet(partition=part, train=to_arr(train), val=to_arr(val),
                    test=to_arr(test), ratios=(0.8, 0.1, 0.1), seed=0)


class TestTopK:
    def test_orders_by_score(self):
        assert list(top_k(np.array([3.0, 1.0, 2.0]), 2)) == [0, 2]

    def test_ties_break_by_index(self):
        assert list(top_k(np.array([1.0, 1.0, 2.0]), 3)) == [2, 0, 1]

    def test_filters_masked_scores(self):
        scores = np.array([-np.inf, 0.5, -np.inf, 0.1])
        assert list(top_k(scores, 4)) == [1, 3]

    def test_cutoff_validation(self):
        with pytest.raises(ValueError, match="cutoff"):
            top_k(np.array([1.0]), 0)

    @given(st.integers(0, 2**16), st.integers(1, 12))
    def test_property_matches_full_sort(self, seed, k):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=15)
        scores[rng.integers(0, 15, size=4)] = -np.inf
        expected = [i for i in sorted(range(15), key=lambda i: (-scores[i], i))
                    if np.isfinite(scores[i])][:k]
        assert list(top_k(scores, k)) == expected


class TestMetricsAtK:
    def test_single_hit_at_top(self):
        p, r, n = metrics_at_k(np.arange(20), np.array([0]), k=20)
        assert (p, r, n) == (0.05, 1.0, 1.0)

    def test_single_hit_at_second_place(self):
        _, _, n = metrics_at_k(np.arange(20), np.array([1]), k=20)
        assert n == pytest.approx(1.0 / np.log2(3.0))

    def test_no_hits(self):
        p, r, n = metrics_at_k(np.array([5, 6, 7]), np.array([0, 1]), k=3)
        assert (p, r, n) == (0.0, 0.0, 0.0)

    def test_short_list_still_divides_by_k(self):
        p, r, _ = metrics_at_k(np.array([0]), np.array([0]), k=10)
        assert p == 0.1
        assert r == 1.0

    def test_ideal_truncates_at_test_size(self):
        # two of three test items in the top 2: idcg uses ranks 1..2 only
        p, r, n = metrics_at_k(np.array([0, 1]), np.array([0, 1, 9]), k=2)
        assert n == 1.0
        assert r == pytest.approx(2.0 / 3.0)

    def test_empty_test_set(self):
        with pytest.raises(ValueError, match="empty test set"):
            metrics_at_k(np.array([0]), np.array([]), k=1)

    def test_perfect_prefix_is_unit_ndcg(self):
        ranked = np.array([3, 1, 4, 2])
        _, _, n = metrics_at_k(ranked, np.array([3, 1]), k=4)
        assert n == 1.0

    @given(st.integers(0, 2**16), st.integers(1, 15))
    def test_property_matches_scalar_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(20)[: rng.integers(1, 21)]
        relevant = rng.choice(20, size=rng.integers(1, 6), replace=False)
        got = metrics_at_k(ranked, relevant, k)
        expected = metrics_scalar(ranked, relevant, k)
        assert got == expected

    @given(st.integers(0, 2**16), st.integers(1, 15))
    def test_property_counting_identity(self, seed, k):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(20)
        relevant = rng.choice(20, size=rng.integers(1, 6), replace=False)
        p, r, n = metrics_at_k(ranked, relevant, k)
        hits = len(set(ranked[:k].tolist()) & set(relevant.tolist()))
        assert p * k == pytest.approx(hits)
        assert r * len(relevant) == pytest.approx(hits)
        assert 0.0 <= n <= 1.0 + 1e-12


class TestScoreUser:
    def test_masks_train_interactions(self):
        part = Partition(2, 3)
        graph = build_graph([(0, 2), (0, 3), (1, 4)], partition=part)
        X = np.ones((5, 2))
        scores = score_user(X, 0, graph)
        assert scores[0] == -np.inf and scores[1] == -np.inf
        assert scores[2] == pytest.approx(2.0)

    def test_needs_partition(self):
        graph = build_graph([(0, 1)], num_nodes=2)
        with pytest.raises(ValueError, match="partition"):
            score_user(np.ones((2, 2)), 0, graph)


class TestEvaluate:
    def test_perfect_model(self):
        part = Partition(2, 3)
        train = [(0, 2), (1, 3)]
        splits = make_splits(part, train, test=[(0, 3), (1, 4)])
        graph = build_graph(train, partition=part)
        X = np.array([[1.0, 0.0], [0.0, 1.0],
                      [0.6, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = evaluate(X, splits, graph, k=1)
        assert result.recall == 1.0
        assert result.precision == 1.0
        assert result.ndcg == 1.0
        assert result.users_evaluated == 2
        assert result.users_skipped == 0

    def test_users_without_test_edges_are_skipped(self):
        part = Partition(3, 3)
        train = [(0, 3), (1, 4), (2, 5)]
        splits = make_splits(part, train, test=[(0, 4)])
        graph = build_graph(train, partition=part)
        result = evaluate(np.ones((6, 2)), splits, graph, k=2)
        assert result.users_evaluated == 1
        assert result.users_skipped == 2

    def test_val_split_selection(self):
        part = Partition(2, 2)
        train = [(0, 2), (1, 3)]
        splits = make_splits(part, train, val=[(0, 3)], test=[(1, 2)])
        graph = build_graph(train, partition=part)
        X = np.ones((4, 2))
        val = evaluate(X, splits, graph, k=1, split="val")
        test = evaluate(X, splits, graph, k=1, split="test")
        assert val.users_evaluated == 1
        assert test.users_evaluated == 1

    def test_unknown_split(self):
        part = Partition(2, 2)
        splits = make_splits(part, [(0, 2)], test=[(1, 3)])
        graph = build_graph([(0, 2)], partition=part)
        with pytest.raises(ValueError, match="split"):
            evaluate(np.ones((4, 2)), splits, graph, split="train")

    def test_no_evaluable_users(self):
        part = Partition(2, 2)
        splits = make_splits(part, [(0, 2), (1, 3)])
        graph = build_graph([(0, 2), (1, 3)], partition=part)
        with pytest.raises(ValueError, match="no users"):
            evaluate(np.ones((4, 2)), splits, graph)

    def test_needs_partition(self):
        part = Partition(2, 2)
        splits = make_splits(part, [(0, 2)], test=[(1, 3)])
        graph = build_graph([(0, 2)], num_nodes=4)
        with pytest.raises(ValueError, match="partition"):
            evaluate(np.ones((4, 2)), splits, graph)


class TestEvaluateInputs:
    @pytest.fixture
    def case(self):
        part = Partition(2, 3)
        train = [(0, 2), (1, 3)]
        return make_splits(part, train, test=[(0, 3), (1, 4)]), \
            build_graph(train, partition=part)

    def test_rejects_extra_rows(self, case):
        # extra rows would otherwise be ranked as items
        splits, graph = case
        with pytest.raises(ValueError, match="X must .* one row per node"):
            evaluate(np.ones((7, 2)), splits, graph)

    def test_rejects_missing_rows(self, case):
        splits, graph = case
        with pytest.raises(ValueError, match="X must .* one row per node"):
            evaluate(np.ones((4, 2)), splits, graph)

    def test_rejects_one_dimensional_x(self, case):
        splits, graph = case
        with pytest.raises(ValueError, match="X must be a 2-d array"):
            evaluate(np.ones(5), splits, graph)

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_cutoff_below_one(self, case, k):
        splits, graph = case
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(np.ones((5, 2)), splits, graph, k=k)


@st.composite
def ranking_case(draw):
    """A small bipartite split, embeddings, a cutoff and a users-per-block.

    Embeddings are Gaussian, rounded to integers or all zero (heavy ties at
    the cutoff), with optional nan/+-inf entries.  Some users get every item
    as a training edge, held-out edges notwithstanding, so they have no
    candidate left.
    """
    num_users = draw(st.integers(1, 6))
    num_items = draw(st.integers(1, 8))
    part = Partition(num_users, num_items)
    cells = [(u, num_users + i) for u in range(num_users)
             for i in range(num_items)]
    labels = draw(st.lists(st.sampled_from("-tvs"), min_size=len(cells),
                           max_size=len(cells)))
    edges = {label: [c for c, l in zip(cells, labels) if l == label]
             for label in "tvs"}
    for user in draw(st.sets(st.integers(0, num_users - 1), max_size=2)):
        edges["t"] += [(user, num_users + i) for i in range(num_items)]
    split = draw(st.sampled_from(["val", "test"]))
    held = edges["v" if split == "val" else "s"]
    if not held:
        held.append(cells[draw(st.integers(0, len(cells) - 1))])
    splits = make_splits(part, sorted(set(edges["t"])), val=edges["v"],
                         test=edges["s"])
    graph = build_graph(edges["t"], partition=part)

    dim = draw(st.integers(1, 4))
    X = np.random.default_rng(draw(st.integers(0, 2**16))).normal(
        size=(part.num_nodes, dim))
    kind = draw(st.sampled_from(["gaussian", "rounded", "zeros"]))
    if kind == "rounded":
        X = np.round(X)
    elif kind == "zeros":
        X[:] = 0.0
    for row, col, value in draw(st.lists(st.tuples(
            st.integers(0, part.num_nodes - 1), st.integers(0, dim - 1),
            st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3)):
        X[row, col] = value
    k = draw(st.integers(1, num_items + 2))
    per_block = draw(st.sampled_from([1, 2, 3, None]))
    return X, splits, graph, k, split, per_block


class TestEvaluateMatchesOracle:
    @given(ranking_case())
    def test_bit_identical_to_scalar_oracle(self, case):
        X, splits, graph, k, split, per_block = case
        budget = (ranking._BLOCK_BYTES if per_block is None
                  else per_block * 8 * splits.partition.num_items)
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(ranking, "_BLOCK_BYTES", budget):
            got = evaluate(X, splits, graph, k=k, split=split)
            expected = evaluate_scalar(X, splits, graph, k=k, split=split)
        assert dataclasses.astuple(got) == expected

    def test_many_blocks_on_random_embeddings(self):
        # 40 users split over blocks of three, with near-ties from rounding
        rng = np.random.default_rng(5)
        part = Partition(40, 30)
        cells = [(u, 40 + i) for u in range(40) for i in range(30)]
        labels = rng.choice(4, size=len(cells), p=[0.6, 0.25, 0.05, 0.1])
        train = [c for c, l in zip(cells, labels) if l == 1]
        splits = make_splits(part, train,
                             val=[c for c, l in zip(cells, labels) if l == 2],
                             test=[c for c, l in zip(cells, labels) if l == 3])
        graph = build_graph(train, partition=part)
        X = np.round(rng.normal(size=(70, 3)), 1)
        with mock.patch.object(ranking, "_BLOCK_BYTES", 3 * 8 * 30):
            for k in (1, 5, 30, 50):
                for split in ("val", "test"):
                    assert dataclasses.astuple(
                        evaluate(X, splits, graph, k=k, split=split)) == \
                        evaluate_scalar(X, splits, graph, k=k, split=split)


class TestMeanResult:
    def test_averages_fields(self):
        a = EvalResult(k=5, precision=0.2, recall=0.4, ndcg=0.5,
                       users_evaluated=10, users_skipped=0)
        b = EvalResult(k=5, precision=0.4, recall=0.2, ndcg=0.7,
                       users_evaluated=12, users_skipped=2)
        mean = mean_result([a, b])
        assert mean.precision == pytest.approx(0.3)
        assert mean.recall == pytest.approx(0.3)
        assert mean.ndcg == pytest.approx(0.6)
        assert mean.k == 5

    def test_rejects_mixed_cutoffs(self):
        a = EvalResult(k=5, precision=0, recall=0, ndcg=0,
                       users_evaluated=1, users_skipped=0)
        b = EvalResult(k=10, precision=0, recall=0, ndcg=0,
                       users_evaluated=1, users_skipped=0)
        with pytest.raises(ValueError, match="cutoffs"):
            mean_result([a, b])
