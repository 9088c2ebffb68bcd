import dataclasses
import inspect
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, counted_rankers, ranked_list_split
from linkprop import ranking
from linkprop.data_io import graph_from_split, load_edge_list, split_dataset
from linkprop.graphs import Partition, build_graph
from linkprop.negatives import sample_negatives
from linkprop.ranking import (EvalResult, Ranker, SplitSet, evaluate,
                              mean_result, top_k)
from reference import evaluate_scalar
from linkprop.synthetic import block_bipartite
from linkprop.training import TrainConfig, train


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


def metrics_of(ranked, relevant, k, num_items=20):
    """(precision, recall, ndcg) that `evaluate` gives the ranked list."""
    X, splits, graph = ranked_list_split(ranked, relevant, num_items)
    result = evaluate(X, splits, graph, k=k)
    return result.precision, result.recall, result.ndcg


class TestMetricsAtK:
    """Precision, recall and NDCG at k of one user's ranked list, through
    `evaluate` on a split that ranks the user's candidates in list order
    (`reference.metrics_scalar` is the oracle, see test_reference.py)."""

    def test_single_hit_at_top(self):
        p, r, n = metrics_of(range(20), [0], k=20)
        assert (p, r, n) == (0.05, 1.0, 1.0)

    def test_single_hit_at_second_place(self):
        _, _, n = metrics_of(range(20), [1], k=20)
        assert n == pytest.approx(1.0 / np.log2(3.0))

    def test_no_hits(self):
        # the test items are training items: masked, never ranked
        p, r, n = metrics_of([5, 6, 7], [0, 1], k=3)
        assert (p, r, n) == (0.0, 0.0, 0.0)

    def test_short_list_still_divides_by_k(self):
        # one candidate against a cutoff of 10
        p, r, _ = metrics_of([0], [0], k=10)
        assert p == 0.1
        assert r == 1.0

    def test_ideal_truncates_at_test_size(self):
        # two of three test items in the top 2: idcg uses ranks 1..2 only
        p, r, n = metrics_of([0, 1], [0, 1, 9], k=2)
        assert n == 1.0
        assert r == pytest.approx(2.0 / 3.0)

    def test_empty_test_set(self):
        # a user with no test items is skipped, not scored zero, and a
        # split with none at all has no metrics
        part = Partition(2, 3)
        splits = make_splits(part, [(0, 2)], test=[(1, 3)])
        graph = build_graph([(0, 2)], partition=part)
        X = np.array([[1.0], [1.0], [0.0], [2.0], [0.0]])
        result = evaluate(X, splits, graph, k=1)
        assert (result.users_evaluated, result.users_skipped) == (1, 1)
        assert (result.precision, result.recall, result.ndcg) == (1.0,) * 3
        empty = make_splits(part, [(0, 2)])
        with pytest.raises(ValueError, match="no users have test edges"):
            evaluate(X, empty, graph, k=1)

    def test_perfect_prefix_is_unit_ndcg(self):
        _, _, n = metrics_of([3, 1, 4, 2], [3, 1], k=4)
        assert n == 1.0

    @given(st.integers(0, 2**16), st.integers(1, 15))
    def test_property_counting_identity(self, seed, k):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(20)
        relevant = rng.choice(20, size=rng.integers(1, 6), replace=False)
        p, r, n = metrics_of(ranked, relevant, k)
        hits = len(set(ranked[:k].tolist()) & set(relevant.tolist()))
        assert p * k == pytest.approx(hits)
        assert r * len(relevant) == pytest.approx(hits)
        assert 0.0 <= n <= 1.0 + 1e-12


class TestScoreUser:
    """How `evaluate` scores a user's candidates: training items masked,
    items offset by a bipartite partition."""

    def test_masks_train_interactions(self):
        # all scores tie, so only the mask keeps items 0 and 1 (trained)
        # from ranking ahead of item 2
        part = Partition(2, 3)
        train = [(0, 2), (0, 3), (1, 4)]
        splits = make_splits(part, train, test=[(0, 4)])
        graph = build_graph(train, partition=part)
        result = evaluate(np.ones((5, 2)), splits, graph, k=1)
        assert (result.precision, result.recall, result.ndcg) == (1.0,) * 3

    def test_needs_partition(self):
        # checked when the Ranker is built, before any embedding is seen
        splits = make_splits(Partition(1, 1), [], test=[(0, 1)])
        graph = build_graph([(0, 1)], num_nodes=2)
        with pytest.raises(ValueError, match="partition"):
            Ranker(splits, graph, 1, "test")


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
            evaluate(np.ones((4, 2)), splits, graph, k=20, split="train")

    def test_no_evaluable_users(self):
        part = Partition(2, 2)
        splits = make_splits(part, [(0, 2), (1, 3)])
        graph = build_graph([(0, 2), (1, 3)], partition=part)
        with pytest.raises(ValueError, match="no users"):
            evaluate(np.ones((4, 2)), splits, graph, k=20)

    def test_needs_partition(self):
        part = Partition(2, 2)
        splits = make_splits(part, [(0, 2)], test=[(1, 3)])
        graph = build_graph([(0, 2)], num_nodes=4)
        with pytest.raises(ValueError, match="partition"):
            evaluate(np.ones((4, 2)), splits, graph, k=20)


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
            evaluate(np.ones((7, 2)), splits, graph, k=20)

    def test_rejects_missing_rows(self, case):
        splits, graph = case
        with pytest.raises(ValueError, match="X must .* one row per node"):
            evaluate(np.ones((4, 2)), splits, graph, k=20)

    def test_rejects_one_dimensional_x(self, case):
        splits, graph = case
        with pytest.raises(ValueError, match="X must be a 2-d array"):
            evaluate(np.ones(5), splits, graph, k=20)

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_cutoff_below_one(self, case, k):
        splits, graph = case
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(np.ones((5, 2)), splits, graph, k=k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.float64(2.0)])
    def test_rejects_non_integer_cutoff(self, case, k):
        # not a TypeError from inside np.partition
        splits, graph = case
        with pytest.raises(ValueError, match="k must be an integer"):
            evaluate(np.ones((5, 2)), splits, graph, k=k)

    def test_accepts_numpy_integer_cutoff(self, case):
        splits, graph = case
        X = np.arange(10.0).reshape(5, 2)
        assert evaluate(X, splits, graph, k=np.int32(2)) == \
            evaluate(X, splits, graph, k=2)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_])
    def test_rejects_non_float_embeddings(self, case, dtype):
        # a training item is set to -inf, which no integer score holds, and
        # bool products are no scores at all
        splits, graph = case
        X = np.ones((5, 2), dtype=dtype)
        message = (f"X must have a real floating-point dtype, got "
                   f"{np.dtype(dtype)}")
        with pytest.raises(ValueError, match=message):
            evaluate(X, splits, graph, k=20)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_ranks_float_embeddings(self, case, dtype):
        splits, graph = case
        X = (np.arange(10.0).reshape(5, 2) * [1.0, -0.5]).astype(dtype)
        result = evaluate(X, splits, graph, k=2)
        assert dataclasses.astuple(result) == evaluate_scalar(X, splits,
                                                              graph, k=2)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="longdouble is float64 here")
    @pytest.mark.parametrize("held, hit", [(1, False), (2, True)])
    def test_longdouble_scores_apart_below_float64_resolution(self, held,
                                                              hit):
        # item 1 beats item 0 by 2^-60, which rounds away in float64: the
        # ranks compare the scores in their own dtype, as the oracle does
        part = Partition(1, 2)
        X = np.ones((3, 1), dtype=np.longdouble)
        X[2, 0] += np.longdouble(2) ** -60
        splits = make_splits(part, [], test=[(0, held)])
        graph = build_graph([], partition=part)
        expected = evaluate_scalar(X, splits, graph, k=1)
        assert expected[2] == float(hit)
        assert dataclasses.astuple(evaluate(X, splits, graph, k=1)) == expected
        assert Ranker(splits, graph, 1, "test").recall(X) == expected[2]


@st.composite
def ranking_case(draw):
    """A small bipartite split, embeddings, a cutoff and a users-per-block.

    Embeddings are Gaussian, rounded to integers or all zero (heavy ties at
    the cutoff), some items duplicated, moved one float64 ulp or less than
    one float32 ulp, the whole matrix scaled by 1e150, 1e19 (scores past
    float32's range), 1e-160, 1e-46 (below float32's smallest subnormal)
    or into the float64 subnormals, some rows zeroed, optional nan/+-inf
    entries, entries at float32's largest value / 8 or just above its
    largest value, and whole item rows of nan or +-inf.  At 17 or 40
    dimensions the block product and the per-user product differ in the
    last bits for most entries.  Some users get every item as a
    training edge, held-out edges notwithstanding, so they have no
    candidate left.  Up to 40 items with a cutoff of 1 or 2 give `_ranks`
    column groups of two or more columns and a ragged tail.
    """
    num_users = draw(st.integers(1, 6))
    num_items = draw(st.one_of(st.integers(1, 10), st.integers(11, 40)))
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

    dim = draw(st.sampled_from([1, 2, 3, 4, 17, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(part.num_nodes, dim))
    kind = draw(st.sampled_from(["gaussian", "rounded", "zeros"]))
    if kind == "rounded":
        X = np.round(X)
    elif kind == "zeros":
        X[:] = 0.0
    item = st.integers(num_users, part.num_nodes - 1)
    twin = st.sampled_from(["copy", "ulp", "below float32 ulp"])
    for src, dst, how in draw(st.lists(st.tuples(item, item, twin),
                                       max_size=4)):
        X[dst] = {"copy": X[src], "ulp": np.nextafter(X[src], np.inf),
                  "below float32 ulp": X[src] * (1 + 2.0 ** -30)}[how]
    X *= draw(st.sampled_from([1.0, 1e150, 1e19, 1e-160, 1e-46, 1e-315]))
    for row in draw(st.sets(st.integers(0, part.num_nodes - 1), max_size=2)):
        X[row] = 0.0
    f32_max = float(np.finfo(np.float32).max)
    for row, col, value in draw(st.lists(st.tuples(
            st.integers(0, part.num_nodes - 1), st.integers(0, dim - 1),
            st.sampled_from([np.nan, np.inf, -np.inf, f32_max / 8,
                             f32_max * 1.01])), max_size=3)):
        X[row, col] = value
    for row, value in draw(st.lists(st.tuples(
            item, st.sampled_from([np.nan, np.inf, -np.inf])), max_size=1)):
        X[row] = value
    k = draw(st.one_of(st.integers(1, num_items + 2), st.integers(1, 2)))
    per_block = draw(st.sampled_from([1, 2, 3, None]))
    return X, splits, graph, k, split, per_block


class TestEvaluateMatchesOracle:
    @settings(max_examples=300)
    @given(ranking_case())
    def test_bit_identical_to_scalar_oracle(self, case):
        X, splits, graph, k, split, per_block = case
        # per_block users of float32 scores (and no more of float64)
        budget = (ranking._BLOCK_BYTES if per_block is None
                  else per_block * 4 * splits.partition.num_items)
        # evaluate itself must not warn about non-finite scores
        with warnings.catch_warnings(), \
                mock.patch.object(ranking, "_BLOCK_BYTES", budget):
            warnings.simplefilter("error", RuntimeWarning)
            got = evaluate(X, splits, graph, k=k, split=split)
        with np.errstate(invalid="ignore", over="ignore"):
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
        with mock.patch.object(ranking, "_BLOCK_BYTES", 3 * 4 * 30):
            for k in (1, 5, 30, 50):
                for split in ("val", "test"):
                    assert dataclasses.astuple(
                        evaluate(X, splits, graph, k=k, split=split)) == \
                        evaluate_scalar(X, splits, graph, k=k, split=split)

    def test_items_one_ulp_from_a_twin(self):
        # every held-out item has a twin one ulp away; at 40 dimensions the
        # block product and the per-user product may order a pair
        # differently, so only the margin keeps the block ranks exact
        rng = np.random.default_rng(0)
        part = Partition(4, 12)
        X = rng.normal(size=(16, 40))
        X[5::2] = np.nextafter(X[4::2], np.inf)
        splits = make_splits(part, [], test=[(u, 4 + i) for u in range(4)
                                             for i in range(0, 12, 2)])
        graph = build_graph([], partition=part)
        for k in (1, 3, 6):
            assert dataclasses.astuple(evaluate(X, splits, graph, k=k)) == \
                evaluate_scalar(X, splits, graph, k=k)

    def test_more_held_out_items_than_k_over_three_user_blocks(self):
        # every user holds about 12 test items against k = 5; rounded
        # embeddings tie many scores, so certified misses, exact ranks and
        # the per-user fallback all run
        rng = np.random.default_rng(11)
        part = Partition(30, 40)
        cells = [(u, 30 + i) for u in range(30) for i in range(40)]
        labels = rng.choice(3, size=len(cells), p=[0.5, 0.2, 0.3])
        train = [c for c, l in zip(cells, labels) if l == 1]
        splits = make_splits(part, train,
                             test=[c for c, l in zip(cells, labels) if l == 2])
        graph = build_graph(train, partition=part)
        X = np.round(rng.normal(size=(70, 4)), 1)
        calls = []
        real = ranking._ranks

        def spy(S, rows, cols, bound, cut, *mode):
            rank, sure = real(S, rows, cols, bound, cut, *mode)
            scale, _, offset = bound
            calls.append((bool(scale.any() or offset.any()), rank.copy(),
                          sure.copy()))
            return rank, sure

        with mock.patch.object(ranking, "_BLOCK_BYTES", 3 * 4 * 40), \
                mock.patch.object(ranking, "_ranks", spy):
            got = evaluate(X, splits, graph, k=5)
        assert dataclasses.astuple(got) == evaluate_scalar(X, splits, graph,
                                                           k=5)
        first = [c for c in calls if c[0]]
        rank, sure = (np.concatenate([c[i] for c in first]) for i in (1, 2))
        assert np.any(sure & (rank >= 5))  # certified misses
        assert np.any(sure & (rank < 5))  # exact ranks from the block GEMM
        assert not sure.all()
        assert any(not c[0] for c in calls)  # the per-user fallback ran


def flat_bound(S, margin):
    """A `_ranks` bound that gives every pair of row r the margin
    margin[r]: half of it on each item, none from the item norms."""
    half = np.array(margin, dtype=float) / 2
    return np.zeros_like(half), np.zeros(np.shape(S)[1]), half


def ranks(S, held, margin, cut, hits_only=False):
    """`ranking._ranks` of the (row, column) pairs `held` of the rows S,
    every pair of row r within margin[r] unsure."""
    S = np.array(S, dtype=float)
    rows, cols = np.array(held).T
    return ranking._ranks(S, rows, cols, flat_bound(S, margin), cut,
                          hits_only)


class TestCertification:
    def test_exact_tie_inside_the_margin_is_unsure(self):
        # another rounding may put either of two equal scores first, both
        # among the row's two best (row 0) or one of them below (row 1)
        rows = [[3.0, 1.0, 3.0, 0.0], [4.0, 2.0, 2.0, 0.0]]
        held = [(0, 2), (1, 1), (1, 2)]
        _, sure = ranks(rows, held, [1e-12, 1e-12], 2)
        assert list(sure) == [False] * 3
        # at margin 0 the ties are real and the lower column ranks first
        rank, sure = ranks(rows, held, [0.0, 0.0], 2)
        assert sure.all()
        assert list(rank[:2]) == [1, 1] and rank[2] >= 2

    def test_well_separated_item_gets_its_exact_rank(self):
        rank, sure = ranks([[1.0, 3.0, 2.0, 0.0]], [(0, 2), (0, 1), (0, 0)],
                           [0.1], 2)
        assert list(sure) == [True, True, True]
        assert list(rank[:2]) == [1, 0]
        assert rank[2] >= 2  # the two best beat it by more than the margin

    def test_near_tie_below_the_bound_is_rejected(self):
        _, sure = ranks([[1.0, np.nextafter(1.0, 0.0), 0.0]], [(0, 1)],
                        [2e-15], 2)
        assert list(sure) == [False]

    def test_gap_must_exceed_twice_the_bound_strictly(self):
        # the cut-th best score, 2.0, lies exactly one margin above the item
        row = [[2.0, 1.0, 0.0]]
        rank, sure = ranks(row, [(0, 1)], [0.998], 1)
        assert list(sure) == [True] and rank[0] >= 1
        _, sure = ranks(row, [(0, 1)], [1.0], 1)
        assert list(sure) == [False]

    def test_gaps_to_masked_scores_do_not_count(self):
        rank, sure = ranks([[-np.inf, 1.0, -np.inf, -np.inf]],
                           [(0, 1), (0, 2)], [0.1], 3)
        assert list(sure) == [True, True]
        assert rank[0] == 0 and rank[1] >= 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bound_certifies_nothing(self, bad):
        # a lone finite score, a masked one and a well-separated row
        _, sure = ranks([[-np.inf, 1.0, -np.inf], [3.0, 2.0, 1.0]],
                        [(0, 1), (0, 0), (1, 0), (1, 2)], [bad, bad], 2)
        assert list(sure) == [False] * 4

    def test_rows_are_judged_separately(self):
        rank, sure = ranks([[3.0, 2.0, 1.0], [3.0, 3.0, 1.0]],
                           [(0, 1), (1, 1)], [0.1, 0.1], 2)
        assert list(sure) == [True, False]
        assert rank[0] == 1

    def test_equal_scores_rank_by_ascending_column_at_margin_zero(self):
        row = [1.0, 2.0, 1.0, 1.0, -np.inf]
        rank, sure = ranks([row], [(0, c) for c in range(5)], [0.0], 3)
        assert sure.all()
        assert list(rank[:3]) == [1, 0, 2]
        assert rank[3] >= 3 and rank[4] >= 3
        assert list(top_k(np.array(row), 3)) == [1, 0, 2]

    def test_cut_th_score_sharing_a_group_with_a_better_one(self):
        # 40 columns, cut 2: 16 groups, column j in group j % 16.  The best
        # score (column 3) and the second (column 19) share group 3, so the
        # second-best group maximum is only the third score of the row
        row = np.linspace(0.0, 1.0, 40)[::-1].copy()
        row[[3, 19, 4]] = [10.0, 9.0, 8.0]
        held = [(0, 19), (0, 4), (0, 3), (0, 39)]
        for margin in (0.0, 0.5):
            rank, sure = ranks([row], held, [margin], 2)
            assert sure.all()
            assert list(rank[:3]) == [1, 2, 0] and rank[3] >= 2
        assert list(top_k(row, 2)) == [3, 19]

    def test_whole_group_masked(self):
        # cut 1 over 20 columns: 8 groups, and group 5 (columns 5 and 13)
        # masked; group 2 takes the tail column 18
        row = np.arange(20.0)
        row[[5, 13]] = -np.inf
        held = [(0, 19), (0, 18), (0, 5), (0, 13), (0, 12)]
        rank, sure = ranks([row], held, [0.0], 1)
        assert sure.all()
        assert rank[0] == 0 and np.all(rank[1:] >= 1)
        # cut 2 over 40 columns: 16 groups, and every finite score in group
        # 1 (columns 1, 17 and the tail column 33).  One finite maximum is
        # fewer than the cut, so every held-out item is counted
        row = np.full(40, -np.inf)
        row[[1, 17, 33]] = [1.0, 3.0, 2.0]
        rank, sure = ranks([row], [(0, 1), (0, 17), (0, 33), (0, 0)],
                           [0.1], 2)
        assert sure.all()
        assert list(rank[1:3]) == [0, 1] and rank[0] >= 2 and rank[3] >= 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_only_in_the_tail(self, bad):
        # cut 1 over 20 columns: 8 groups of two, the tail columns 16..19
        # folded into groups 0..3.  The bad score is never ranked, and
        # must not hide the best finite one (column 2)
        row = np.linspace(0.0, 1.0, 20)
        row[2] = 5.0
        row[17] = bad
        S = np.array([row])
        rows, cols = np.array([[0, 2], [0, 17], [0, 19]]).T
        for margin in (0.0, 0.1):
            rank, sure = ranking._ranks(S, rows, cols,
                                        flat_bound(S, [margin]), 1)
            assert sure.all()
            assert rank[0] == 0 and np.all(rank[1:] >= 1)
            # cleared in place: the fallback re-ranks the same rows
            assert S[0, 17] == -np.inf and np.isfinite(np.delete(S, 17)).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_error_bound_covers_gamma_d(self, dtype):
        # float64 input: a float32 product of casts (gamma_{d+2}) against
        # the float64 GEMV (gamma_d); float32 input: two float32 products.
        # Both bounds are doubled, per item
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(4, 32)).astype(dtype)
        items = rng.normal(size=(50, 32)).astype(dtype)

        def gamma(n, dtype):
            u = float(np.finfo(dtype).eps) / 2
            return n * u / (1 - n * u)

        if dtype == np.float64:
            total = gamma(34, np.float32) + gamma(32, np.float64)
        else:
            total = 2 * gamma(32, np.float32)
        floor = 2 * total * np.outer(np.linalg.norm(Y.astype(float), axis=1),
                                     np.linalg.norm(items.astype(float),
                                                    axis=1))
        block, scale, norms, offset = ranking._score_error(Y, items)
        assert block == np.float32
        err = np.outer(scale, norms) + offset[:, None]
        # the norms may round an ulp apart
        assert np.all(err >= floor * (1 - 1e-12))
        assert np.all(err < floor * (1 + 1e-6))

    def test_error_bound_is_inf_where_scores_may_overflow(self):
        items = np.array([[1.3e154, 0.0], [0.0, 1.0], [1.0, 1.0]])
        # norms ~1e154 are finite, but their product is within 8x of overflow
        Y = np.array([[1e150, 0.0], [1.3e154, 0.0], [np.nan, 0.0],
                      [np.inf, 0.0], [1e200, 0.0]])
        block, _, _, offset = ranking._score_error(Y, items)
        assert block == np.float64
        assert np.isfinite(offset[0])
        assert np.all(np.isinf(offset[1:]))
        # an item row that is not finite is never ranked: it leaves the
        # other users' bounds finite and has no norm of its own
        items[1, 0] = np.nan
        _, scale, norms, offset = ranking._score_error(Y[:1], items)
        assert np.isfinite(scale[0]) and np.isfinite(offset[0])
        assert norms[1] == 0 and np.all(norms[[0, 2]] > 0)

    def test_non_float_dtype_is_never_certified(self):
        _, _, _, offset = ranking._score_error(
            np.ones((2, 3), dtype=np.int64), np.ones((4, 3), dtype=np.int64))
        assert np.all(np.isinf(offset))

    def test_zero_user_rows_have_bound_zero(self):
        Y = np.array([[0.0, -0.0], [1.0, 0.0], [1e-320, 0.0]])
        items = np.array([[1.0, 2.0], [np.inf, 0.0], [3e38, 1.0]])
        _, scale, _, offset = ranking._score_error(Y, items)
        assert scale[0] == 0 and offset[0] == 0
        assert np.all(offset[1:] > 0)

    @pytest.mark.parametrize("entry, other", [
        (float(np.finfo(np.float32).max) * 1.01, 1e-2),  # casts to inf
        (1e20, 1e20),  # castable, but the products overflow float32
        (float(np.finfo(np.float32).max) / 8, 1.0),
    ])
    def test_float32_range_guards_the_float32_block(self, entry, other):
        # the huge item ranks first in float64, so a float32 block that
        # scored it inf, nan or -inf would move the held-out item up
        part = Partition(1, 3)
        X = np.array([[other, other], [entry, 0.0], [1.0, 1.0], [0.5, 0.0]])
        splits = make_splits(part, [], test=[(0, 2)])
        graph = build_graph([], partition=part)
        assert ranking._score_error(X[:1], X[1:])[0] == np.float64
        assert dataclasses.astuple(evaluate(X, splits, graph, k=1)) == \
            evaluate_scalar(X, splits, graph, k=1) == \
            (1, 0.0, 0.0, 0.0, 1, 0)
        assert ranking._score_error(X[:1], X[2:])[0] == np.float32

    def test_bound_includes_the_held_out_items_own_norm(self):
        # item 0 has a norm near 17460 and a score near 0.58 by
        # cancellation, so its float32 score is off by about 2e-4; item 1
        # has a small norm and a score between the two.  Only the bound of
        # item 0 covers the gap; without it the block ranks item 0 second
        part = Partition(1, 2)
        x0 = np.array([12346.1789, -12345.6])
        b0 = float(np.float32(x0[0]) + np.float32(x0[1]))
        p0 = float(x0[0] + x0[1])
        assert b0 - p0 > 1e-4
        X = np.array([[1.0, 1.0], x0, [(b0 + p0) / 2, 0.0]])
        splits = make_splits(part, [], test=[(0, 1)])
        graph = build_graph([], partition=part)
        assert ranking._score_error(X[:1], X[1:])[0] == np.float32
        assert dataclasses.astuple(evaluate(X, splits, graph, k=1)) == \
            evaluate_scalar(X, splits, graph, k=1) == (1, 0.0, 0.0, 0.0, 1, 0)

    def test_gaussian_embeddings_take_the_block_product(self):
        # the fast path must not quietly fall back on ordinary embeddings
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(64, 32))
        items = rng.normal(size=(500, 32))
        best = np.argsort(-(Y @ items.T), axis=1, kind="stable")
        block, scale, norms, offset = ranking._score_error(Y, items)
        S = Y.astype(block) @ items.astype(block).T
        rows = np.repeat(np.arange(64), 4)
        cols = np.concatenate([best[:, [0, 7, 19]],
                               rng.integers(0, 500, (64, 1))], axis=1).ravel()
        rank, sure = ranking._ranks(S, rows, cols, (scale, norms, offset), 20)
        assert sure.all()
        assert list(rank.reshape(64, 4)[:, :3].ravel()) == [0, 7, 19] * 64


class TestBlocks:
    @pytest.mark.parametrize("rows_per_block", [0, 1, 3, 7])
    def test_rows_once_in_order_within_the_budget_and_masked(
            self, rows_per_block):
        # 7 rows of 5 scores: a budget below one row and of one row give a
        # row per block, 3 rows leave a short last block, 7 one block
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(7, 3)).astype(np.float32)
        items = rng.normal(size=(5, 3)).astype(np.float32)
        train = rng.random((7, 5)) < 0.3
        rows, cols = np.nonzero(train)
        start = np.searchsorted(rows, np.arange(8))
        row_bytes = 5 * Y.dtype.itemsize
        budget = max(1, rows_per_block * row_bytes)
        blocks, buffers = [], set()
        with mock.patch.object(ranking, "_BLOCK_BYTES", budget):
            for lo, hi, S in ranking._blocks(Y, items, rows * 5 + cols,
                                             start):
                assert S.nbytes <= max(budget, row_bytes)
                assert S.dtype == np.float32
                masked = train[lo:hi]
                assert np.array_equal(S == -np.inf, masked)
                assert np.allclose(S[~masked], (Y[lo:hi] @ items.T)[~masked],
                                   rtol=1e-6, atol=0)
                blocks.append((lo, hi))
                buffers.add(S.__array_interface__["data"][0])
        assert [r for lo, hi in blocks for r in range(lo, hi)] == \
            list(range(7))
        assert len(blocks) == -(-7 // max(1, rows_per_block))
        assert len(buffers) == 1

    def test_no_rows_no_block(self):
        Y = np.empty((0, 3), dtype=np.float32)
        items = np.ones((5, 3), dtype=np.float32)
        assert list(ranking._blocks(Y, items, np.empty(0, dtype=int),
                                    np.zeros(1, dtype=int))) == []


def fallback_users(X, splits, graph, **kwargs):
    """`evaluate`'s result, and how many users it scored again one GEMV
    each because the block left one of their items unsure."""
    real = ranking._ranks
    unsure = []

    def spy(S, rows, cols, bound, cut, *mode):
        rank, sure = real(S, rows, cols, bound, cut, *mode)
        unsure.append(np.unique(rows[~sure]).shape[0])
        return rank, sure

    with mock.patch.object(ranking, "_ranks", spy):
        result = evaluate(X, splits, graph, **kwargs)
    return dataclasses.astuple(result), sum(unsure)


class TestFallback:
    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(7)
        part = Partition(60, 300)
        cells = [(u, 60 + i) for u in range(60) for i in range(300)]
        labels = rng.choice(3, size=len(cells), p=[0.9, 0.07, 0.03])
        train = [c for c, l in zip(cells, labels) if l == 1]
        splits = make_splits(part, train,
                             test=[c for c, l in zip(cells, labels) if l == 2])
        return rng.normal(size=(360, 32)), splits, \
            build_graph(train, partition=part)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_item_row_keeps_the_block_product(self, case, bad):
        X, splits, graph = case
        X[100] = bad
        X[200, 3] = bad
        X[5] = np.nan  # one user's own embedding is bad
        result, fell_back = fallback_users(X, splits, graph, k=20)
        with np.errstate(invalid="ignore"):
            assert result == evaluate_scalar(X, splits, graph, k=20)
        assert fell_back == 1

    def test_zero_users_are_ranked_from_the_block(self, case):
        X, splits, graph = case
        X[:30] = 0.0
        for Z in (X, np.zeros_like(X)):
            result, fell_back = fallback_users(Z, splits, graph, k=20)
            assert result == evaluate_scalar(Z, splits, graph, k=20)
            assert fell_back == 0

    @pytest.mark.parametrize("scale, block", [
        (1e-30, np.float64), (1e-8, np.float32), (1.0, np.float32),
        (1e30, np.float64)])
    def test_gaussian_embeddings_do_not_fall_back(self, case, scale, block):
        # at 1e-30 and 1e30 float32 scores would underflow or overflow
        X, splits, graph = case
        first_item = splits.partition.num_users
        assert ranking._score_error(X[:first_item] * scale,
                                    X[first_item:] * scale)[0] == block
        result, fell_back = fallback_users(X * scale, splits, graph, k=20)
        assert result == evaluate_scalar(X * scale, splits, graph, k=20)
        assert fell_back == 0


def counted_items(fn):
    """fn()'s result, and how many held-out items `_ranks` left to the
    count over the whole row (`_count_ranks`)."""
    real = ranking._count_ranks
    counted = []

    def spy(S, rows, cols, t, own, bound, cut, near, rank, sure):
        counted.append(near.shape[0])
        return real(S, rows, cols, t, own, bound, cut, near, rank, sure)

    with mock.patch.object(ranking, "_count_ranks", spy):
        return fn(), sum(counted)


def assert_matches_oracle(X, splits, graph, k, split="test"):
    """evaluate, a Ranker built for the same split and the scalar oracle
    agree bit for bit."""
    got = evaluate(X, splits, graph, k=k, split=split)
    assert Ranker(splits, graph, k, split)(X) == got
    with np.errstate(invalid="ignore", over="ignore"):
        expected = evaluate_scalar(X, splits, graph, k=k, split=split)
    assert dataclasses.astuple(got) == expected


class TestTopCutRank:
    """Near items ranked over the row's `cut` best scores, where each row
    is its own column groups and the row has a (cut+1)-th best score."""

    def test_gap_to_the_next_score_must_exceed_the_margin(self):
        # the (cut+1)-th best score, 2.0, lies exactly one margin below the
        # item: another rounding may tie them, so the item is unsure
        row = [[3.0, 2.0, 1.0, 0.0]]
        _, sure = ranks(row, [(0, 0)], [1.0], 1)
        assert list(sure) == [False]
        # one ulp less margin: the item is first under any rounding, and
        # the top cut alone settles it
        (rank, sure), counted = counted_items(
            lambda: ranks(row, [(0, 0)], [np.nextafter(1.0, 0.0)], 1))
        assert list(sure) == [True] and rank[0] == 0
        assert counted == 0

    def test_cut_th_best_item_is_settled_by_the_top_cut(self):
        # the item is the cut-th best; the (cut+1)-th best score, not the
        # cut-th, is the one every score outside the top cut lies below
        row = [[5.0, 4.0, 3.0, 1.0, 0.0]]
        (rank, sure), counted = counted_items(
            lambda: ranks(row, [(0, 2), (0, 1)], [0.5], 3))
        assert list(sure) == [True, True] and list(rank) == [2, 1]
        assert counted == 0

    def test_item_level_with_the_next_score_is_counted(self):
        # the item ties the (cut+1)-th best score: not clear of it, so the
        # whole row is counted, and the lower column ranks first
        row = [[5.0, 3.0, 0.0, 3.0]]
        for margin, sure_flag in ((0.0, True), (0.5, False)):
            (rank, sure), counted = counted_items(
                lambda: ranks(row, [(0, 3), (0, 1)], [margin], 2))
            assert list(sure) == [sure_flag] * 2 and counted == 2
            if sure_flag:
                assert rank[0] >= 2 and rank[1] == 1

    def test_equal_scores_at_margin_zero_rank_by_column(self):
        # margin 0 (a user row of zeros): the top cut holds both 2.0s but
        # not their columns, so the tie is counted over the row
        (rank, sure), counted = counted_items(
            lambda: ranks([[2.0, 2.0, 1.0, 0.0]], [(0, 1), (0, 0)], [0.0], 2))
        assert sure.all() and list(rank) == [1, 0]
        assert counted == 2

    def test_no_next_score_when_the_cut_spans_the_row(self):
        # k >= width: every score is in the top cut, each item is counted
        row = [[3.0, 1.0, 2.0]]
        (rank, sure), counted = counted_items(
            lambda: ranks(row, [(0, 0), (0, 1), (0, 2)], [0.1], 3))
        assert sure.all() and list(rank) == [0, 2, 1]
        assert counted == 3

    @pytest.mark.parametrize("width, top_cut", [
        (2 * ranking._GROUPS * 2 - 1, True), (2 * ranking._GROUPS * 2, False)])
    def test_both_sides_of_the_group_count(self, width, top_cut):
        # at cut 2, 31 columns are 31 groups (the top cut ranks), and 32
        # columns fold into 16 groups of two (every near item is counted)
        assert (ranking._group_count(width, 2) == width) == top_cut
        rng = np.random.default_rng(width)
        part = Partition(12, width)
        cells = [(u, 12 + i) for u in range(12) for i in range(width)]
        labels = rng.choice(3, size=len(cells), p=[0.6, 0.2, 0.2])
        train = [c for c, l in zip(cells, labels) if l == 1]
        splits = make_splits(part, train,
                             test=[c for c, l in zip(cells, labels) if l == 2])
        graph = build_graph(train, partition=part)
        X = rng.normal(size=(part.num_nodes, 40))
        _, counted = counted_items(lambda: evaluate(X, splits, graph, k=2))
        assert (counted == 0) == top_cut
        for Z in (X, np.round(X), X.astype(np.float32)):
            for k in (1, 2, 3, width - 1, width, width + 3):
                assert_matches_oracle(Z, splits, graph, k)

    @pytest.mark.parametrize("dim", [1, 40])
    def test_items_at_and_one_ulp_from_the_next_score(self, dim):
        # each user's cut-th and (cut+1)-th best items (cut 3) score 6.0
        # and 6.0, 6.0 and one float64 ulp above or below, which one
        # float32 score cannot tell apart; either of the two is held out
        base = np.array([9.0, 8.0, 6.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
        twins = [6.0, np.nextafter(6.0, np.inf), np.nextafter(6.0, 0.0)]
        part = Partition(2 * len(twins), base.shape[0])
        items = np.tile(base, (part.num_users, 1))
        held = []
        for u in range(part.num_users):
            items[u, 3] = twins[u // 2]
            held.append((u, part.num_users + 2 + u % 2))
        # one user-specific item axis per user: user u scores items[u]
        X = np.zeros((part.num_nodes, part.num_users))
        X[:part.num_users] = np.eye(part.num_users)
        X[part.num_users:] = items.T
        if dim > 1:
            Q, _ = np.linalg.qr(np.random.default_rng(0).normal(
                size=(dim, dim)))
            X = np.pad(X, ((0, 0), (0, dim - X.shape[1]))) @ Q
        splits = make_splits(part, [], test=held)
        graph = build_graph([], partition=part)
        for k in (2, 3, 4, 10):
            assert_matches_oracle(X, splits, graph, k)

    def test_zero_user_rows_rank_ties_by_column(self):
        # zero users score exact zeros at margin 0; with 9 of 12 items in
        # training fewer than cut + 1 candidates are left, so the (cut+1)-th
        # score is -inf and only the column order ranks the held-out items
        rng = np.random.default_rng(4)
        part = Partition(6, 12)
        train, test = [], []
        for u in range(6):
            order = 6 + rng.permutation(12)
            train += [(u, int(i)) for i in order[:9 - u]]
            test += [(u, int(i)) for i in order[9 - u:11 - u]]
        splits = make_splits(part, train, test=test)
        graph = build_graph(train, partition=part)
        X = rng.normal(size=(18, 4))
        X[:4] = 0.0
        for k in (1, 2, 5, 12):
            assert_matches_oracle(X, splits, graph, k)

    def test_bench_500_validation_ranks_from_the_top_cut(self):
        # 200 items at cut 20: trained mf embeddings leave no held-out
        # item of the validation split to the whole-row count
        graph = load_edge_list(DATA_DIR + "/bench_500.tsv")
        splits = split_dataset(graph.to_graph(), (0.8, 0.1, 0.1), 0)
        train_graph = graph_from_split(splits)
        config = TrainConfig("mf", alpha=0.05, dim=32, max_epochs=20)
        X = train(train_graph, sample_negatives(train_graph, seed=0),
                  config).embeddings
        plan = Ranker(splits, train_graph, 20, "val")
        result, counted = counted_items(lambda: plan(X))
        assert counted == 0 and result.recall > 0
        assert dataclasses.astuple(result) == evaluate_scalar(
            X, splits, train_graph, k=20, split="val")


def probe_ranker(num_users, num_items, train, test, k):
    """A Ranker of the test split over a Partition(num_users, num_items),
    its train graph and split."""
    part = Partition(num_users, num_items)
    train = [(u, num_users + i) for u, i in train]
    splits = make_splits(part, train,
                         test=[(u, num_users + i) for u, i in test])
    graph = build_graph(train, partition=part)
    return Ranker(splits, graph, k, "test"), splits, graph


def unproven(plan, X, bound=None):
    """`plan`'s probe on X: the positions of the users it leaves to the
    full product, under X's own rounding bound or `bound`."""
    X = np.asarray(X, dtype=float)
    items = X[plan.first_item:]
    Y = X[plan.users]
    dtype, scale, norms, offset = ranking._score_error(Y, items)
    if bound is None:
        bound = scale, norms, offset
    with np.errstate(invalid="ignore", over="ignore"):
        return list(plan._unproven(Y.astype(dtype), items.astype(dtype),
                                   bound))


def one_axis(item_scores):
    """Embeddings whose score of user u and item i is item_scores[u][i]:
    user u is the u-th unit vector, item i holds its scores."""
    scores = np.asarray(item_scores, dtype=float)
    num_users = scores.shape[0]
    return np.concatenate([np.eye(num_users), scores.T])


@st.composite
def wide_ranking_case(draw):
    """A split over 128 to 600 items at a cutoff of 1 to 3, where the
    probe engages unless 4 * _PROBE * k exceeds the items (about four
    cases in five), and embeddings to rank it with.

    Items are trained with a skewed popularity, so the probe holds most
    training edges; held-out items come from the popular items and from
    all items, inside and outside the probe.  Embeddings are Gaussian,
    rounded (ties) or all zero, some users aligned with one of their
    held-out items (hits near the cut), some held-out items copies or
    one-ulp twins of probe items, some user rows zero, optional nan/+-inf
    entries and whole item rows, scaled to 1e150 or 1e-160, and float32
    or float64.
    """
    num_users = draw(st.integers(1, 8))
    num_items = draw(st.integers(128, 600))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    popularity = rng.permutation(1.0 / (1.0 + np.arange(num_items)))
    popularity /= popularity.sum()
    popular = np.argsort(-popularity, kind="stable")[:ranking._PROBE * k]
    train, held = set(), set()
    for u in range(num_users):
        count = int(rng.integers(0, 40))
        train |= {(u, int(i)) for i in rng.choice(num_items, count,
                                                  replace=False, p=popularity)}
        for pool in (popular, np.arange(num_items)):
            held |= {(u, int(i)) for i in rng.choice(
                pool, int(rng.integers(0, 3)), replace=False)}
    held -= train
    if not held:
        held.add((0, int(rng.integers(0, num_items))))
    split = draw(st.sampled_from(["val", "test"]))
    part = Partition(num_users, num_items)
    nodes = lambda pairs: sorted((u, num_users + i) for u, i in pairs)
    splits = make_splits(part, nodes(train),
                         **{split: nodes(held)})
    graph = build_graph(nodes(train), partition=part)

    dim = draw(st.sampled_from([2, 4, 17, 32]))
    X = rng.normal(size=(part.num_nodes, dim))
    kind = draw(st.sampled_from(["gaussian", "rounded", "zeros"]))
    if kind == "rounded":
        X = np.round(X)
    elif kind == "zeros":
        X[:] = 0.0
    held = sorted(held)
    for u, i in draw(st.lists(st.sampled_from(held), max_size=3)):
        X[u] = 3.0 * X[num_users + i]
    twin = st.sampled_from(["copy", "ulp"])
    for (u, i), j, how in draw(st.lists(st.tuples(
            st.sampled_from(held), st.sampled_from(list(popular)), twin),
            max_size=3)):
        X[num_users + i] = (X[num_users + j] if how == "copy" else
                            np.nextafter(X[num_users + j], np.inf))
    for row in draw(st.sets(st.integers(0, num_users - 1), max_size=2)):
        X[row] = 0.0
    for row, col, value in draw(st.lists(st.tuples(
            st.integers(0, part.num_nodes - 1), st.integers(0, dim - 1),
            st.sampled_from([np.nan, np.inf, -np.inf])), max_size=2)):
        X[row, col] = value
    for item, value in draw(st.lists(st.tuples(
            st.sampled_from(list(popular)),
            st.sampled_from([np.nan, np.inf, -np.inf])), max_size=2)):
        X[num_users + item] = value
    if draw(st.booleans()):
        X = X.astype(np.float32)
    else:
        X *= draw(st.sampled_from([1.0, 1e150, 1e-160]))
    per_block = draw(st.sampled_from([1, 3, None]))
    return X, splits, graph, k, split, per_block



class TestProbe:
    """Held-out items proven misses against the cut-th best score of the
    most-trained items, before the full block product."""

    def test_probe_is_the_most_trained_items_in_column_order(self):
        # items 7, 3 and 5 have two training edges each (ties to the lower
        # id), then one each in ascending id: the first 20 make the probe
        train = ([(0, 7), (1, 7), (0, 3), (1, 3), (2, 5), (3, 5)]
                 + [(u, i) for u, i in zip(range(4), range(10, 90))]
                 + [(4, i) for i in range(90, 120)])
        plan, _, _ = probe_ranker(5, 120, train, [(0, 0)], 1)
        expected = sorted([3, 5, 7] + list(range(10, 14)) + list(range(
            90, 103)))
        assert list(plan.probe) == expected

    @pytest.mark.parametrize("k, engaged", [(1, True), (2, True),
                                            (3, False), (20, False)])
    def test_probe_engages_where_it_is_a_quarter_of_the_items(self, k,
                                                              engaged):
        # 200 items: a probe of 20 * cut items engages up to cut 2, so
        # bench_500 (200 items at cut 20) keeps the full product alone
        plan, _, _ = probe_ranker(2, 200, [(0, 1)], [(1, 2)], k)
        assert (plan.probe is not None) == engaged
        assert (4 * ranking._PROBE * k <= 200) == engaged

    def test_gap_must_exceed_the_margin_strictly(self):
        # user 0's best probe score is 4.0, its held-out item scores 3.0:
        # a margin of exactly 1.0 may swap them, one ulp less may not
        scores = np.full((1, 100), -1.0)
        scores[0, 0], scores[0, 50] = 4.0, 3.0
        plan, _, _ = probe_ranker(1, 100, [(0, 99)], [(0, 50)], 1)
        assert 0 in plan.probe and 50 not in plan.probe
        X = one_axis(scores)
        zero = np.zeros(100)
        for margin, left in ((1.0, [0]), (np.nextafter(1.0, 0.0), [])):
            bound = (np.zeros(1), zero, np.array([margin / 2]))
            assert unproven(plan, X, bound) == left
        assert unproven(plan, X) == []  # X's own bound is far below 1.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_margin_proves_nothing(self, bad):
        scores = np.full((2, 100), -1.0)
        scores[:, 0] = 4.0
        plan, _, _ = probe_ranker(2, 100, [(0, 99)], [(0, 50), (1, 50)], 1)
        X = one_axis(scores)
        offset = np.array([bad, 0.0])
        bound = (np.zeros(2), np.zeros(100), offset)
        assert unproven(plan, X, bound) == [0]

    def test_training_items_in_the_probe_do_not_count(self):
        # user 0 scores its training items highest; among the rest its
        # held-out item is first, a hit
        scores = np.full((1, 100), -1.0)
        scores[0, :20] = 5.0
        scores[0, 60] = 2.0
        train = [(0, i) for i in range(20)]
        plan, splits, graph = probe_ranker(1, 100, train, [(0, 60)], 1)
        assert set(range(20)) <= set(plan.probe)
        X = one_axis(scores)
        assert unproven(plan, X) == [0]
        assert_matches_oracle(X, splits, graph, 1)
        assert evaluate(X, splits, graph, k=1).recall == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probe_scores_do_not_count(self, bad):
        # at cut 2 one probe item scores nan or +-inf for every user: the
        # held-out item, second best of the finite scores, is a hit
        scores = np.full((2, 200), -1.0)
        scores[0, 0], scores[0, 150] = 5.0, 2.0
        train = [(1, i) for i in range(40)]
        plan, splits, graph = probe_ranker(2, 200, train, [(0, 150)], 2)
        assert {0, 1} <= set(plan.probe)
        X = one_axis(scores)
        X[2 + 1] = (bad, 0.0)  # item 1, in the probe: user 0 scores it bad
        assert unproven(plan, X) == [0]
        assert_matches_oracle(X, splits, graph, 2)
        assert evaluate(X, splits, graph, k=2).recall == 1.0

    def test_held_out_item_in_the_probe_is_never_proven_by_itself(self):
        # the held-out item is the probe's cut-th best score
        scores = np.full((1, 100), -1.0)
        scores[0, 3] = 2.0
        plan, splits, graph = probe_ranker(1, 100, [], [(0, 3)], 1)
        assert 3 in plan.probe
        X = one_axis(scores)
        assert unproven(plan, X) == [0]
        assert_matches_oracle(X, splits, graph, 1)

    def test_float32_rounding_that_swaps_two_scores_is_not_a_proof(self):
        # user (1, 1): probe item 0 scores 6 + 0.51 u and the held-out item
        # 6 + 0.59 u (u the float32 ulp at 6), so the held-out item ranks
        # first; cast to float32 they score 6 + u and 6: only the margin
        # keeps the probe from proving the held-out item a miss
        u = 2.0 ** -21
        X = np.full((1 + 100, 2), -1.0)
        X[0] = (1.0, 1.0)
        X[1 + 0] = (6 + 0.51 * u, 0.0)
        X[1 + 60] = (6 + 0.49 * u, 0.1 * u)
        plan, splits, graph = probe_ranker(1, 100, [], [(0, 60)], 1)
        items = X[1:]
        assert ranking._score_error(X[:1], items)[0] == np.float32
        f32 = items.astype(np.float32) @ X[0].astype(np.float32)
        assert f32[0] > f32[60] and items[60] @ X[0] > items[0] @ X[0]
        assert unproven(plan, X) == [0]
        assert_matches_oracle(X, splits, graph, 1)
        assert evaluate(X, splits, graph, k=1).recall == 1.0

    def test_zero_user_rows_rank_by_column(self):
        # every score of a zero row is exactly 0, ranked by column: item 0
        # is first, item 99 a miss, and the probe proves neither
        plan, splits, graph = probe_ranker(2, 100, [(1, i) for i in range(
            30)], [(0, 0), (0, 99)], 1)
        X = np.random.default_rng(0).normal(size=(102, 4))
        X[0] = 0.0
        assert unproven(plan, X) == [0]
        assert_matches_oracle(X, splits, graph, 1)
        assert evaluate(X, splits, graph, k=1).recall == 0.5

    @settings(max_examples=150)
    @given(wide_ranking_case())
    def test_bit_identical_to_scalar_oracle(self, case):
        X, splits, graph, k, split, per_block = case
        assert Ranker(splits, graph, k, split).probe is not None or \
            4 * ranking._PROBE * k > splits.partition.num_items
        budget = (ranking._BLOCK_BYTES if per_block is None
                  else per_block * 4 * splits.partition.num_items)
        with warnings.catch_warnings(), \
                mock.patch.object(ranking, "_BLOCK_BYTES", budget):
            warnings.simplefilter("error", RuntimeWarning)
            got = evaluate(X, splits, graph, k=k, split=split)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = evaluate_scalar(X, splits, graph, k=k, split=split)
        assert dataclasses.astuple(got) == expected

    def test_one_plan_over_a_sequence_of_wide_embeddings(self):
        graph = block_bipartite(40, 300, 4, mean_degree=8, seed=3)
        splits = split_dataset(graph, (0.6, 0.2, 0.2), 3)
        train_graph = graph_from_split(splits)
        negatives = sample_negatives(train_graph, seed=3)
        sequence = [train(train_graph, negatives, TrainConfig(
            "mf", alpha=0.5, dim=8, max_epochs=epochs)).embeddings
            for epochs in (1, 4, 10)]
        rng = np.random.default_rng(3)
        gaussian = rng.normal(size=(train_graph.num_nodes, 8))
        injected = gaussian.copy()
        injected[[3, 60, 200], [0, 4, 7]] = [np.nan, np.inf, -np.inf]
        sequence += [gaussian, np.round(gaussian), injected,
                     gaussian.astype(np.float32), sequence[0]]
        for split in ("val", "test"):
            for k in (1, 2, 3):
                plan = Ranker(splits, train_graph, k, split)
                assert plan.probe is not None
                for X in sequence:
                    got = plan(X)
                    assert got == evaluate(X, splits, train_graph, k=k,
                                           split=split)
                    with np.errstate(invalid="ignore"):
                        assert dataclasses.astuple(got) == evaluate_scalar(
                            X, splits, train_graph, k=k, split=split)

    def test_proven_full_path_and_fallback_users_on_a_block_graph(self):
        # trained lightgcn on a planted-block graph at cut 5 (a probe of
        # 100 of about 1000 items): most users are proven, the rest take
        # the block product, and a user with a nan embedding entry (no
        # finite margin) and one whose held-out item has a twin score
        # take the per-user GEMV
        graph = block_bipartite(200, 1000, 8, mean_degree=20, seed=0)
        splits = split_dataset(graph, (0.8, 0.1, 0.1), 0)
        train_graph = graph_from_split(splits)
        config = TrainConfig("lightgcn", alpha=0.05, dim=32, max_epochs=5)
        X = train(train_graph, sample_negatives(train_graph, seed=0),
                  config).embeddings
        plan = Ranker(splits, train_graph, 5, "test")
        assert plan.probe is not None
        first_item = splits.partition.num_users
        user, item = splits.test[0]
        X[user, 3] = np.nan
        user, item = splits.test[-1]
        trained = set(train_graph.neighbors(user))
        twin = next(first_item + j for j in plan.probe
                    if first_item + j not in trained | {item})
        X[item] = X[twin]
        X[user] = 2.0 * X[item]
        left, blocks, fallback = [], [], []
        real_unproven, real_ranks = Ranker._unproven, ranking._ranks

        def spy_unproven(self, *args):
            keep = real_unproven(self, *args)
            left.append(keep.shape[0])
            return keep

        def spy_ranks(S, rows, cols, bound, cut, *mode):
            rank, sure = real_ranks(S, rows, cols, bound, cut, *mode)
            scale, _, offset = bound
            if scale.any() or np.any(offset):
                blocks.append(np.unique(rows).shape[0])
            else:
                fallback.append(S.shape[0])
            return rank, sure

        with mock.patch.object(Ranker, "_unproven", spy_unproven), \
                mock.patch.object(ranking, "_ranks", spy_ranks):
            got = plan(X)
        assert dataclasses.astuple(got) == evaluate_scalar(
            X, splits, train_graph, k=5)
        evaluated = plan.users.shape[0]
        assert 0 < left[0] < evaluated // 2  # most users proven
        assert sum(blocks) + sum(fallback) >= left[0] > 0
        assert sum(fallback) >= 2


class TestRecall:
    """`Ranker.recall`: the full call's recall from hit status alone."""

    def test_crowded_item_clear_of_the_next_score_is_a_sure_hit(self):
        # 5.0 and 4.9999 lie within the margin of each other, so the block
        # cannot order them, but both clear the (cut+1)-th best score 1.0
        # by more than the margin: each is a hit under any rounding
        row, held = [[5.0, 4.9999, 1.0, 0.0]], [(0, 0), (0, 1)]
        _, sure = ranks(row, held, [1e-3], 2)
        assert not sure.any()
        (rank, sure), counted = counted_items(
            lambda: ranks(row, held, [1e-3], 2, hits_only=True))
        assert sure.all() and (rank < 2).all() and counted == 0

    def test_clear_tie_at_margin_zero_is_a_hit_without_a_count(self):
        # a zero user row (margin 0): the tie at 3.0 needs the whole-row
        # count for its rank, not for its hit
        row, held = [[3.0, 3.0, 1.0, 0.0]], [(0, 1), (0, 0)]
        (rank, sure), counted = counted_items(
            lambda: ranks(row, held, [0.0], 2))
        assert sure.all() and list(rank) == [1, 0] and counted == 2
        (rank, sure), counted = counted_items(
            lambda: ranks(row, held, [0.0], 2, hits_only=True))
        assert sure.all() and (rank < 2).all() and counted == 0

    def test_item_level_with_the_next_score_is_counted(self):
        # not clear of the (cut+1)-th best score: counted as before, and
        # the equal score in the lower column puts the item at the cut
        (rank, sure), counted = counted_items(lambda: ranks(
            [[3.0, 2.0, 2.0, 0.0]], [(0, 2)], [0.0], 2, hits_only=True))
        assert sure.all() and list(rank) == [2] and counted == 1

    @settings(max_examples=300)
    @given(st.one_of(ranking_case(), wide_ranking_case()),
           st.sampled_from([1, 2, 5, 20, 400]), st.booleans(), st.booleans())
    def test_bit_identical_to_the_full_call(self, case, k, single, probe):
        # k = 400 makes the cut span every row; rows are their own column
        # groups or fold into 8 * cut; the probe engages on wide cases at
        # small k unless switched off
        X, splits, graph, _, split, per_block = case
        if single:
            with np.errstate(over="ignore"):
                X = X.astype(np.float32)
        budget = (ranking._BLOCK_BYTES if per_block is None
                  else per_block * 4 * splits.partition.num_items)
        with warnings.catch_warnings(), \
                mock.patch.object(ranking, "_BLOCK_BYTES", budget):
            warnings.simplefilter("error", RuntimeWarning)
            plan = Ranker(splits, graph, k, split)
            if not probe:
                plan.probe = None
            got, full = plan.recall(X), plan(X)
        assert type(got) is float and repr(got) == repr(full.recall)
        with np.errstate(invalid="ignore", over="ignore"):
            assert got == evaluate_scalar(X, splits, graph, k=k,
                                          split=split)[2]

    def test_trained_wide_and_narrow_rows(self):
        # 1000 items: at k = 5 the probe engages, at 1, 2, 5 and 20 rows
        # fold into 8 * cut groups, at 400 each column is its own group
        # with a (cut+1)-th best; bench_500's 200 items are their own
        # groups at k >= 7 and spanned by the cut at 400
        cases = [block_bipartite(100, 1000, 4, mean_degree=12, seed=3),
                 load_edge_list(DATA_DIR + "/bench_500.tsv").to_graph()]
        for graph in cases:
            splits = split_dataset(graph, (0.8, 0.1, 0.1), 0)
            train_graph = graph_from_split(splits)
            negatives = sample_negatives(train_graph, seed=0)
            for epochs in (1, 15):
                X = train(train_graph, negatives, TrainConfig(
                    "lightgcn", alpha=0.05, dim=16, max_epochs=epochs)
                    ).embeddings
                for k in (1, 2, 5, 20, 400):
                    plan = Ranker(splits, train_graph, k, "val")
                    assert repr(plan.recall(X)) == repr(plan(X).recall)


class TestRanker:
    def test_k_and_split_have_no_default(self):
        params = inspect.signature(Ranker).parameters
        assert all(params[name].default is inspect.Parameter.empty
                   for name in ("k", "split"))

    @pytest.mark.parametrize("split_part, graph_part", [
        (Partition(30, 40), Partition(35, 35)),
        (Partition(35, 35), Partition(30, 40))])
    def test_rejects_a_train_graph_of_another_partition(self, split_part,
                                                        graph_part):
        # the same 70 nodes: items would be offset by one partition and
        # held-out items mapped by the other
        splits = make_splits(split_part, [(0, 40)], val=[(1, 50)],
                             test=[(2, 60)])
        graph = build_graph([(0, 40)], partition=graph_part)
        message = re.escape(f"train_graph has {graph_part}, but the split "
                            f"has {split_part}")
        with pytest.raises(ValueError, match=message):
            evaluate(np.ones((70, 2)), splits, graph, k=20)
        with pytest.raises(ValueError, match=message):
            Ranker(splits, graph, 20, "val")

    def test_one_plan_over_a_sequence_of_embeddings(self):
        # a training trajectory, then Gaussian, rounded and nan-injected
        # embeddings, each ranked by one plan per (k, split)
        graph = block_bipartite(40, 60, 4, mean_degree=8, seed=1)
        splits = split_dataset(graph, (0.6, 0.2, 0.2), 1)
        train_graph = graph_from_split(splits)
        negatives = sample_negatives(train_graph, seed=1)
        sequence = [train(train_graph, negatives, TrainConfig(
            "mf", alpha=0.5, dim=8, max_epochs=epochs)).embeddings
            for epochs in (1, 3, 6)]
        rng = np.random.default_rng(2)
        gaussian = rng.normal(size=(100, 8))
        injected = gaussian.copy()
        injected[[3, 50, 77], [0, 4, 7]] = [np.nan, np.inf, -np.inf]
        sequence += [gaussian, np.round(gaussian), injected, sequence[0]]
        for split in ("val", "test"):
            for k in (1, 5, 20):
                plan = Ranker(splits, train_graph, k, split)
                for X in sequence:
                    got = plan(X)
                    assert got == evaluate(X, splits, train_graph, k=k,
                                           split=split)
                    with np.errstate(invalid="ignore"):
                        assert dataclasses.astuple(got) == evaluate_scalar(
                            X, splits, train_graph, k=k, split=split)


class TestSplitSetEdges:
    """A split set keeps edges no caller can write into."""

    def test_writing_the_callers_array_leaves_the_ranking(self):
        # users 0 and 1, items 2..4; both users score item 4 highest
        part = Partition(2, 3)
        test = np.array([[0, 3], [1, 4]])
        splits = SplitSet(partition=part, train=np.array([[0, 2], [1, 2]]),
                          val=np.empty((0, 2), dtype=np.int64), test=test,
                          ratios=(0.8, 0.1, 0.1), seed=0)
        train_graph = graph_from_split(splits)
        X = np.array([[1.0], [1.0], [0.0], [0.5], [2.0]])
        first = evaluate(X, splits, train_graph, k=1)
        assert first.recall == 0.5
        test[0, 1] = 4  # user 0's test item would now rank first
        again = evaluate(X, splits, train_graph, k=1)
        assert again == first == Ranker(splits, train_graph, 1, "test")(X)
        assert test.flags.writeable
        assert splits.test.tolist() == [[0, 3], [1, 4]]
        with pytest.raises(ValueError, match="read-only"):
            splits.test[0, 1] = 4

    def test_read_only_arrays_are_kept_as_given(self):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        splits = split_dataset(graph, (0.6, 0.2, 0.2))
        again = dataclasses.replace(splits)
        for part in ("train", "val", "test"):
            assert getattr(again, part) is getattr(splits, part)


class TestSharedRanker:
    """`ranker`: one Ranker per training graph, split set, k and split."""

    @pytest.fixture
    def instance(self):
        # 200 items: the probe engages at k = 2 (40 items) but not at 5
        graph = block_bipartite(30, 200, 4, mean_degree=12, seed=1)
        splits = split_dataset(graph, (0.6, 0.2, 0.2), 1)
        return splits, graph_from_split(splits)

    def test_one_per_graph_split_set_k_and_split(self, instance):
        splits, train_graph = instance
        built = []
        other_splits = dataclasses.replace(splits)
        other_graph = graph_from_split(splits)
        asks = [(splits, train_graph, 2, "val"),
                (splits, train_graph, 5, "val"),
                (splits, train_graph, 2, "test"),
                (other_splits, train_graph, 2, "val"),
                (splits, other_graph, 2, "val")]
        with mock.patch("linkprop.ranking.Ranker", counted_rankers(built)):
            first = [ranking.ranker(*ask) for ask in asks]
            assert built == [ask[2:] for ask in asks]
            for ask, plan in zip(asks, first):
                assert ranking.ranker(*ask) is plan
            assert ranking.ranker(splits, train_graph, np.int64(2),
                                  "val") is first[0]
        assert len(built) == len(asks)
        assert len({id(plan) for plan in first}) == len(asks)

    @pytest.mark.parametrize("k, split, message", [
        (0, "val", "k must be >= 1, got 0"),
        (True, "val", "k must be an integer, got True"),
        (1.0, "val", "k must be an integer, got 1.0"),
        (1.5, "val", "k must be an integer, got 1.5"),
        (1, "train", "split must be 'test' or 'val'")])
    def test_bad_arguments_raise_after_a_k1_ranker_is_cached(
            self, instance, k, split, message):
        splits, train_graph = instance
        X = np.ones((train_graph.num_nodes, 2))
        for cached in ("val", "test"):
            ranking.ranker(splits, train_graph, 1, cached)
        for call in (lambda: ranking.ranker(splits, train_graph, k, split),
                     lambda: evaluate(X, splits, train_graph, k=k,
                                      split=split),
                     lambda: Ranker(splits, train_graph, k, split)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("k", [2, 5])
    def test_cached_state_is_read_only(self, instance, k):
        splits, train_graph = instance
        plan = ranking.ranker(splits, train_graph, k, "test")
        names = ["users", "discount", "test_counts", "ideal"]
        if k == 2:
            names += ["probe", "probe_flat", "probe_start"]
        else:
            assert plan.probe is None
        for array in [getattr(plan, name) for name in names] + list(plan.rows):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array

    def test_repeated_calls_match_a_fresh_ranker_and_the_oracle(self,
                                                                instance):
        splits, train_graph = instance
        rng = np.random.default_rng(4)
        gaussian = rng.normal(size=(train_graph.num_nodes, 8))
        injected = gaussian.copy()
        injected[[3, 50, 177], [0, 4, 7]] = [np.nan, np.inf, -np.inf]
        sequence = [gaussian, np.round(gaussian), injected,
                    rng.normal(size=gaussian.shape), gaussian]
        for split in ("val", "test"):
            for k in (2, 5):
                for X in sequence:
                    got = ranking.ranker(splits, train_graph, k, split)(X)
                    fresh = Ranker(splits, train_graph, k, split)
                    assert got == fresh(X) == evaluate(
                        X, splits, train_graph, k=k, split=split)
                    assert repr(ranking.ranker(
                        splits, train_graph, k, split).recall(X)) == \
                        repr(fresh.recall(X))
                    with np.errstate(invalid="ignore"):
                        assert dataclasses.astuple(got) == evaluate_scalar(
                            X, splits, train_graph, k=k, split=split)


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

    def test_rejects_no_results(self):
        with pytest.raises(ValueError, match="no results to average"):
            mean_result([])
