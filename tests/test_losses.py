import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from linkprop import losses
from linkprop.graphs import MAX_PROXIMITY_ORDER, build_graph, normalize
from linkprop.losses import (MODELS, DivergenceError, ModelParams, build_masks,
                             bce_loss, gd_step, loss_gradient, mask_set,
                             model_loss, sigmoid)
from linkprop.synthetic import equivalence_instance

from conftest import graph_with_negatives, negatives_from_pairs, random_graph_instance

ALL_MODELS = [ModelParams("mf"), ModelParams("line"),
              ModelParams("deepwalk", window=3), ModelParams("lightgcn", layers=2)]

ORACLE_MODELS = ALL_MODELS + [ModelParams("deepwalk", window=1),
                              ModelParams("deepwalk", window=5),
                              ModelParams("lightgcn", layers=0),
                              ModelParams("lightgcn", layers=5)]

def loss_of(X, graph, neg, params):
    """model_loss at X on the masks `build_masks` gives the instance."""
    return model_loss(X, build_masks(graph, neg, params), params)


def gradient_of(X, graph, neg, params):
    """loss_gradient at X on the masks `build_masks` gives the instance."""
    return loss_gradient(X, build_masks(graph, neg, params), params)


# wrong rows of losses.model_table that the oracle must catch
TABLE_MUTANTS = {
    "deepwalk-a2-b2-swapped": ("deepwalk", lambda r: r._replace(a2=r.b2, b2=r.a2)),
    "deepwalk-neg-norm-none": ("deepwalk", lambda r: r._replace(neg_norm="none")),
    "line-c3-flipped": ("line", lambda r: r._replace(c3=1.0 - r.c3)),
}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# nan of both signs, infinities, the edge of exp's float64 range (exp(-745)
# is the smallest subnormal, exp(-746) is 0), subnormals and signed zeros
SPECIAL_SCORES = [np.nan, -np.nan, np.inf, -np.inf, 745.0, -745.0, 745.2,
                  -745.2, 709.8, -709.8, 36.8, -36.8, 5e-324, -5e-324,
                  2.2250738585072014e-308 / 3, -1e-310, 0.0, -0.0]

# the per-slot maps that training runs on owned scores only
SLOT_MAPS = {
    "sigmoid(z)": sigmoid,
    "sigmoid(-z)": lambda z: sigmoid(-z),
    "logaddexp(0, z)": lambda z: np.logaddexp(0.0, z),
    "logaddexp(0, -z)": lambda z: np.logaddexp(0.0, -z),
}


def check_masks_against_oracle(graph, negatives, params):
    """build_masks (the library's table and builder) against
    reference.dense_weights (each model spelled from its formula)."""
    masks = build_masks(graph, negatives, params)
    W_pos, W_neg, P = reference.dense_weights(graph, negatives, params)
    if P is None:
        P = np.eye(graph.num_nodes)
    for mine, theirs in ((masks.pos, W_pos), (masks.neg, W_neg),
                         (masks.prop.materialize(), P)):
        assert np.abs(mine.toarray() - theirs).max(initial=0.0) <= 1e-15


class TestMaskOracle:
    @pytest.mark.parametrize("params", ORACLE_MODELS,
                             ids=lambda p: f"{p.model}-{p.window}-{p.layers}")
    def test_library_masks_match_dense_weights(self, params):
        for seed in range(20):
            check_masks_against_oracle(*equivalence_instance(seed), params)

    @pytest.mark.parametrize("mutant", TABLE_MUTANTS)
    def test_wrong_table_entry_is_caught(self, mutant):
        model, edit = TABLE_MUTANTS[mutant]
        real = losses.model_table

        def mutated(window=5, layers=3):
            table = real(window, layers)
            return {**table, model: edit(table[model])}

        params = ModelParams(model, window=3)
        graph, negatives = equivalence_instance(0)
        check_masks_against_oracle(graph, negatives, params)
        with mock.patch.object(losses, "model_table", mutated):
            with pytest.raises((AssertionError, ValueError)):
                check_masks_against_oracle(graph, negatives, params)


def test_negatives_of_another_graph_rejected():
    # used to return a 10 x 10 positive and a 15 x 15 negative mask
    graph, _ = equivalence_instance(0)
    _, negatives = equivalence_instance(5)
    with pytest.raises(ValueError, match="negatives are drawn on 15 nodes, "
                                         "but the graph has 10"):
        build_masks(graph, negatives, ModelParams("line"))


def same_matrix(a, b):
    """Equal bit for bit, in the same stored order and index dtypes."""
    return all(same_bits(x, y) for x, y in ((a.data, b.data),
                                            (a.indices, b.indices),
                                            (a.indptr, b.indptr)))


class TestGraphMemo:
    """The pos_norm adjacency and the c3 = 1 positive mask are built once
    per graph and shared; the negative mask is built per call."""

    @settings(max_examples=30)
    @given(instance=graph_with_negatives(), model=st.sampled_from(MODELS),
           window=st.integers(1, 5), layers=st.integers(0, 4))
    def test_shared_and_equal_to_a_fresh_build(self, instance, model, window,
                                               layers):
        graph, negatives = instance
        params = ModelParams(model, window=window, layers=layers)
        k = params.constants
        first = mask_set(graph, negatives, params)
        second = mask_set(graph, negatives, params)
        base = normalize(graph, k.pos_norm)
        assert normalize(graph, k.pos_norm) is base
        assert first.prop.matrix is base and second.prop.matrix is base
        assert second.pos is first.pos
        if k.c3 != 0.0:
            assert second.neg is not first.neg
        fresh_graph = build_graph(graph.edges, num_nodes=graph.num_nodes)
        fresh = mask_set(fresh_graph, negatives, params)
        for mine, theirs in ((first.pos, fresh.pos), (first.neg, fresh.neg),
                             (base, normalize(fresh_graph, k.pos_norm))):
            assert same_matrix(mine, theirs)

    @settings(max_examples=20)
    @given(instance=graph_with_negatives(), window=st.integers(1, 5))
    def test_memo_is_read_only_without_duplicates(self, instance, window):
        graph, negatives = instance
        for model in MODELS:
            mask_set(graph, negatives, ModelParams(model, window=window))
        # the negatives the instance drew, two normalized adjacencies, and
        # line's and the window's walk mask; nothing built from the negatives
        matrices = {key: value for key, value in graph._memo.items()
                    if key[0] != "negatives"}
        assert all(value is negatives for key, value in graph._memo.items()
                   if key[0] == "negatives")
        assert set(matrices) == {
            ("normalize", "row"), ("normalize", "symmetric"),
            ("positive", "row", 1, 1), ("positive", "row", 1, window)}
        for matrix in (graph.adjacency, *matrices.values()):
            for array in (matrix.data, matrix.indices, matrix.indptr):
                assert not array.flags.writeable
            canonical = matrix.copy()
            canonical.sum_duplicates()
            assert canonical.nnz == matrix.nnz
            stored = matrix.indices.copy()
            if np.array_equal(canonical.indices, stored):
                matrix.sum_duplicates()  # canonical: scipy writes nothing
            else:
                with pytest.raises(ValueError, match="read-only"):
                    matrix.sum_duplicates()
            assert np.array_equal(matrix.indices, stored)

    def test_memo_freed_with_graph(self):
        graph, negatives = equivalence_instance(0)
        masks = mask_set(graph, negatives, ModelParams("deepwalk", window=3))
        kept = [weakref.ref(m) for m in graph._memo.values()]
        assert len(kept) == 3
        assert kept[0]() is negatives and kept[2]() is masks.pos
        owner = weakref.ref(graph)
        del graph, negatives, masks
        gc.collect()
        assert owner() is None
        assert all(m() is None for m in kept)


class TestModelLoss:
    def test_zero_embedding_closed_form(self, small_instance):
        # every touched pair scores 0, so each unit of weight costs log 2
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes, 4))
        params = ModelParams("mf", lam=1.0)
        expected = (graph.num_edges + neg.num_pairs) * math.log(2.0)
        assert loss_of(X, graph, neg, params) == pytest.approx(expected, rel=1e-14)

    def test_lambda_scales_negative_half(self, small_instance):
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes, 4))
        loss = loss_of(X, graph, neg, ModelParams("mf", lam=3.0))
        expected = (graph.num_edges + 3.0 * neg.num_pairs) * math.log(2.0)
        assert loss == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("params", ALL_MODELS, ids=lambda p: p.model)
    def test_matches_brute_force(self, small_instance, params):
        graph, neg = small_instance
        rng = np.random.default_rng(0)
        X = rng.normal(scale=0.5, size=(graph.num_nodes, 4))
        params = ModelParams(params.model, window=params.window,
                             layers=params.layers, lam=1.5, beta=0.2)
        W_pos, W_neg, P = reference.dense_weights(graph, neg, params)
        expected = reference.brute_force_loss(X, W_pos, W_neg, lam=params.lam,
                                              beta=params.beta, P=P)
        assert loss_of(X, graph, neg, params) == pytest.approx(expected, rel=1e-12)

    def test_penalty_on_raw_not_propagated(self, small_instance):
        # lightgcn's quadratic term must see X, not the propagated rows
        graph, neg = small_instance
        rng = np.random.default_rng(1)
        X = rng.normal(size=(graph.num_nodes, 3))
        with_pen = loss_of(X, graph, neg, ModelParams("lightgcn", layers=2, beta=2.0))
        without = loss_of(X, graph, neg, ModelParams("lightgcn", layers=2, beta=0.0))
        assert with_pen - without == pytest.approx(float(np.sum(X * X)), rel=1e-12)

    def test_lightgcn_zero_layers_is_mf_bitwise(self, small_instance):
        graph, neg = small_instance
        rng = np.random.default_rng(2)
        X = rng.normal(size=(graph.num_nodes, 4))
        mf = ModelParams("mf", beta=0.1)
        lgc = ModelParams("lightgcn", layers=0, beta=0.1)
        assert loss_of(X, graph, neg, lgc) == loss_of(X, graph, neg, mf)
        assert np.array_equal(gradient_of(X, graph, neg, lgc),
                              gradient_of(X, graph, neg, mf))

    def test_deepwalk_window_one_mask_equals_line(self, small_instance):
        graph, neg = small_instance
        dw = build_masks(graph, neg, ModelParams("deepwalk", window=1))
        ln = build_masks(graph, neg, ModelParams("line"))
        assert np.array_equal(dw.pos.toarray(), ln.pos.toarray())

    def test_saturated_scores_stay_finite(self):
        graph = build_graph([(0, 1), (1, 2)], num_nodes=3)
        neg = negatives_from_pairs([(0, 2)], 3)
        X = np.array([[30.0], [30.0], [-30.0]])
        loss = loss_of(X, graph, neg, ModelParams("mf"))
        assert math.isfinite(loss)
        # the (0,2) negative is maximally violated, so it dominates
        assert loss > 800.0

    @given(graph_with_negatives(), st.integers(0, 2**16))
    def test_property_nonnegative_finite(self, instance, xseed):
        graph, neg = instance
        rng = np.random.default_rng(xseed)
        X = rng.normal(size=(graph.num_nodes, 3))
        for params in ALL_MODELS:
            loss = loss_of(X, graph, neg, params)
            assert math.isfinite(loss)
            assert loss >= 0.0


class TestBceLoss:
    def test_shape_mismatch(self, small_instance):
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes + 1, 2))
        with pytest.raises(ValueError, match="match X rows"):
            bce_loss(X, graph.adjacency, neg.adjacency, lam=1.0, beta=0.0)

    def test_beta_term_only(self, small_instance):
        graph, neg = small_instance
        masks = build_masks(graph, neg, ModelParams("mf"))
        X = np.full((graph.num_nodes, 2), 2.0)
        base = bce_loss(X, masks.pos, masks.neg, lam=1.0, beta=0.0)
        assert bce_loss(X, masks.pos, masks.neg, lam=1.0,
                        beta=1.0) == pytest.approx(
            base + 0.5 * np.sum(X * X))


class TestLossGradient:
    @pytest.mark.parametrize("params", ALL_MODELS, ids=lambda p: p.model)
    def test_zero_embedding_zero_gradient(self, small_instance, params):
        graph, neg = small_instance
        X = np.zeros((graph.num_nodes, 4))
        grad = gradient_of(X, graph, neg, params)
        assert np.array_equal(grad, np.zeros_like(X))

    @pytest.mark.parametrize("model", ["line", "lightgcn"])
    def test_matches_finite_differences(self, small_instance, model):
        graph, neg = small_instance
        params = ModelParams(model, window=3, layers=2, lam=1.2, beta=0.05)
        masks = build_masks(graph, neg, params)
        rng = np.random.default_rng(3)
        X = rng.normal(scale=0.3, size=(graph.num_nodes, 3))
        exact = loss_gradient(X, masks, params)
        approx = reference.finite_difference_gradient(
            lambda Z: model_loss(Z, masks, params), X)
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
            assert loss_of(X, graph, neg, params) == pytest.approx(
                loss_of(X_perm, perm_graph, perm_neg, params), rel=1e-12)

    def test_descent_reduces_loss(self, small_instance):
        graph, neg = small_instance
        params = ModelParams("mf", lam=1.0, beta=0.01)
        masks = build_masks(graph, neg, params)
        rng = np.random.default_rng(5)
        X = rng.normal(scale=0.1, size=(graph.num_nodes, 4))
        prev = model_loss(X, masks, params)
        for step in range(20):
            X = gd_step(X, loss_gradient(X, masks, params),
                        alpha=1e-3, step=step)
            cur = model_loss(X, masks, params)
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

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_alpha_names_the_step_size(self, alpha):
        X = np.zeros((2, 2))
        with pytest.raises(ValueError, match=f"step size alpha must be "
                                             f"finite and nonnegative, got "
                                             f"{alpha}"):
            gd_step(X, X, alpha=alpha)

    def test_divergence_carries_step(self):
        X = np.zeros((2, 2))
        bad = np.full_like(X, np.inf)
        with pytest.raises(DivergenceError, match="step 7"):
            gd_step(X, bad, alpha=0.1, step=7)
        assert pytest.raises(DivergenceError, gd_step, X, bad, 0.1).value.step is None


class TestModelParams:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model must be one of"):
            ModelParams("svd")

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"layers": -1}, {"lam": -0.5}, {"beta": -1e-9},
        {"lam": float("nan")}, {"lam": float("inf")},
        {"beta": float("nan")}, {"beta": float("inf")},
        {"window": MAX_PROXIMITY_ORDER + 1}, {"layers": MAX_PROXIMITY_ORDER + 1}])
    def test_invalid_hyperparameters(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            ModelParams("mf", **kwargs)

    @pytest.mark.parametrize("model", losses.MODELS)
    @pytest.mark.parametrize("field, value, message", [
        ("window", 17, "window must be in 1..16, got 17"),
        ("layers", 17, "layers must be in 0..16, got 17"),
        ("window", 2.5, "window must be an integer, got 2.5"),
        ("layers", True, "layers must be an integer, got True")],
        ids=["window-17", "layers-17", "window-2.5", "layers-True"])
    def test_window_and_layers_checked_for_every_model(self, model, field,
                                                       value, message):
        # layers=17 used to pass here and fail inside proximity() without
        # naming the field; layers=True trained with one layer
        with pytest.raises(ValueError, match=message):
            ModelParams(model, **{field: value})

    def test_orders_at_the_maximum_allowed(self):
        params = ModelParams("deepwalk", window=MAX_PROXIMITY_ORDER,
                             layers=np.int64(MAX_PROXIMITY_ORDER))
        assert params.constants[4] == MAX_PROXIMITY_ORDER

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

    @settings(max_examples=300)
    @given(st.data(), st.sampled_from([np.float64, np.float32]),
           st.booleans())
    def test_bitwise_equal_to_the_masked_divide(self, data, dtype, zero_d):
        # the unmasked numerator max(e, z >= 0) against the masked divide,
        # on +-0, +-inf, nan of both signs, subnormals and the edges of
        # exp's range in either dtype, and on 0-d input
        info = np.finfo(dtype)
        width = info.bits
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                   float(info.smallest_subnormal), -float(info.tiny) / 3,
                   88.7, -88.7, 103.9, -103.9, 745.2, -745.2, 36.8, -16.6]
        value = st.one_of(st.floats(width=width),
                          st.floats(-50, 50, width=width),
                          st.sampled_from(special))
        if zero_d:
            z = np.array(data.draw(value), dtype=dtype)
        else:
            z = np.array(data.draw(st.lists(value, max_size=70)) + special,
                         dtype=dtype)
        got = sigmoid(z)
        assert got.dtype == dtype and got.shape == z.shape
        assert same_bits(got, reference.sigmoid_masked(z))

    @given(st.floats(-700, 700))
    def test_property_complement(self, z):
        a = sigmoid(np.array([z]))[0]
        b = sigmoid(np.array([-z]))[0]
        assert a + b == pytest.approx(1.0, abs=1e-15)

    @staticmethod
    def where_body(z):
        # sigmoid's body before it wrote its quotients in place
        z = np.asarray(z)
        e = np.exp(np.minimum(z, -z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    @given(st.lists(st.one_of(st.floats(), st.floats(-40, 40),
                              st.sampled_from(SPECIAL_SCORES)), max_size=70))
    def test_bitwise_equal_to_where_body(self, values):
        z = np.array(values + SPECIAL_SCORES, dtype=float)
        assert same_bits(sigmoid(z), self.where_body(z))

    @pytest.mark.parametrize("z", [
        np.array(2.0), np.array(-2.0), np.array(np.nan), np.float64(-0.0),
        3.5, np.empty(0), np.empty((0, 3)), np.array([[1.0, -1.0], [0.0, 9.0]]),
        np.array([3, -2, 0]), np.array([1.5, -0.25], dtype=np.float32)])
    def test_shapes_and_dtypes_as_the_where_body(self, z):
        got = sigmoid(z)
        assert isinstance(got, np.ndarray)
        assert same_bits(got, self.where_body(z))

    def test_never_writes_or_aliases_its_input(self):
        base = np.array([-3.0, 0.0, -0.0, 2.0, np.nan, np.inf, -np.inf, 1e-320])
        z = base.copy()
        z.flags.writeable = False  # a write into z would raise
        out = sigmoid(z)
        assert same_bits(z, base) and not np.shares_memory(out, z)
        view = base.copy()[1::2]
        out = sigmoid(view)
        assert same_bits(view, base[1::2]) and not np.shares_memory(out, view)


@settings(max_examples=200)
@given(name=st.sampled_from(sorted(SLOT_MAPS)), data=st.data(),
       offset=st.integers(0, 15), length=st.integers(1, 67),
       tail=st.integers(0, 15))
def test_map_of_a_subset_is_the_full_map_there(name, data, offset, length,
                                               tail):
    # training maps each owned score once and spreads the results with a
    # take; that keeps every bit only if an element's value does not depend
    # on where it sits in the array: SIMD loops with their scalar tails,
    # unaligned starts and gathered subsets must all agree with the map of
    # the full array
    f = SLOT_MAPS[name]
    values = data.draw(st.lists(
        st.one_of(st.floats(), st.floats(-40, 40), st.floats(-800, 800),
                  st.sampled_from(SPECIAL_SCORES)),
        min_size=offset + length + tail, max_size=offset + length + tail))
    z = np.array(values, dtype=float)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=z.shape[0],
                                       max_size=z.shape[0])), dtype=bool)
    picked = np.flatnonzero(keep)
    # one map per distinct bit pattern, spread back over every position
    distinct, spread = np.unique(z.view(np.int64), return_inverse=True)
    window = slice(offset, offset + length)
    with np.errstate(invalid="ignore"):  # logaddexp of a nan, as in training
        full = f(z)
        assert same_bits(f(z[window]), full[window])
        assert same_bits(f(z.take(picked)), full.take(picked))
        assert same_bits(f(distinct.view(float)).take(spread.ravel()), full)
