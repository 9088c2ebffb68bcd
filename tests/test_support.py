"""SupportPattern against the constructions it replaced.

The oracles below are the per-step code the pattern took over: the union
support found with np.unique over stacked coordinates, scores gathered per
mask, link kernels and the gradient residual assembled as COO and converted
with tocsr().  Every comparison is bitwise.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from linkprop import graphs
from linkprop.graphs import SupportPattern, build_graph, proximity
from linkprop.kernel import KernelOperator, link_kernels, score_matrices
from linkprop.losses import (ModelParams, bce_loss, build_masks, loss_gradient,
                             model_loss, sigmoid, support_gradient,
                             support_loss)

from conftest import negatives_from_pairs, random_graph_instance

MODELS = [("mf", {}), ("line", {}), ("deepwalk", {"window": 3}),
          ("lightgcn", {"layers": 2})]


def old_support(mat):
    coo = mat.tocoo()
    rows, cols = coo.coords
    return rows, cols, coo.data


def old_scores(Y, rows, cols):
    return np.einsum("ij,ij->i", Y[rows], Y[cols])


def old_union(pos, neg):
    pc, nc = pos.tocoo(), neg.tocoo()
    stacked = np.concatenate([np.stack(pc.coords, axis=1),
                              np.stack(nc.coords, axis=1)])
    union, inverse = np.unique(stacked, axis=0, return_inverse=True)
    k = pc.data.shape[0]
    return union[:, 0], union[:, 1], inverse[:k], inverse[k:], pc.data, nc.data


def old_bce(Y, pos, neg, lam):
    total = 0.0
    rows, cols, w = old_support(pos)
    if w.size:
        total += float(np.dot(w, np.logaddexp(0.0, -old_scores(Y, rows, cols))))
    rows, cols, w = old_support(neg)
    if w.size:
        total += lam * float(np.dot(w, np.logaddexp(0.0, old_scores(Y, rows, cols))))
    return 0.5 * total


def old_residual(Y, pos, neg, lam):
    pr, pc, pw = old_support(pos)
    nr, nc, nw = old_support(neg)
    vals = np.concatenate([
        pw * sigmoid(-old_scores(Y, pr, pc)) if pw.size else pw,
        -lam * nw * sigmoid(old_scores(Y, nr, nc)) if nw.size else nw,
    ])
    n = Y.shape[0]
    return sp.coo_array((vals, (np.concatenate([pr, nr]),
                                np.concatenate([pc, nc]))), shape=(n, n)).tocsr()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_csr(a, b):
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and same_bits(a.data, b.data))


def check_against_oracles(graph, negatives, model, kwargs, Y):
    n = graph.num_nodes
    lam, beta = 1.3, 0.02
    params = ModelParams(model=model, lam=lam, beta=beta, **kwargs)
    masks = build_masks(graph, negatives, params)
    op = KernelOperator.build(params, 0.05, graph, negatives)
    # train() reads the operator's pattern and P where the loss API reads
    # the masks': both come from losses.mask_set, so they agree bit for bit
    # (test_kernel pins that), and the pattern is checked once, against the
    # union and the gather it replaced
    rows, cols, pos_sel, neg_sel, pw, nw = old_union(masks.pos, masks.neg)
    pattern = op.pattern
    assert np.array_equal(pattern.rows, rows)
    assert np.array_equal(pattern.cols, cols)
    assert np.array_equal(pattern.pos.slots, pos_sel)
    assert np.array_equal(pattern.neg.slots, neg_sel)
    # scores stay per owned slot; spread by `owner` they are the full gather
    assert same_bits(pattern.scores(Y).take(pattern.owner),
                     old_scores(Y, rows, cols))

    # kernel side: scores on the owned slots, K+ and K- as tocsr() ordered
    # them; a map over the owned scores, spread, is the map over the union
    scores = score_matrices(Y, op)
    assert np.array_equal(scores.rows, pattern.owned_rows)
    assert np.array_equal(scores.cols, pattern.owned_cols)
    s_b = sigmoid(old_scores(Y, rows, cols))
    assert same_bits(scores.s_b.take(pattern.owner), s_b)
    assert same_bits(scores.s_a.take(pattern.owner), 1.0 - s_b)
    # the forward pass's scores, handed in, give the same pair
    given = score_matrices(Y, op, op.pattern.scores(Y))
    assert same_bits(given.s_a, scores.s_a) and same_bits(given.s_b, scores.s_b)
    kernels = link_kernels(scores, op)
    k_plus = sp.coo_array((pw * (1.0 - s_b)[pos_sel],
                           (rows[pos_sel], cols[pos_sel])), shape=(n, n)).tocsr()
    k_minus = sp.coo_array((nw * s_b[neg_sel],
                            (rows[neg_sel], cols[neg_sel])), shape=(n, n)).tocsr()
    assert same_csr(kernels.k_plus, k_plus)
    assert same_csr(kernels.k_minus, k_minus)

    # gradient side: loss in each mask's stored order, residual on the union
    X = Y  # treat Y as the embedding; masks.prop propagates it for lightgcn
    Yp = masks.prop.apply(X)
    expected = old_bce(Yp, masks.pos, masks.neg, lam) + 0.5 * beta * float(np.sum(X * X))
    assert model_loss(X, masks, params) == expected
    assert bce_loss(Yp, masks.pos, masks.neg, lam=lam, beta=0.0) == old_bce(
        Yp, masks.pos, masks.neg, lam)
    M = old_residual(Yp, masks.pos, masks.neg, lam)
    assert np.array_equal(masks.pattern.indptr, M.indptr)
    assert np.array_equal(masks.pattern.cols, M.indices)
    assert same_bits(loss_gradient(X, masks, params),
                     beta * X - masks.prop.apply(M @ Yp))


@st.composite
def instances(draw):
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    free = sorted(set(pairs) - set(edges))
    negs = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    return build_graph(edges, num_nodes=n), negatives_from_pairs(negs, n)


def scoring(chunk, density):
    """Scores gathered `chunk` slots at a time and Gram blocks of `chunk`
    rows, every block taking the Gram at density 0 and none at inf."""
    return mock.patch.multiple(graphs, _CHUNK=chunk, _GRAM_ROWS=chunk,
                               _GRAM_DENSITY=density)


DENSITIES = [0.0, graphs._GRAM_DENSITY, np.inf]


@given(instance=instances(), model=st.sampled_from(MODELS),
       chunk=st.sampled_from([1, 2, 3, 7, 8192]),
       density=st.sampled_from(DENSITIES),
       seed=st.integers(0, 2**16), dim=st.integers(1, 6))
def test_pattern_matches_old_constructions(instance, model, chunk, density,
                                           seed, dim):
    graph, negatives = instance
    Y = np.random.default_rng(seed).normal(scale=2.0, size=(graph.num_nodes, dim))
    with scoring(chunk, density):
        check_against_oracles(graph, negatives, *model, Y)


@pytest.mark.parametrize("chunk", [5, 8192])
def test_non_canonical_deepwalk_mask(chunk):
    # the materialized walk mask stores rows unsorted; the loss must keep
    # that order while K+ takes the sorted one
    graph, negatives = random_graph_instance(seed=3, min_nodes=20, max_nodes=20)
    masks = build_masks(graph, negatives, ModelParams("deepwalk", window=4))
    assert not masks.pos.has_canonical_format
    Y = np.random.default_rng(1).normal(size=(graph.num_nodes, 4))
    for density in DENSITIES:
        with scoring(chunk, density):
            check_against_oracles(graph, negatives, "deepwalk", {"window": 4}, Y)


def test_isolated_nodes_and_no_negatives():
    graph = build_graph([(0, 1), (1, 2)], num_nodes=6)
    Y = np.random.default_rng(2).normal(size=(6, 3))
    for model, kwargs in MODELS:
        check_against_oracles(graph, negatives_from_pairs([], 6), model, kwargs, Y)


def cells_csr(cells, n):
    """An (n, n) CSR weight matrix holding 1, 2, ... at the given cells."""
    rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    data = np.arange(1.0, len(cells) + 1)
    return sp.coo_array((data, (rows, cols)), shape=(n, n)).tocsr()


@st.composite
def weight_pairs(draw):
    """Arbitrary (pos, neg) weight matrices: unsymmetric, with diagonal
    entries, empty, or leaving nodes out of both supports."""
    n = draw(st.integers(1, 9))
    cells = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     unique=True, max_size=n * n)
    return cells_csr(draw(cells), n), cells_csr(draw(cells), n)


def check_half_gather(pos, neg, Y):
    pattern = SupportPattern(pos, neg)
    rows, cols, _, _, _, _ = old_union(pos, neg)
    assert np.array_equal(pattern.rows, rows)
    assert np.array_equal(pattern.cols, cols)
    assert same_bits(pattern.scores(Y).take(pattern.owner),
                     old_scores(Y, rows, cols))
    # one gather per unordered pair: a slot is gathered unless it lies
    # below the diagonal and its mirror above it is in the union too
    cells = set(zip(rows.tolist(), cols.tolist()))
    owned = [(u, v) for u, v in sorted(cells) if u <= v or (v, u) not in cells]
    assert list(zip(pattern.owned_rows.tolist(),
                    pattern.owned_cols.tolist())) == owned
    assert same_bits(pattern.scores(Y), old_scores(Y, pattern.owned_rows,
                                                   pattern.owned_cols))
    for name in ("owned_rows", "owned_cols", "owner"):
        assert getattr(pattern, name).dtype == pattern.cols.dtype


@given(pair=weight_pairs(), chunk=st.sampled_from([1, 2, 3, 7, 8192]),
       density=st.sampled_from(DENSITIES),
       seed=st.integers(0, 2**16), dim=st.integers(1, 6))
def test_half_gather_matches_full_gather(pair, chunk, density, seed, dim):
    pos, neg = pair
    Y = np.random.default_rng(seed).normal(scale=2.0, size=(pos.shape[0], dim))
    with scoring(chunk, density):
        check_half_gather(pos, neg, Y)


@pytest.mark.parametrize("pos, neg", [
    # (0, 1) without (1, 0), a diagonal entry, node 3 in neither support
    ([(0, 1), (2, 2), (2, 0)], [(1, 2), (0, 2)]),
    ([], []),  # empty union
    ([(1, 1)], []),
    ([(0, 1), (1, 0)], [(2, 3)]),
])
def test_half_gather_hand_made(pos, neg):
    Y = np.random.default_rng(5).normal(size=(4, 3))
    check_half_gather(cells_csr(pos, 4), cells_csr(neg, 4), Y)


def test_duplicate_entries_rejected():
    dup = sp.csr_array((np.ones(2), np.array([1, 1]), np.array([0, 2, 2])),
                       shape=(2, 2))
    with pytest.raises(ValueError, match="twice"):
        SupportPattern(dup, sp.csr_array((2, 2)))


def test_overlapping_supports_share_a_slot():
    pos = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    neg = sp.csr_array(np.array([[0.0, 2.0], [0.0, 0.0]]))
    pattern = SupportPattern(pos, neg)
    assert pattern.nnz == 2
    assert np.array_equal(pattern.pos.slots, [0, 1])
    assert np.array_equal(pattern.neg.slots, [0])


def stored_csr(cells, n):
    """An (n, n) CSR holding 0.3, 0.6, ... at the given cells, listed in
    row order; each row keeps its cells in the listed order, so a row
    listed with falling columns is stored out of canonical order."""
    rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    assert np.all(rows[1:] >= rows[:-1])
    data = 0.3 * np.arange(1.0, len(cells) + 1)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return sp.csr_array((data, cols, indptr), shape=(n, n))


# (pos cells, neg cells) on 5 nodes: every pos has rows listed with
# falling columns, and the masks share slots
INDEX_MAP_PATTERNS = {
    "symmetric": (
        [(0, 3), (0, 1), (1, 0), (1, 4), (2, 2), (3, 0), (3, 4), (4, 3),
         (4, 1)],
        [(0, 2), (0, 1), (1, 3), (1, 0), (2, 0), (3, 1)]),
    "asymmetric": (
        [(0, 4), (0, 1), (1, 2), (2, 3), (2, 0), (3, 2), (4, 4)],
        [(1, 0), (1, 3), (4, 0)]),
    "edgeless negatives": (
        [(0, 3), (0, 1), (1, 0), (2, 4), (3, 0), (4, 2)], []),
}


@pytest.mark.parametrize("name", sorted(INDEX_MAP_PATTERNS))
def test_index_maps_compose_owner_with_slots(name):
    pos_cells, neg_cells = INDEX_MAP_PATTERNS[name]
    pos, neg = stored_csr(pos_cells, 5), stored_csr(neg_cells, 5)
    assert not pos.has_sorted_indices
    pattern = SupportPattern(pos, neg)
    owner = pattern.owner
    for entries in (pattern.pos, pattern.neg):
        read = owner[entries.slots]
        assert np.array_equal(entries.reads, np.unique(read))
        assert np.array_equal(entries.reads[entries.stored], read)
        assert np.array_equal(entries.sorted_owner,
                              owner[np.sort(entries.slots)])
        for attr in ("slots", "reads", "stored", "sorted_owner"):
            assert getattr(entries, attr).dtype == owner.dtype
        assert not hasattr(entries, "sorted_slots")
    if not neg_cells:
        assert pattern.neg.reads.shape == pattern.neg.stored.shape == (0,)


@pytest.mark.parametrize("name", sorted(INDEX_MAP_PATTERNS))
def test_owned_maps_equal_the_full_union_formulas(name):
    # the loss, the gradient and both link kernels from maps over the owned
    # scores, against each formula over the whole union written out here
    pos_cells, neg_cells = INDEX_MAP_PATTERNS[name]
    pattern = SupportPattern(stored_csr(pos_cells, 5), stored_csr(neg_cells, 5))
    pos, neg = pattern.pos, pattern.neg
    lam, beta = 1.3, 0.02
    params = ModelParams("mf", lam=lam, beta=beta)
    prop = proximity(sp.csr_array((5, 5)), 0, 0)
    Y = np.random.default_rng(7).normal(scale=2.0, size=(5, 3))
    s = pattern.scores(Y)
    union = old_scores(Y, pattern.rows, pattern.cols)

    total = float(np.dot(pos.weights, np.logaddexp(0.0, -union[pos.slots])))
    if neg.weights.size:
        total += lam * float(np.dot(neg.weights,
                                    np.logaddexp(0.0, union[neg.slots])))
    expected = 0.5 * total + 0.5 * beta * float(np.sum(Y * Y))
    assert same_bits(support_loss(Y, s, pattern, lam, beta), expected)

    data = np.zeros(pattern.nnz)
    data[pos.slots] = pos.weights * sigmoid(-union[pos.slots])
    data[neg.slots] += -lam * neg.weights * sigmoid(union[neg.slots])
    assert same_bits(support_gradient(Y, Y, s, pattern, prop, params),
                     beta * Y - pattern.matrix(data) @ Y)

    op = SimpleNamespace(pattern=pattern)
    scores = score_matrices(Y, op)
    s_b = sigmoid(union)
    k_plus = pos.weighted(scores.s_a)
    assert same_bits(k_plus.data, pos.matrix.data * (1.0 - s_b)[np.sort(pos.slots)])
    assert np.array_equal(k_plus.indices, pos.matrix.indices)
    k_minus = neg.weighted(scores.s_b)
    assert same_bits(k_minus.data, neg.matrix.data * s_b[np.sort(neg.slots)])
