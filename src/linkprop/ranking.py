"""Top-K recommendation evaluation on bipartite splits.

Scores are inner products between a user's embedding row and every item
row; items the user already interacted with in training are masked out, the
rest are ranked, and Precision/Recall/NDCG at a cutoff are averaged over
users that have at least one test item.  Ties rank lower item ids first so
results do not depend on sort internals.

`evaluate` counts each held-out item's rank instead of sorting: the scores
above it plus the equal ones at lower item ids.  `score_user`, `top_k` and
`metrics_at_k` are the one-user definitions it reproduces bit for bit.  A
block's scores come from one matrix product, which rounds differently from
the per-user product `score_user` takes; a count from the block is kept
only where a rounding-error margin proves it, and users with any other
held-out item are scored again with the per-user product.  The score that
proves an item a miss is the cut-th best of the row's column-group
maxima: a lower bound on the row's own cut-th best score, read in one pass
over the row instead of a partition of all of it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from linkprop.graphs import Graph, Partition

# bytes of scores `evaluate` holds at once; sets how many users share a block
_BLOCK_BYTES = 2 << 20

# column groups per rank of the cut: `_ranks` reads each row's cut-th best
# score from the maxima of _GROUPS * cut groups of columns
_GROUPS = 8


@dataclass(frozen=True, eq=False)
class SplitSet:
    """Per-user train/validation/test partition of a bipartite edge set.

    Edge arrays are canonical (user id first, rows sorted); `flagged` lists
    users left without test edges by the degenerate-degree policy.
    """

    partition: Partition
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    ratios: tuple[float, float, float]
    seed: int
    flagged: tuple = ()

    @property
    def num_edges(self) -> int:
        return self.train.shape[0] + self.val.shape[0] + self.test.shape[0]


def score_user(X: np.ndarray, user: int, graph: Graph) -> np.ndarray:
    """Scores of every item for one user, train-interacted items at -inf.

    `graph` must be the training graph; its partition defines the item
    block.  Pass propagated embeddings when the model scores with them.
    """
    if graph.partition is None:
        raise ValueError("scoring needs a bipartite partition")
    part = graph.partition
    scores = X[part.num_users:] @ X[user]
    interacted = graph.neighbors(user) - part.num_users
    scores[interacted] = -np.inf
    return scores


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best finite scores, ties broken by ascending index.

    Returns fewer than k entries when fewer candidates are scoreable.
    """
    if k < 1:
        raise ValueError("cutoff must be >= 1")
    order = np.argsort(-scores, kind="stable")
    order = order[np.isfinite(scores[order])]
    return order[:k]


def metrics_at_k(ranked: np.ndarray, test_items: np.ndarray,
                 k: int) -> tuple[float, float, float]:
    """(precision, recall, ndcg) of one ranked list against binary relevance.

    precision divides by the requested cutoff even when the list is short;
    the ideal DCG truncates at min(k, number of test items).
    """
    if len(test_items) == 0:
        raise ValueError("metrics undefined for an empty test set")
    hits = np.isin(ranked[:k], test_items)
    num_hits = int(hits.sum())
    precision = num_hits / k
    recall = num_hits / len(test_items)
    # sequential accumulation in rank order, matching the scalar definition
    # bit for bit (numpy's blocked summation would not)
    dcg = 0.0
    for rank in np.flatnonzero(hits):
        dcg += 1.0 / float(np.log2(rank + 2.0))
    idcg = 0.0
    for rank in range(min(k, len(test_items))):
        idcg += 1.0 / float(np.log2(rank + 2.0))
    return precision, recall, dcg / idcg


@dataclass(frozen=True)
class EvalResult:
    """Mean ranking metrics over all evaluable users of one trained model."""

    k: int
    precision: float
    recall: float
    ndcg: float
    users_evaluated: int
    users_skipped: int


# non-finite embeddings give nan and inf scores, which are never ranked, so
# numpy need not warn about them in the block GEMM or the fallback GEMVs
@np.errstate(invalid="ignore", over="ignore")
def evaluate(X: np.ndarray, splits: SplitSet, train_graph: Graph,
             k: int = 20, split: str = "test") -> EvalResult:
    """Rank candidates for every user with held-out edges, average metrics.

    `split` picks the held-out edge set ("test" or "val"); candidates are
    always the items unseen in training.  Every result bit equals what
    `top_k` and `metrics_at_k` give user by user: the metrics need only
    each held-out item's rank, which `_ranks` counts.  Users are scored in
    blocks, one GEMM per block, with a margin of twice the rounding-error
    bound `_score_error`; the per-user GEMV of `score_user` then ranks
    every held-out item the block ranks sure the same.  A held-out item
    is proven a miss against the cut-th best of its row's column-group
    maxima, which one pass over the block finds, and any other is ranked
    by a count over its row.  Users with any other item (near-ties, zero
    or non-finite embeddings, non-float dtypes) are scored again with that
    GEMV and ranked at margin 0.  Hits add their discounts in rank order
    and the per-user metrics are summed sequentially in user order.
    """
    if split not in ("test", "val"):
        raise ValueError("split must be 'test' or 'val'")
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != train_graph.num_nodes:
        raise ValueError(
            f"X must be a 2-d array with one row per node of train_graph "
            f"({train_graph.num_nodes}), got shape {X.shape}")
    if train_graph.partition is None:
        raise ValueError("scoring needs a bipartite partition")
    held_out = splits.test if split == "test" else splits.val
    if held_out.shape[0] == 0:
        raise ValueError(f"no users have {split} edges")
    num_users = splits.partition.num_users
    first_item = train_graph.partition.num_users
    items = X[first_item:]
    num_items = items.shape[0]

    # held-out edges as sorted keys user * num_items + item, without repeats
    held_out = held_out.astype(np.int64)
    held_users = held_out[:, 0]
    held_keys = np.unique(held_users * num_items + (held_out[:, 1] - num_users))
    test_counts = np.bincount(held_users, minlength=num_users)
    users = np.flatnonzero(test_counts)
    # each key's user as an index into `users`, and its item
    key_rows = np.searchsorted(users, held_keys // num_items)
    key_cols = held_keys % num_items

    cut = min(k, num_items)
    # the discounts cover every rank below the cut and every ideal list
    ideal_len = min(k, max(num_items, int(test_counts.max())))
    discount = np.array([1.0 / float(np.log2(r + 2.0))
                         for r in range(ideal_len)])
    ideal = np.cumsum(discount)

    block = max(1, _BLOCK_BYTES // (8 * num_items))
    buf = np.empty((min(block, users.shape[0]), num_items),
                   dtype=np.result_type(X))
    heads = np.empty((buf.shape[0], _group_count(num_items, cut)),
                     dtype=buf.dtype)
    adj = train_graph.adjacency
    margin = 2 * _score_error(X[users], items)
    per_user = np.empty((users.shape[0], 3))
    for lo in range(0, users.shape[0], block):
        ub = users[lo:lo + block]
        nb = ub.shape[0]
        S = buf[:nb]
        np.matmul(X[ub], items.T, out=S)
        _mask_training(S, ub, adj, first_item)
        a, b = np.searchsorted(key_rows, [lo, lo + nb])
        rows, cols = key_rows[a:b] - lo, key_cols[a:b]
        rank, sure = _ranks(S, rows, cols, margin[lo:lo + nb], cut,
                            heads[:nb])
        # users with an unsure item: one GEMV each, the scores score_user
        # gives, and every held-out item of theirs ranked exactly
        redo = np.unique(rows[~sure])
        if redo.shape[0]:
            for j in redo:
                np.matmul(items, X[ub[j]], out=S[j])
            _mask_training(S, ub, adj, first_item)
            again = np.isin(rows, redo)
            rank[again], _ = _ranks(S, rows[again], cols[again],
                                    np.zeros(nb), cut, heads[:nb])
        hit = rank < cut
        # sequential sums in rank order, as the scalar definition adds them
        gains = np.zeros((nb, cut))
        gains[rows[hit], rank[hit]] = discount[rank[hit]]
        dcg = np.cumsum(gains, axis=1)[:, -1]
        hits = np.bincount(rows[hit], minlength=nb)
        n_test = test_counts[ub]
        out = per_user[lo:lo + nb]
        out[:, 0] = hits / k
        out[:, 1] = hits / n_test
        out[:, 2] = dcg / ideal[np.minimum(k, n_test) - 1]
    # a running sum in user order, as a per-user loop would add them
    sums = np.cumsum(per_user, axis=0)[-1]
    evaluated = users.shape[0]
    prec, rec, ndcg = sums / evaluated
    return EvalResult(k=k, precision=float(prec), recall=float(rec),
                      ndcg=float(ndcg), users_evaluated=evaluated,
                      users_skipped=num_users - evaluated)


def _score_error(Y: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Per row of Y, a bound on the rounding error of any score `items @ y`.

    Any floating-point evaluation of a length-d dot product, summed in any
    order, with or without FMA, is within `gamma_d * sum|x_j y_j| + d * tiny`
    of the exact value, where `gamma_d = d*u / (1 - d*u)`, u is the unit
    roundoff and the smallest normal number `tiny` covers underflow, gradual
    or flushed to zero (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1).
    By Cauchy-Schwarz the sum is at most `||y|| * max_i ||x_i||`.  The
    bound is doubled, which covers the rounding of the norms, of the bound
    and of the gaps it is compared with.  It is inf, and certifies nothing,
    for dtypes other than float32/float64, and where `||y|| * max ||x||` is
    not finite or within a factor 8 of overflow, so that no certified
    score, partial sum or gap can overflow.
    """
    if items.dtype not in (np.float32, np.float64):
        return np.full(Y.shape[0], np.inf)
    info = np.finfo(items.dtype)
    d = items.shape[1]
    du = d * float(info.eps) / 2
    gamma = du / (1 - du) if du < 1 else np.inf
    # float64 norms of either dtype; `pad` covers squares lost to underflow
    pad = np.sqrt(d * np.finfo(np.float64).tiny)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [np.sqrt(np.einsum("ij,ij->i", A, A, dtype=np.float64)) + pad
                 for A in (Y, items)]
        base = norms[0] * norms[1].max(initial=0.0)
        err = 2 * gamma * base + d * float(info.tiny)
    err[~(base <= float(info.max) / 8)] = np.inf
    return err


def _mask_training(S: np.ndarray, users: np.ndarray, adj, num_users: int):
    """Set each row's training items to -inf (row j belongs to users[j])."""
    starts = adj.indptr[users]
    counts = adj.indptr[users + 1] - starts
    # each edge's index in adj.indices: its row's start, plus its position
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    cols = adj.indices[offsets + np.arange(offsets.shape[0])] - num_users
    S[np.repeat(np.arange(users.shape[0]), counts), cols] = -np.inf


def _group_count(width: int, cut: int) -> int:
    """How many column groups `_ranks` takes the maxima of: _GROUPS * cut
    where each group gets two or more columns, else one group per column.
    (On 200-column rows at cut 20 the fold into 160 groups cost more than
    their shorter partition saved.)"""
    return _GROUPS * cut if width >= 2 * _GROUPS * cut else width


def _group_maxima(S: np.ndarray, heads: np.ndarray):
    """Set heads[r, g] to the best score of row r over the columns j with
    j % G == g, G = heads.shape[1]: a maximum over whole runs of G columns,
    then the ragged tail folded into the first groups."""
    G = heads.shape[1]
    if G == S.shape[1]:
        np.copyto(heads, S)
        return
    runs = S.shape[1] // G
    np.max(S[:, :runs * G].reshape(S.shape[0], runs, G), axis=1, out=heads)
    tail = S[:, runs * G:]
    np.maximum(heads[:, :tail.shape[1]], tail, out=heads[:, :tail.shape[1]])


def _ranks(S: np.ndarray, rows: np.ndarray, cols: np.ndarray,
           margin: np.ndarray, cut: int,
           scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each score S[rows, cols] in its row, and whether it is sure.

    First every nan and +-inf score of S is set to -inf, in place: such
    items are never ranked.  The rank is the position in a stable
    descending sort of the row's finite scores: the scores above, plus the
    equal ones in lower columns.  A rank of `cut` or more is a miss, as is
    -inf.  `margin[r]` bounds how far apart row r's scores and another
    rounding of the same products may put two scores.

    The row's columns fall into G groups (8 * cut where that leaves two or
    more columns per group, else one per column), column j into group
    j % G, and `kth` is the cut-th best of the G group maxima.
    These are distinct scores of the row, so at least `cut` scores lie at
    or above `kth`, and an item that `kth` beats by more than the margin
    misses under any rounding.  Otherwise the scores above it by more than
    the margin are counted; below `cut`, the count is the rank, sure only
    when no other score of the row lies within the margin.  At margin 0
    every rank is exact; a non-finite margin makes nothing sure.
    `scratch` is workspace with S's rows and at least G columns.
    """
    width = S.shape[1]
    G = _group_count(width, cut)
    heads = scratch[:, :G]
    _group_maxima(S, heads)
    # nan and +inf reach the maxima (so does a block of only -inf scores)
    if not np.isfinite(heads.max()):
        S[~np.isfinite(S)] = -np.inf
        _group_maxima(S, heads)
    heads.partition(G - cut, axis=1)
    kth = heads[:, G - cut]
    t = S[rows, cols].astype(np.float64)
    m = margin[rows]
    rank = np.full(rows.shape[0], cut)
    sure = np.isfinite(m)
    columns = np.arange(width)
    # differences, not sums, are compared with m: rounding is monotone and
    # m is a float, so a rounded difference exceeds m only if the exact one
    # does.  -inf - -inf is nan (such items are misses anyway), and scores
    # near overflow come only with margin 0, where an infinite difference
    # still has the right sign.
    with np.errstate(invalid="ignore", over="ignore"):
        near = np.flatnonzero(sure & (t > -np.inf) & ~(kth[rows] - t > m))
        # two of the row's `cut` best maxima within a positive margin: they
        # are distinct scores, one is another item's, so the item is
        # unsure without a count (this spares rows of ties the full count)
        top = heads[rows[near], G - cut:]
        crowded = (m[near] > 0) & (np.count_nonzero(
            np.abs(top - t[near, None]) <= m[near, None], axis=1) > 1)
        sure[near[crowded]] = False
        near = near[~crowded]
        # the other items' rows minus their scores, a quarter of S's row
        # count at a time so that the differences stay in cache
        step = max(1, S.shape[0] // 4)
        for lo in range(0, near.shape[0], step):
            i = near[lo:lo + step]
            D = S[rows[i]].astype(np.float64, copy=False)
            D -= t[i, None]
            above = np.count_nonzero(D > m[i, None], axis=1)
            within = np.abs(D, out=D) <= m[i, None]
            ties = np.count_nonzero(
                within & (columns < cols[i, None]), axis=1)
            rank[i] = np.where(above < cut, above + ties, cut)
            sure[i] = ((above >= cut) | (m[i] == 0)
                       | (np.count_nonzero(within, axis=1) == 1))
    return rank, sure


def mean_result(results) -> EvalResult:
    """Average EvalResults across repetition seeds (same k required)."""
    results = list(results)
    ks = {r.k for r in results}
    if len(ks) != 1:
        raise ValueError("cannot average results at different cutoffs")
    return EvalResult(
        k=ks.pop(),
        precision=float(np.mean([r.precision for r in results])),
        recall=float(np.mean([r.recall for r in results])),
        ndcg=float(np.mean([r.ndcg for r in results])),
        users_evaluated=int(np.mean([r.users_evaluated for r in results])),
        users_skipped=int(np.mean([r.users_skipped for r in results])))
