"""Top-K recommendation evaluation on bipartite splits.

Scores are inner products between a user's embedding row and every item
row; items the user already interacted with in training are masked out, the
rest are ranked, and Precision/Recall/NDCG at a cutoff are averaged over
users that have at least one test item.  Ties rank lower item ids first so
results do not depend on sort internals.

`evaluate` ranks a block of users at a time and keeps only each user's top
k; `score_user`, `top_k` and `metrics_at_k` are the one-user definitions it
reproduces bit for bit.  A block's scores come from one matrix product,
which rounds differently from the per-user product `score_user` takes; a
user's block ranking is kept only where a rounding-error bound proves that
both products rank the same items in the same order, and recomputed from
the per-user product otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linkprop.graphs import Graph, Partition

# bytes of scores `evaluate` holds at once; sets how many users share a block
_BLOCK_BYTES = 2 << 20


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


def evaluate(X: np.ndarray, splits: SplitSet, train_graph: Graph,
             k: int = 20, split: str = "test") -> EvalResult:
    """Rank candidates for every user with held-out edges, average metrics.

    `split` picks the held-out edge set ("test" or "val"); candidates are
    always the items unseen in training.  Every result bit equals what
    `top_k` and `metrics_at_k` give user by user.  Users are scored in
    blocks, one GEMM per block, and each block keeps its k + 1 best finite
    scores without a full sort.  A user's ranking stands when every
    adjacent gap among those k + 1 scores is wider than twice the bound on
    the rounding error of any dot product (`_score_error`): the per-user
    GEMV that `score_user` computes then ranks the same k items in the same
    order.  Other users (near-ties, zero or non-finite embeddings,
    non-float dtypes) are scored again with that GEMV and ranked at k.  The
    per-user metrics are summed sequentially in user order.
    """
    if split not in ("test", "val"):
        raise ValueError("split must be 'test' or 'val'")
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

    # held-out edges as sorted keys user * num_items + item
    held_out = held_out.astype(np.int64)
    held_users = held_out[:, 0]
    held_keys = np.sort(held_users * num_items + (held_out[:, 1] - num_users))
    test_counts = np.bincount(held_users, minlength=num_users)
    users = np.flatnonzero(test_counts)

    cut = min(k, num_items)
    # the discounts cover every kept rank and every ideal list
    ideal_len = min(k, max(num_items, int(test_counts.max())))
    discount = np.array([1.0 / float(np.log2(r + 2.0))
                         for r in range(ideal_len)])
    ideal = np.cumsum(discount)

    block = max(1, _BLOCK_BYTES // (8 * num_items))
    buf = np.empty((min(block, users.shape[0]), num_items),
                   dtype=np.result_type(X))
    scratch = np.empty_like(buf)
    adj = train_graph.adjacency
    err = _score_error(X[users], items)
    per_user = np.empty((users.shape[0], 3))
    for lo in range(0, users.shape[0], block):
        ub = users[lo:lo + block]
        S = buf[:ub.shape[0]]
        np.matmul(X[ub], items.T, out=S)
        _mask_training(S, ub, adj, first_item)
        _clear_non_finite(S)
        ranked, sure = _certified_top_k(S, cut, err[lo:lo + ub.shape[0]],
                                        scratch[:ub.shape[0]])
        # rows left uncertified: one GEMV per user, the scores score_user gives
        redo = np.flatnonzero(~sure)
        if redo.shape[0]:
            for j in redo:
                np.matmul(items, X[ub[j]], out=S[j])
            R = S[redo]
            _mask_training(R, ub[redo], adj, first_item)
            _clear_non_finite(R)
            ranked[redo] = _top_k_rows(R, cut, scratch[:redo.shape[0]])
        keys = ub[:, None] * num_items + ranked
        pos = np.searchsorted(held_keys, keys)
        pos[pos == held_keys.shape[0]] = 0
        hit = (held_keys[pos] == keys) & (ranked >= 0)
        # sequential sums in rank order, as the scalar definition adds them
        dcg = np.cumsum(np.where(hit, discount[:cut], 0.0), axis=1)[:, -1]
        hits = np.count_nonzero(hit, axis=1)
        n_test = test_counts[ub]
        out = per_user[lo:lo + ub.shape[0]]
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


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each of consecutive runs begins."""
    starts = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _clear_non_finite(S: np.ndarray):
    """Set every nan and +-inf score to -inf: such items are never ranked."""
    if not np.isfinite(S.max()):  # max is nan or +inf if any entry is
        S[~np.isfinite(S)] = -np.inf


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


def _certified_top_k(S: np.ndarray, cut: int, err: np.ndarray,
                     scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's `cut` best columns, and whether any rounding keeps them.

    A row is certified when `err[row]` is finite and every adjacent gap
    among its `cut + 1` best finite scores exceeds `2 * err[row]`.  Scores
    that each lie within `err` of the same exact values then rank the same
    columns in the same order, with no tie left for the column order to
    break.  Gaps to -inf (masked, or fewer candidates than `cut + 1`) do not
    count.  `scratch` is S-shaped workspace.
    """
    top = min(cut + 1, S.shape[1])
    ranked = _top_k_rows(S, top, scratch)
    vals = np.take_along_axis(S, ranked, axis=1)
    vals[ranked < 0] = -np.inf
    lower = vals[:, 1:]
    # -inf - -inf is nan, and rows near overflow are rejected by `err`
    with np.errstate(over="ignore", invalid="ignore"):
        apart = (vals[:, :-1] - lower > 2 * err[:, None]) | (lower == -np.inf)
    return ranked[:, :cut], np.isfinite(err) & apart.all(axis=1)


def _mask_training(S: np.ndarray, users: np.ndarray, adj, num_users: int):
    """Set each row's training items to -inf (row j belongs to users[j])."""
    starts = adj.indptr[users]
    counts = adj.indptr[users + 1] - starts
    offsets = np.repeat(starts - _starts(counts), counts)
    cols = adj.indices[offsets + np.arange(offsets.shape[0])] - num_users
    S[np.repeat(np.arange(users.shape[0]), counts), cols] = -np.inf


def _top_k_rows(S: np.ndarray, cut: int, scratch: np.ndarray) -> np.ndarray:
    """Each row's `cut` best finite columns, best first, padded with -1.

    Scores equal to a row's cut-th best fill the list in ascending column
    order, so every row matches a stable descending sort of its finite
    scores truncated at `cut`.  `scratch` is S-shaped workspace.
    """
    num_rows, width = S.shape
    np.copyto(scratch, S)
    scratch.partition(width - cut, axis=1)
    kth = scratch[:, width - cut]
    # a row with fewer than `cut` finite scores keeps all of them
    floor = np.where(kth == -np.inf, np.finfo(S.dtype).min, kth)
    keep = S >= floor[:, None]
    # rows where more than `cut` entries reach the k-th score have ties
    # there; only those rows are trimmed, one at a time
    crowded = np.flatnonzero(np.count_nonzero(keep, axis=1) > cut)
    keep[crowded] = False
    flat = np.flatnonzero(keep)
    rows = flat // width
    counts = np.bincount(rows, minlength=num_rows)
    slots = np.arange(flat.shape[0]) - np.repeat(_starts(counts), counts)
    # row, flat index into S and slot of every survivor; equal scores come
    # in ascending column order within a row
    parts = [(rows, flat, slots)]
    for r in crowded:
        above = np.flatnonzero(S[r] > kth[r])
        ties = np.flatnonzero(S[r] == kth[r])[:cut - above.shape[0]]
        cols = np.concatenate([above, ties])
        parts.append((np.full(cut, r), r * width + cols, np.arange(cut)))
    rows, flat, slots = (np.concatenate(p) for p in zip(*parts))
    dest = rows * cut + slots
    # sort every row stably by descending score; padding sorts last
    neg = np.full(num_rows * cut, np.inf)
    neg[dest] = -S.ravel()[flat]
    ranked = np.full(num_rows * cut, -1)
    ranked[dest] = flat - rows * width
    order = np.argsort(neg.reshape(num_rows, cut), axis=1, kind="stable")
    return ranked[order + cut * np.arange(num_rows)[:, None]]


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
