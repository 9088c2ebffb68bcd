"""Top-K recommendation evaluation on bipartite splits.

Scores are inner products between a user's embedding row and every item
row; items the user already interacted with in training are masked out, the
rest are ranked, and Precision/Recall/NDCG at a cutoff are averaged over
users that have at least one test item.  Ties rank lower item ids first so
results do not depend on sort internals.

`evaluate` ranks a block of users at a time and keeps only each user's top
k; `score_user`, `top_k` and `metrics_at_k` are the one-user definitions it
reproduces bit for bit.
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
    `top_k` and `metrics_at_k` give user by user: users are scored in blocks
    (one GEMV per user, since a block GEMM rounds differently), each block
    keeps its k best finite scores without a full sort, and the per-user
    metrics are summed sequentially in user order.
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
    items = X[train_graph.partition.num_users:]
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
    per_user = np.empty((users.shape[0], 3))
    for lo in range(0, users.shape[0], block):
        ub = users[lo:lo + block]
        S = buf[:ub.shape[0]]
        for j, user in enumerate(ub):
            np.matmul(items, X[user], out=S[j])
        _mask_training(S, ub, adj, train_graph.partition.num_users)
        if not np.isfinite(S.max()):  # max is nan or +inf if any entry is
            S[~np.isfinite(S)] = -np.inf
        ranked = _top_k_rows(S, cut, scratch[:ub.shape[0]])
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
