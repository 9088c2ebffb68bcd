"""Top-K recommendation evaluation on bipartite splits.

Scores are inner products between a user's embedding row and every item
row; items the user already interacted with in training are masked out, the
rest are ranked, and Precision/Recall/NDCG at a cutoff are averaged over
users that have at least one test item.  Ties rank lower item ids first so
results do not depend on sort internals.

`evaluate` counts each held-out item's rank instead of sorting: the scores
above it plus the equal ones at lower item ids.  Every result bit equals
`reference.evaluate_scalar`, which sorts each user's candidates.  Its
work is split in two: a `Ranker` holds what depends only on the split,
the training graph and the cutoff (the users with held-out edges, their
held-out items, discounts, ideal DCGs and training-item indices), and a
call ranks one embedding matrix.  `ranker` keeps one per training graph,
split set, cutoff and split, in the graph's memo: `evaluate` calls it once,
a training run calls its `recall` each validation epoch, and every later
run and evaluation on that graph and split shares it.  A block's scores
come from one matrix product, in float32 for float64 embeddings, which
rounds differently from the per-user float64 product `items @ X[user]`; a
count from the block is kept only where a per-item rounding-error margin
proves it (`_ranks`, from the row's column-group maxima), and users with
any other held-out item are scored again with the per-user product.

Before the block product, where the items are many against the cut, a
probe against the `_PROBE * cut` most-trained items rules out most
held-out misses (exact pruning by score bounds, as in LEMP: Teflioudi,
Gemulla and Mykytiuk, SIGMOD 2015; see `Ranker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from linkprop.graphs import Graph, Partition, check_integer

# bytes of scores `evaluate` holds at once; sets how many users share a block
_BLOCK_BYTES = 4 << 20

# column groups per rank of the cut: `_ranks` reads each row's cut-th best
# score from the maxima of _GROUPS * cut groups of columns
_GROUPS = 8

# probe items per rank of the cut, used where they are at most a quarter
# of the items (see Ranker).  On trained block10k embeddings (7942 items,
# cut 20, one BLAS thread) a probe of 400 proves every held-out item of
# 90-93% of users, and a val call takes 6 ms (13 ms after 40 epochs)
# against 21-25 ms with no probe; at a probe of a quarter of the items
# (cut 99) the two break even after 40 epochs.  On 200 items at cut 2 the
# probe costs 0.46 ms against 0.38 ms: small rows pay per-call overhead.
_PROBE = 20


@dataclass(frozen=True, eq=False)
class SplitSet:
    """Per-user train/validation/test partition of a bipartite edge set.

    Edge arrays are canonical (user id first, rows sorted); `flagged` lists
    users left without test edges by the degenerate-degree policy.  A
    split's edges must not change once it is ranked: a training graph's
    memo keeps each `ranker` under the split set object.  So the split set
    keeps a read-only copy of each writable edge array it is given, and a
    read-only one (as `split_dataset` and `load_splits` pass) as it is.
    """

    partition: Partition
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    ratios: tuple[float, float, float]
    seed: int
    flagged: tuple = ()

    def __post_init__(self):
        for part in ("train", "val", "test"):
            edges = getattr(self, part)
            if edges.flags.writeable:
                edges = edges.copy()
                edges.flags.writeable = False
                object.__setattr__(self, part, edges)

    @property
    def num_edges(self) -> int:
        return self.train.shape[0] + self.val.shape[0] + self.test.shape[0]


# no library code ranks with it; it stays because the benchmark's tracer
# (perfbench/tracing.py, COUNTED) patches it by name
def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best finite scores, ties broken by ascending index.

    Returns fewer than k entries when fewer candidates are scoreable.
    """
    if k < 1:
        raise ValueError("cutoff must be >= 1")
    order = np.argsort(-scores, kind="stable")
    order = order[np.isfinite(scores[order])]
    return order[:k]


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
             k: int, split: str = "test") -> EvalResult:
    """Mean metrics at cutoff k over the users with `split` ("test" or
    "val") edges: one call of `ranker(splits, train_graph, k, split)`,
    whose `Ranker` documents the method."""
    return ranker(splits, train_graph, k, split)(X)


def ranker(splits: SplitSet, train_graph: Graph, k: int,
           split: str) -> Ranker:
    """The `Ranker(splits, train_graph, k, split)` of the training graph's
    memo, keyed by the `splits` object itself: built on the first request
    and shared by every later one, its arrays read-only.

    `split` and `k` are checked first, as `Ranker` checks them, so a bad
    one raises the same ValueError whatever is cached (`True == 1` as a
    key, but `k=True` is no cutoff).  A construction that raises keeps
    nothing.  The `Ranker` retains its users, held-out keys and
    training-item indices: O(held-out + training edges of its users)
    integers.
    """
    _check_split(split)
    check_integer("k", k, 1)
    return train_graph.memoized(("ranker", splits, int(k), split),
                                lambda: Ranker(splits, train_graph, int(k),
                                               split))


def _check_split(split: str) -> None:
    if split not in ("test", "val"):
        raise ValueError("split must be 'test' or 'val'")


class Ranker:
    """The ranking of one held-out split, built once and called on any
    embeddings of the training graph's nodes.

    Construction checks the split, the cutoff and that `train_graph` has
    the split's partition, then keeps what depends on them alone: the
    users with held-out edges, each user's held-out (row, column) pairs,
    test count and ideal-DCG denominator, the discount table, and the
    flat indices of each user's training items in a block of score rows.
    Where `4 * _PROBE * cut <= num_items` it also keeps the probe: the
    `_PROBE * cut` items with the most training edges (ties to the lower
    item id), in column order, and each user's training items among them.
    Calling it on X, which must have a real floating-point dtype (training
    items are set to -inf), returns the `EvalResult` whose every bit
    `reference.evaluate_scalar` gives; `recall(X)` gives its recall from
    hit status alone (`_ranks`' `hits_only`), every bit.

    The probe stage runs first.  Each row's probe scores (`_blocks`, in
    the block dtype) have the user's training items, nan and +-inf set to
    -inf; `kth` is their cut-th best.
    Each held-out item's score t comes from a row dot in the same dtype,
    and the item is a proven miss where `kth - t > m`, m its margin as
    `_ranks` forms it (its own bound plus the row's largest).  The bound
    of `_score_error` covers any evaluation of a length-d dot product, in
    any order, with or without FMA, so each of the `cut` probe scores at
    or above `kth` beats the item under the float64 GEMV by more than
    zero, and its rank is at least `cut`.  A held-out item among those
    `cut` scores cannot prove itself a miss (its t lies within 2w of its
    probe score, w its own bound, and m >= 2w); a nan t, a row of fewer
    than `cut` candidates in the probe (kth = -inf) and a non-finite
    margin prove nothing.  A user with every held-out item proven has no
    hit and keeps a zero row of metrics, which is what 0 / k, 0 / count
    and 0 / ideal give; the other users take the steps below, gathered,
    and the per-user rows are still summed in user order.

    Users are scored in `_blocks`, in float32 for float64 embeddings
    that `_score_error` finds safe to cast.  The block compares two items'
    scores with a margin, the sum of their rounding-error bounds, and the
    per-user GEMV `items @ X[user]` ranks every held-out item that the block
    ranks sure the same way (see `_ranks`).  A user row of zeros scores
    exactly on both paths and is ranked from the block at margin 0.  Users
    with any other item (near-ties, non-finite user embeddings, floating
    dtypes other than float32 and float64) are scored again with that
    GEMV, into a buffer of X's dtype, and ranked at margin 0.  Hits add
    their discounts in rank order and the per-user metrics are summed
    sequentially in user order.
    """

    def __init__(self, splits: SplitSet, train_graph: Graph, k: int,
                 split: str):
        _check_split(split)
        check_integer("k", k, 1)
        part = train_graph.partition
        if part is None:
            raise ValueError("scoring needs a bipartite partition")
        if part != splits.partition:
            # items are offset by one partition and held-out items mapped
            # by the other: a mismatch would rank the wrong columns
            raise ValueError(f"train_graph has {part}, but the split has "
                             f"{splits.partition}")
        held_out = splits.test if split == "test" else splits.val
        if held_out.shape[0] == 0:
            raise ValueError(f"no users have {split} edges")
        self.k = k
        self.num_nodes = train_graph.num_nodes
        self.first_item = num_users = part.num_users
        num_items = self.num_nodes - num_users

        # held-out edges as sorted keys user * num_items + item, no repeats
        held_out = held_out.astype(np.int64)
        held_users = held_out[:, 0]
        held_keys = np.unique(held_users * num_items
                              + (held_out[:, 1] - num_users))
        test_counts = np.bincount(held_users, minlength=num_users)
        users = np.flatnonzero(test_counts)
        self.users = users
        self.skipped = num_users - users.shape[0]
        # each key's user as an index into `users`, and its item
        key_rows = np.searchsorted(users, held_keys // num_items)
        key_cols = held_keys % num_items
        key_start = np.searchsorted(key_rows, np.arange(users.shape[0] + 1))

        self.cut = min(k, num_items)
        # the discounts cover every rank below the cut and every ideal list
        ideal_len = min(k, max(num_items, int(test_counts.max())))
        self.discount = np.array([1.0 / float(np.log2(r + 2.0))
                                  for r in range(ideal_len)])
        self.test_counts = test_counts[users]
        self.ideal = np.cumsum(self.discount)[
            np.minimum(k, self.test_counts) - 1]

        # each user's training items, and its held-out keys, as rows of a
        # block of scores (see _Rows)
        adj = train_graph.adjacency
        starts = adj.indptr[users]
        counts = adj.indptr[users + 1] - starts
        cols = adj.indices[_ranges(starts, counts)] - num_users
        rows = np.repeat(np.arange(users.shape[0]), counts)
        self.rows = _Rows(np.arange(users.shape[0]), key_rows, key_cols,
                          key_start, rows * num_items + cols,
                          _starts(counts))

        # the probe: the _PROBE * cut items with the most training edges
        # (ties to the lower item id) in column order, where they are at
        # most a quarter of the items, and each user's training items
        # among them as flat indices into rows of probe scores
        width = _PROBE * self.cut
        self.probe = None
        if 4 * width <= num_items:
            degree = np.diff(adj.indptr[num_users:])
            self.probe = np.sort(np.argsort(-degree, kind="stable")[:width])
            where = np.full(num_items, -1)
            where[self.probe] = np.arange(width)
            inside = where[cols] >= 0
            self.probe_flat = rows[inside] * width + where[cols[inside]]
            self.probe_start = _starts(np.bincount(
                rows[inside], minlength=users.shape[0]))
        # shared through `ranker`'s memo: nothing may write into the state
        for value in (*vars(self).values(), *self.rows):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # non-finite embeddings give nan and inf scores, which are never
    # ranked, so numpy need not warn about them in the block GEMM, the
    # probe or the fallback GEMVs
    @np.errstate(invalid="ignore", over="ignore")
    def __call__(self, X: np.ndarray) -> EvalResult:
        k, cut = self.k, self.cut
        per_user = np.zeros((self.users.shape[0], 3))
        for pos, rows, rank in self._ranked(X, False):
            hit = rank < cut
            # sequential sums in rank order, as the scalar definition adds them
            gains = np.zeros((len(pos), cut))
            gains[rows[hit], rank[hit]] = self.discount[rank[hit]]
            dcg = np.cumsum(gains, axis=1)[:, -1]
            hits = np.bincount(rows[hit], minlength=len(pos))
            per_user[pos, 0] = hits / k
            per_user[pos, 1] = hits / self.test_counts[pos]
            per_user[pos, 2] = dcg / self.ideal[pos]
        # a running sum in user order, as a per-user loop would add them
        evaluated = self.users.shape[0]
        prec, rec, ndcg = np.cumsum(per_user, axis=0)[-1] / evaluated
        return EvalResult(k=k, precision=float(prec), recall=float(rec),
                          ndcg=float(ndcg), users_evaluated=evaluated,
                          users_skipped=self.skipped)

    @np.errstate(invalid="ignore", over="ignore")
    def recall(self, X: np.ndarray) -> float:
        """`self(X).recall`: its per-user summands, in user order."""
        per_user = np.zeros(self.users.shape[0])
        for pos, rows, rank in self._ranked(X, True):
            hits = np.bincount(rows[rank < self.cut], minlength=len(pos))
            per_user[pos] = hits / self.test_counts[pos]
        return float(np.cumsum(per_user)[-1] / self.users.shape[0])

    def _ranked(self, X: np.ndarray, hits_only: bool):
        """Per block of score rows: the rows' positions in `users`, and each
        held-out key's row and `_ranks` rank, less the probe's proven users."""
        X = np.asarray(X)
        if X.dtype.kind != "f":
            raise ValueError(f"X must have a real floating-point dtype, got "
                             f"{X.dtype}")
        if X.ndim != 2 or X.shape[0] != self.num_nodes:
            raise ValueError(
                f"X must be a 2-d array with one row per node of train_graph "
                f"({self.num_nodes}), got shape {X.shape}")
        users, cut = self.users, self.cut
        items = X[self.first_item:]
        num_items = items.shape[0]
        Y = X[users]
        dtype, scale, norms, offset = _score_error(Y, items)
        block_items = items.astype(dtype, copy=False)
        Y = Y.astype(dtype, copy=False)
        ranked = self.rows
        if self.probe is not None:
            keep = self._unproven(Y, block_items, (scale, norms, offset))
            ranked = ranked.take(keep, num_items)
            Y, scale, offset = Y[keep], scale[keep], offset[keep]
        for lo, hi, S in _blocks(Y, block_items, ranked.mask_flat,
                                 ranked.mask_start):
            a, b = ranked.key_start[lo], ranked.key_start[hi]
            rows, cols = ranked.key_rows[a:b] - lo, ranked.key_cols[a:b]
            bound = (scale[lo:hi], norms, offset[lo:hi])
            rank, sure = _ranks(S, rows, cols, bound, cut, hits_only)
            # each user with an unsure item: one GEMV, evaluate_scalar's
            # scores, ranks its held-out items exactly; E is made only here
            # (made on every call, its page faults slowed small calls)
            if not sure.all():
                again = np.unique(rows[~sure])
                redo = ranked.take(lo + again, num_items)
                E = np.empty((redo.pos.shape[0], num_items), dtype=X.dtype)
                for e, p in zip(E, redo.pos):
                    np.matmul(items, X[users[p]], out=e)
                E.put(redo.mask_flat, -np.inf)
                zero = np.zeros(E.shape[0])
                rank[np.isin(rows, again)] = _ranks(
                    E, redo.key_rows, redo.key_cols, (zero, norms, zero),
                    cut, hits_only)[0]
            yield ranked.pos[lo:hi], rows, rank

    def _unproven(self, Y: np.ndarray, block_items: np.ndarray,
                  bound) -> np.ndarray:
        """Positions in `users` of the users with a held-out item that the
        probe, as `Ranker` describes it, does not prove a miss, ascending."""
        cut, rows, cols = self.cut, self.rows.key_rows, self.rows.key_cols
        width = self.probe.shape[0]
        kth = np.empty(Y.shape[0], dtype=Y.dtype)
        for lo, hi, S in _blocks(Y, block_items[self.probe], self.probe_flat,
                                 self.probe_start):
            # nan would partition above every score, +inf would be counted
            if not np.isfinite(S.max()):
                S[~np.isfinite(S)] = -np.inf
            S.partition(width - cut, axis=1)
            kth[lo:hi] = S[:, width - cut]
        t = np.einsum("ij,ij->i", Y[rows], block_items[cols])
        m = _margins(bound, rows, cols)[1]
        return np.unique(rows[~(kth[rows] - t.astype(np.float64) > m)])


class _Rows(NamedTuple):
    """Users ranked as consecutive rows of score blocks, row r for the
    user at position pos[r] among the Ranker's users: the held-out keys
    of rows lo:hi are (key_rows, key_cols)[key_start[lo]:key_start[hi]],
    and their training items, as flat indices into a block of rows of
    num_items scores that starts at row 0, mask_flat[mask_start[lo]:
    mask_start[hi]]."""

    pos: np.ndarray
    key_rows: np.ndarray
    key_cols: np.ndarray
    key_start: np.ndarray
    mask_flat: np.ndarray
    mask_start: np.ndarray

    def take(self, keep: np.ndarray, num_items: int) -> _Rows:
        """The rows `keep`, ascending, alone and numbered from 0."""
        new = np.arange(keep.shape[0])
        key_counts = np.diff(self.key_start)[keep]
        keys = _ranges(self.key_start[keep], key_counts)
        mask_counts = np.diff(self.mask_start)[keep]
        masked = _ranges(self.mask_start[keep], mask_counts)
        shift = np.repeat((new - keep) * num_items, mask_counts)
        return _Rows(self.pos[keep], np.repeat(new, key_counts),
                     self.key_cols[keys], _starts(key_counts),
                     self.mask_flat[masked] + shift, _starts(mask_counts))


def _blocks(Y: np.ndarray, items: np.ndarray, flat: np.ndarray,
            start: np.ndarray):
    """(lo, hi, S) per block of consecutive rows lo:hi of Y: S, in one
    reused buffer, holds their scores against `items`, one GEMM in Y's
    dtype, with their training entries flat[start[lo]:start[hi]] (flat
    indices into rows of len(items) scores from row 0) set to -inf.  A
    block has at least one row, and at most `_BLOCK_BYTES` of scores."""
    n, width = Y.shape[0], items.shape[0]
    block = max(1, _BLOCK_BYTES // (Y.dtype.itemsize * width))
    buf = np.empty((min(block, n), width), dtype=Y.dtype)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        S = buf[:hi - lo]
        np.matmul(Y[lo:hi], items.T, out=S)
        masked = flat[start[lo]:start[hi]]
        S.put(masked - lo * width if lo else masked, -np.inf)
        yield lo, hi, S


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices starts[i] .. starts[i] + counts[i] - 1, range after
    range."""
    return (np.repeat(starts - np.cumsum(counts) + counts, counts)
            + np.arange(int(counts.sum())))


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of `counts` entries starts, and the
    end of the last."""
    return np.concatenate(([0], np.cumsum(counts)))


@np.errstate(over="ignore", invalid="ignore")
def _score_error(Y: np.ndarray, items: np.ndarray):
    """The block product's dtype, and per user row y and item row x_j a
    bound on how far the block score of (y, x_j) may lie from `x_j @ y`
    as the per-user GEMV of `reference.evaluate_scalar` computes it.

    Returns `(dtype, scale, norms, offset)`; the bound is
    `scale[r] * norms[j] + offset[r]`, already doubled as below.

    Any floating-point evaluation of a length-d dot product, summed in any
    order, with or without FMA, is within `gamma_d * sum|x_k y_k| + 4d * t`
    of the exact value, where `gamma_n = n*u / (1 - n*u)`, u is the unit
    roundoff and the smallest normal number t covers underflow, gradual or
    flushed to zero, in the 2d - 1 operations (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1).  By
    Cauchy-Schwarz the sum is at most `||y|| * ||x_j||`.

    For float64 input the block product runs in float32 on casts of y and
    x_j (mixed precision: Higham and Mary, Acta Numerica 31, 2022).  A
    cast moves each entry v by at most `u|v| + t`, so a product of two
    casts is `y_k x_k (1 + theta_2)` plus at most `t (|x_k| + |y_k|)
    (1 + u) + t^2`; the two extra relative roundings make the float32
    score `gamma_{d+2} * ||y|| * ||x_j||` from the exact product, and the
    absolute terms, summed over k with `sum|v_k| <= sqrt(d) ||v||` and
    carried through the sum, add at most
    `3 sqrt(d) t (||x_j|| + ||y||) + 5d * t` (t and u of float32).  The
    float64 GEMV is within `gamma_d * ||y|| * ||x_j|| + 4d * t` (float64)
    of the same exact product, and the bound is the sum of the two.
    Without a cast (float32 input, or float64 input kept in float64) the
    block adds `gamma_d` and `5d * t` of its own dtype instead.

    The norms are float64, raised by `pad` to cover squares lost to
    underflow.  The bound is doubled, which covers the rounding of the
    norms, of the bound and of the gaps it is compared with.  The block
    stays in X's dtype unless the input is float64, every finite row
    norm and the product of the largest finite user and item norms are
    within float32's largest value / 8, so that no finite entry casts to
    inf and no float32 score or partial sum can overflow, and that product
    is at least the square root of float32's smallest normal number, so
    that the absolute terms stay below the relative ones by about 2^36
    rather than swamping scores that underflow in float32.  A row with a
    non-finite entry scores nan or +-inf on either path and is never
    ranked: its item norm is 0 and leaves the other users' bounds alone,
    while a user of such a row gets an infinite offset, as does a user
    with `||y|| * max ||x||` not within the block dtype's largest value / 8,
    and every user for floating dtypes other than float32/float64.  A user
    row of zeros scores an exact +-0 (or nan) on both paths: its bound is 0.
    """
    n = Y.shape[0]
    truth = items.dtype
    if truth not in (np.float32, np.float64):
        return (np.result_type(Y, items), np.zeros(n),
                np.zeros(items.shape[0]), np.full(n, np.inf))
    d = items.shape[1]
    y_norms, x_norms = _norms(Y), _norms(items)
    y_max = np.fmax.reduce(y_norms, initial=0.0)
    x_max = np.fmax.reduce(x_norms, initial=0.0)
    single = np.finfo(np.float32)
    high = float(single.max) / 8
    dtype = truth
    if (truth == np.float64 and y_max <= high and x_max <= high
            and np.sqrt(float(single.tiny)) <= y_max * x_max <= high):
        dtype = np.dtype(np.float32)
    block, gemv = np.finfo(dtype), np.finfo(truth)
    cast = dtype != truth
    gamma = _gamma(d + 2 * cast, block) + _gamma(d, gemv)
    spread = 3 * np.sqrt(d) * float(block.tiny) if cast else 0.0
    floor = 5 * d * float(block.tiny) + 4 * d * float(gemv.tiny)
    scale = y_norms * (2 * gamma) + 2 * spread
    offset = y_norms * (2 * spread) + 2 * floor
    offset[~(y_norms * x_max <= float(block.max) / 8)] = np.inf
    zero = ~Y.any(axis=1)
    scale[zero] = 0.0
    offset[zero] = 0.0
    return (dtype, scale, np.where(np.isfinite(x_norms), x_norms, 0.0),
            offset)


def _gamma(n: int, info: np.finfo) -> float:
    """Higham's `gamma_n = n*u / (1 - n*u)` for the unit roundoff u of
    `info`; inf where n*u > 1/2, which the absolute terms of
    `_score_error` rule out (they take 1 + gamma_d <= 2)."""
    nu = n * float(info.eps) / 2
    return nu / (1 - nu) if nu <= 0.5 else np.inf


def _norms(A: np.ndarray) -> np.ndarray:
    """float64 row norms of A plus `sqrt(d * tiny)`, which covers squares
    lost to underflow; inf for a finite row whose squares overflow, nan
    for a row with a non-finite entry."""
    pad = np.sqrt(A.shape[1] * np.finfo(np.float64).tiny)
    norms = np.sqrt(np.einsum("ij,ij->i", A, A, dtype=np.float64)) + pad
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.shape[0]:
        norms[bad] = np.where(np.isfinite(A[bad]).all(axis=1), np.inf, np.nan)
    return norms


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


def _ranks(S: np.ndarray, rows: np.ndarray, cols: np.ndarray, bound,
           cut: int, hits_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each score S[rows, cols] in its row, and whether it is sure.

    First every nan and +-inf score of S is set to -inf, in place: such
    items are never ranked.  The rank is the position in a stable
    descending sort of the row's finite scores: the scores above, plus the
    equal ones in lower columns.  A rank of `cut` or more is a miss, as is
    -inf.  `bound = (scale, norms, offset)` bounds how far another rounding
    of the same products may move each score: item j's score in row r by
    `w = scale[r] * norms[j] + offset[r]`.  Two items of a row may swap
    only when their scores lie within the sum of their two bounds, the
    pair's margin; `norms` is finite.  An item's margin m to any other
    item of its row takes the row's largest bound.

    The row's columns fall into G groups (8 * cut where that leaves two or
    more columns per group, else one per column), column j into group
    j % G, and `kth` is the cut-th best of the G group maxima.
    These are distinct scores of the row, so at least `cut` scores lie at
    or above `kth`, and an item that `kth` beats by more than m misses
    under any rounding.  Two of the row's `cut` best maxima within a
    positive m of the item make it unsure (one of them is another item's
    score).  Otherwise, with one group per column and `cut` below the
    width, the groups are the row itself, and its (cut+1)-th best score
    bounds every score outside its `cut` best.  An item with m > 0 that
    beats that score by more than m is among the `cut` best, and every
    score outside them lies below it by more than any pair margin; no
    other of the `cut` best lies within m of it.  Its rank is then the
    count of the `cut` best that beat it by more than m, and it is sure.
    The count over the whole row gives the same rank and flag: each pair
    margin it compares with is at most m (up to the rounding of their
    sums, which can only move a gap within an ulp of m from "above" to
    "within" and make that count unsure, never change a proven rank).
    (At m = 0 equal scores rank by column, which the maxima do not keep.)
    With `hits_only`, an item with a finite m that beats that score by
    more than m is a sure hit at rank 0, crowded or at m = 0 (fewer than
    `cut` scores can beat it), and it is not counted.
    Any other item's rank is `_count_ranks` over its whole row.  At bound
    0 every rank is exact; a non-finite bound makes nothing sure.
    """
    width = S.shape[1]
    G = _group_count(width, cut)
    heads = np.empty((S.shape[0], G), dtype=S.dtype)
    _group_maxima(S, heads)
    # nan and +inf reach the maxima (so does a block of only -inf scores)
    if not np.isfinite(heads.max()):
        S[~np.isfinite(S)] = -np.inf
        _group_maxima(S, heads)
    # heads[:, G - cut:] are the cut best maxima, heads[:, G - cut] the
    # least of them, and where the groups are the row, heads[:, G - cut - 1]
    # the row's (cut+1)-th best score.  (On 200-column rows a sort took
    # 64 us, a partition at one index 91 us and at two 494 us.)
    below = G == width > cut
    if G == width:
        heads.sort(axis=1)
    else:
        heads.partition(G - cut, axis=1)
    kth = heads[:, G - cut]
    t = S[rows, cols].astype(np.promote_types(S.dtype, np.float64))
    rank = np.full(rows.shape[0], cut)
    # differences, in float64 or a wider score dtype, not sums, are
    # compared with margins: rounding is monotone and m is a float, so a
    # rounded difference exceeds m only if the exact one does.  -inf - -inf
    # is nan (such items are misses anyway), and scores near overflow come
    # only with bound 0, where an infinite difference has the right sign.
    with np.errstate(invalid="ignore", over="ignore"):
        own, m = _margins(bound, rows, cols)
        sure = np.isfinite(m)
        near = np.flatnonzero(sure & (t > -np.inf) & ~(kth[rows] - t > m))
        # clear of the (cut+1)-th best score: among the row's cut best
        clear = below & (t[near] - heads[rows[near], G - cut - 1].astype(
            t.dtype) > m[near])
        if hits_only:
            rank[near[clear]] = 0
            near, clear = near[~clear], clear[~clear]
        if near.shape[0]:
            tn, mn = t[near], m[near]
            # two of the row's `cut` best maxima within a positive margin:
            # they are distinct scores, one is another item's, so the item
            # is unsure without a count (sparing rows of ties the count)
            top = heads[rows[near], G - cut:]
            crowded = (mn > 0) & (np.count_nonzero(
                np.abs(top - tn[:, None]) <= mn[:, None], axis=1) > 1)
            sure[near[crowded]] = False
            # a clear item's rank: the count of the top cut above it
            clear &= ~crowded & (mn > 0)
            rank[near[clear]] = np.count_nonzero(
                top[clear] - tn[clear, None] > mn[clear, None], axis=1)
            _count_ranks(S, rows, cols, t, own, bound, cut,
                         near[~(crowded | clear)], rank, sure)
    return rank, sure


def _margins(bound, rows: np.ndarray, cols: np.ndarray):
    """Each item's own bound `w`, and its margin m to any other item of its
    row: w plus the row's largest bound (see `_ranks`)."""
    scale, norms, offset = bound
    own = scale[rows] * norms[cols] + offset[rows]
    return own, own + (scale * norms.max(initial=0.0) + offset)[rows]


def _count_ranks(S, rows, cols, t, own, bound, cut, near, rank, sure):
    """Set rank[i] and sure[i] of each item i in `near` by a count over
    its whole row, as `_ranks` defines them: the scores above t[i] by
    more than the pair's margin, plus those within it in lower columns,
    sure only where no other score lies within the margin (or the count
    reaches `cut`, or the row's bound is 0).  `own` is each item's own
    bound.  A quarter of S's row count is counted at a time, so that the
    differences stay in cache."""
    scale, norms, offset = bound
    exact = (scale == 0) & (offset == 0)
    columns = np.arange(S.shape[1])
    step = max(1, S.shape[0] // 4)
    for lo in range(0, near.shape[0], step):
        i = near[lo:lo + step]
        r = rows[i]
        D = np.subtract(S[r], t[i, None], dtype=t.dtype)
        # each pair's margin: the item's own bound plus the other's
        M = np.multiply.outer(scale[r], norms)
        M += (own[i] + offset[r])[:, None]
        above = np.count_nonzero(D > M, axis=1)
        within = np.abs(D, out=D) <= M
        ties = np.count_nonzero(within & (columns < cols[i, None]), axis=1)
        rank[i] = np.where(above < cut, above + ties, cut)
        sure[i] = ((above >= cut) | exact[r]
                   | (np.count_nonzero(within, axis=1) == 1))


def mean_result(results) -> EvalResult:
    """Average EvalResults across repetition seeds (same k required)."""
    results = list(results)
    if not results:
        raise ValueError("no results to average")
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
