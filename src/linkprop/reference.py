"""Slow, dense reference implementations used as oracles in the test suite.

Everything here is written directly off the defining formulas with plain
numpy and explicit loops, no sparse matrices and no shared helpers from the
fast modules.  Keep it that way: these functions are the independent yardstick
the vectorized code is checked against, so they must not reuse it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def dense_adjacency(edges, n: int) -> np.ndarray:
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = 1.0
        A[v, u] = 1.0
    return A


def dense_normalize(A: np.ndarray, scheme: str) -> np.ndarray:
    if scheme == "none":
        return A.copy()
    deg = A.sum(axis=1)
    inv = np.array([0.0 if d == 0 else 1.0 / d for d in deg])
    if scheme == "row":
        return inv[:, None] * A
    if scheme == "symmetric":
        half = np.sqrt(inv)
        return half[:, None] * A * half[None, :]
    raise ValueError(scheme)


def dense_proximity(M: np.ndarray, low: int, high: int) -> np.ndarray:
    """Average of matrix powers low..high, power 0 being the identity."""
    n = M.shape[0]
    acc = np.zeros((n, n))
    term = np.eye(n)
    for power in range(high + 1):
        if power > 0:
            term = M @ term
        if power >= low:
            acc += term
    return acc / (high - low + 1)


def dense_weights(graph, negatives, params):
    """(W_pos, W_neg, P) of one model, dense and spelled from its formula,
    not from the library's table of constants; P is None where scores use
    X itself.  Reads graph.edges, graph.num_nodes, negatives.pairs and
    params.model, .window and .layers."""
    n = graph.num_nodes
    A = dense_adjacency(graph.edges, n)
    B = dense_adjacency(negatives.pairs, n)
    P = None
    if params.model == "mf":
        W_pos, W_neg = A, B
    elif params.model == "line":
        R = dense_normalize(A, "row")
        W_pos, W_neg = 0.5 * (R + R.T), B
    elif params.model == "deepwalk":
        R = dense_proximity(dense_normalize(A, "row"), 1, params.window)
        RB = dense_normalize(B, "row")
        W_pos, W_neg = 0.5 * (R + R.T), 0.5 * (RB + RB.T)
    elif params.model == "lightgcn":
        W_pos, W_neg = A, B
        P = dense_proximity(dense_normalize(A, "symmetric"), 0, params.layers)
    else:
        raise ValueError(params.model)
    return W_pos, W_neg, P


def sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_masked(z) -> np.ndarray:
    """The logistic function by a masked divide, the oracle of
    `losses.sigmoid`'s select-free form: e / (1 + e) everywhere, e =
    exp(-|z|), then 1 / (1 + e) over it where z >= 0."""
    z = np.asarray(z)
    e = np.asarray(np.exp(np.minimum(z, -z)))
    d = 1.0 + e
    np.divide(e, d, out=e)
    return np.divide(1.0, d, out=e, where=z >= 0)


def log_sigmoid_scalar(x: float) -> float:
    # log sigma(x) = -log(1 + exp(-x)), stable on both tails
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def brute_force_loss(X: np.ndarray, W_pos: np.ndarray, W_neg: np.ndarray,
                     lam: float = 1.0, beta: float = 0.0,
                     P: np.ndarray | None = None) -> float:
    """Scalar double-loop evaluation of the weighted pairwise logistic loss.

    Scores are inner products of the (optionally propagated) embedding rows;
    every ordered pair contributes through both weight matrices, and the
    whole double sum is halved.  The quadratic penalty applies to the raw
    embeddings even when scores use propagated ones.
    """
    Y = X if P is None else P @ X
    n = Y.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            wp = W_pos[i, j]
            wn = W_neg[i, j]
            if wp == 0.0 and wn == 0.0:
                continue
            s = float(np.dot(Y[i], Y[j]))
            if wp != 0.0:
                total -= wp * log_sigmoid_scalar(s)
            if wn != 0.0:
                total -= lam * wn * log_sigmoid_scalar(-s)
    total *= 0.5
    total += 0.5 * beta * float((X * X).sum())
    return total


def gathered_scores(Y: np.ndarray, rows, cols) -> np.ndarray:
    """y_u . y_v for each pair (u, v) of `rows` and `cols`, as the support
    scores were computed before dense blocks were scored by a Gram: both
    rows of 1024 pairs at a time gathered into two C-ordered arrays and
    each pair's d products summed by one einsum.  Bit for bit this is what
    the library's scores must give."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.empty(rows.shape[0], dtype=Y.dtype)
    for start in range(0, rows.shape[0], 1024):
        block = slice(start, start + 1024)
        np.einsum("ij,ij->i", Y[rows[block]], Y[cols[block]], out=out[block])
    return out


def finite_difference_gradient(loss_fn, X: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar loss, one probe per entry."""
    grad = np.zeros_like(X)
    probe = X.copy()
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            orig = probe[i, j]
            probe[i, j] = orig + h
            up = loss_fn(probe)
            probe[i, j] = orig - h
            down = loss_fn(probe)
            probe[i, j] = orig
            grad[i, j] = (up - down) / (2.0 * h)
    return grad


def gradient_relative_error(exact: np.ndarray, approx: np.ndarray) -> float:
    """max|exact - approx| / max(1, max|exact|)."""
    denom = max(1.0, float(np.abs(exact).max(initial=0.0)))
    return float(np.abs(exact - approx).max(initial=0.0)) / denom


def metrics_scalar(ranked, relevant, k: int):
    """(precision, recall, ndcg) at k, spelled out one rank at a time."""
    relevant = set(int(r) for r in relevant)
    if not relevant:
        raise ValueError("no relevant items")
    hits = 0
    dcg = 0.0
    for position, item in enumerate(list(ranked)[:k]):
        if int(item) in relevant:
            hits += 1
            dcg += 1.0 / math.log2(position + 2.0)
    idcg = 0.0
    for position in range(min(k, len(relevant))):
        idcg += 1.0 / math.log2(position + 2.0)
    return hits / k, hits / len(relevant), dcg / idcg


def evaluate_scalar(X: np.ndarray, splits, train_graph, k: int = 20,
                    split: str = "test"):
    """Full-ranking metrics at k, one user and one item at a time.

    Every user with a held-out edge ranks the items it has no training edge
    to and whose score is finite, by descending score and then ascending
    item id; per-user metrics are added in user order and averaged.  The
    scores are the per-user product `items @ X[user]`.  `ranking.evaluate`
    counts each held-out item's rank instead of sorting, from a block
    product where a rounding margin proves the count, and from this
    per-user product otherwise, so the two agree bit for bit.  Returns the
    EvalResult fields as a tuple: (k, precision, recall, ndcg,
    users_evaluated, users_skipped).
    """
    num_users = splits.partition.num_users
    held_out = splits.test if split == "test" else splits.val
    relevant: dict[int, list] = {}
    for user, item in held_out:
        relevant.setdefault(int(user), []).append(int(item) - num_users)
    seen: dict[int, set] = {}
    for user, item in train_graph.edges:
        seen.setdefault(int(user), set()).add(int(item) - num_users)
    items = X[num_users:]
    totals = [0.0, 0.0, 0.0]
    evaluated = 0
    for user in range(num_users):
        if user not in relevant:
            continue
        scores = items @ X[user]
        trained = seen.get(user, set())
        candidates = [i for i in range(items.shape[0])
                      if i not in trained and math.isfinite(scores[i])]
        ranked = sorted(candidates, key=lambda i: (-scores[i], i))
        for j, value in enumerate(metrics_scalar(ranked, relevant[user], k)):
            totals[j] += value
        evaluated += 1
    return (k, totals[0] / evaluated, totals[1] / evaluated,
            totals[2] / evaluated, evaluated, num_users - evaluated)


def dense_propagation_matrix(c1: float, c2: float, P1: np.ndarray,
                             K_pos: np.ndarray, K_neg: np.ndarray,
                             lam: float) -> np.ndarray:
    """c1 I + c2 P1 (K_pos - lam K_neg) P1, all dense."""
    n = P1.shape[0]
    return c1 * np.eye(n) + c2 * (P1 @ (K_pos - lam * K_neg) @ P1)


def dense_kernel_step(X: np.ndarray, c1: float, c2: float, P1: np.ndarray,
                      W_pos: np.ndarray, W_neg: np.ndarray,
                      lam: float) -> np.ndarray:
    """One propagation update assembled entirely from dense pieces.

    Residual weights come from sigmoids of propagated scores and weight the
    model's masks (dense_weights gives them, and P1) into the link kernels.
    """
    Y = P1 @ X
    S = Y @ Y.T
    K_pos = np.vectorize(sigmoid_scalar)(-S) * W_pos
    K_neg = np.vectorize(sigmoid_scalar)(S) * W_neg
    return dense_propagation_matrix(c1, c2, P1, K_pos, K_neg, lam) @ X


def sample_negatives_scalar(graph, per_positive: int = 1,
                            strategy: str = "uniform", exponent: float = 0.75,
                            seed: int = 0, max_tries: int = 200):
    """Negative sampling one generator call per draw, with sets of tuples.

    The per-draw loop `negatives.sample_negatives` batches: each anchor (the
    lower endpoint of each positive edge, `per_positive` times) draws a
    partner until one is neither itself, an edge, nor taken, or `max_tries`
    draws failed.  Returns (pairs, requested): the taken pairs in sorted
    order, and the number of slots; a quota that could not be filled stops
    at the first slot that ran out of tries, so len(pairs) < requested.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    if graph.partition is not None:
        candidates = np.arange(graph.partition.num_users, n)
    else:
        candidates = np.arange(n)
    cum = None
    if strategy == "degree_power":
        degrees = graph.degrees[candidates]
        weights = np.zeros(degrees.shape[0])
        nz = degrees > 0
        weights[nz] = degrees[nz].astype(float) ** exponent
        cum = np.cumsum(weights)
    forbidden = {(int(u), int(v)) for u, v in graph.edges}
    taken: set = set()
    anchors = np.repeat(graph.edges[:, 0], per_positive)
    for anchor in anchors:
        anchor = int(anchor)
        for _ in range(max_tries):
            if cum is None:
                partner = int(candidates[rng.integers(candidates.shape[0])])
            else:
                partner = int(candidates[np.searchsorted(
                    cum, rng.random() * cum[-1], side="right")])
            if partner == anchor:
                continue
            pair = (anchor, partner) if anchor < partner else (partner, anchor)
            if pair in forbidden or pair in taken:
                continue
            taken.add(pair)
            break
        else:
            break
    pairs = np.array(sorted(taken), dtype=np.int64).reshape(-1, 2)
    return pairs, anchors.shape[0]


def split_dataset_scalar(graph, ratios=(0.8, 0.1, 0.1), seed: int = 0):
    """Per-user split one user and one edge at a time.

    Each user's neighbors are shuffled in user order; the first
    round(m * test ratio) go to test and the next round(m * val ratio) to
    validation, taking back from the larger of the two until train keeps
    one.  Returns (train, val, test, flagged): sorted (user, item) arrays
    and the users left without a test edge.
    """
    rng = np.random.default_rng(seed)
    train, val, test, flagged = [], [], [], []
    for user in range(graph.partition.num_users):
        nbrs = graph.neighbors(user).copy()
        rng.shuffle(nbrs)
        m = nbrs.shape[0]
        n_test = int(round(m * ratios[2]))
        n_val = int(round(m * ratios[1]))
        while m - n_test - n_val < 1 and (n_test > 0 or n_val > 0):
            if n_test >= n_val:
                n_test -= 1
            else:
                n_val -= 1
        test.extend((user, int(i)) for i in nbrs[:n_test])
        val.extend((user, int(i)) for i in nbrs[n_test:n_test + n_val])
        train.extend((user, int(i)) for i in nbrs[n_test + n_val:])
        if n_test == 0:
            flagged.append(user)

    def _arr(rows):
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        return np.unique(np.array(rows, dtype=np.int64), axis=0)

    return _arr(train), _arr(val), _arr(test), tuple(flagged)


def load_edge_list_scalar(path, fmt: str = "auto"):
    """An interaction file parsed one line at a time, the way
    `data_io.load_edge_list` reads any file.

    Lines are `splitlines` of the UTF-8 text, stripped; `#` lines are
    comments, the first one with `checksum=` a canonical header whose edge
    count and checksum are checked; blank lines are skipped.  Pair lines
    split at a tab, else a comma, else whitespace; without a canonical
    header, a first data line naming a header token is skipped.  Adjacency
    lines split at whitespace.  Errors name the file line.  Returns (user
    labels, item labels, edges): labels sorted, users 0..U-1 and items
    U..U+I-1, edges the distinct (user, item) rows in sorted order.
    """
    if fmt not in ("auto", "pairs", "adjlist"):
        raise ValueError(f"unknown format {fmt!r}")
    header_tokens = {"user", "item", "user_id", "item_id", "userid",
                     "itemid", "source", "target", "uid", "iid"}
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    header = None
    data = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            if "checksum=" in stripped and header is None:
                header = stripped
        elif stripped:
            data.append((lineno, stripped))
    if not data:
        raise ValueError(f"{path}: no data lines")

    def pair_fields(line):
        if "\t" in line:
            return line.split("\t")
        if "," in line:
            return line.split(",")
        return line.split()

    if fmt == "auto":
        fmt = "pairs" if len(pair_fields(data[0][1])) == 2 else "adjlist"
    user_col, item_col = [], []
    for k, (lineno, line) in enumerate(data):
        if fmt == "adjlist":
            fields = line.split()
            if len(fields) < 2:
                raise ValueError(f"{path}: line {lineno}: adjacency line "
                                 f"needs a user and at least one item: "
                                 f"{line!r}")
            for item in fields[1:]:
                user_col.append(fields[0])
                item_col.append(item)
            continue
        fields = [f.strip() for f in pair_fields(line) if f.strip()]
        if header is None and k == 0 and len(fields) == 2 and (
                fields[0].lower() in header_tokens
                or fields[1].lower() in header_tokens):
            continue
        if len(fields) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields, "
                             f"got {len(fields)}: {line!r}")
        user_col.append(fields[0])
        item_col.append(fields[1])

    if header is not None:
        declared = {}
        for token in header[1:].split():
            if "=" in token:
                key, value = token.split("=", 1)
                declared[key] = value
        if "edges" in declared and int(declared["edges"]) != len(user_col):
            raise ValueError(f"{path}: header declares {declared['edges']} "
                             f"edges, file has {len(user_col)}")
        body = "".join(line + "\n" for _, line in data)
        if ("checksum" in declared and hashlib.sha256(body.encode("utf-8"))
                .hexdigest() != declared["checksum"]):
            raise ValueError(f"{path}: checksum mismatch: file body does "
                             "not match its canonical header")

    users = sorted(set(user_col))
    items = sorted(set(item_col))
    if not users or not items:
        raise ValueError("partition needs at least one user and one item")
    user_id = {u: k for k, u in enumerate(users)}
    item_id = {i: len(users) + k for k, i in enumerate(items)}
    edges = {(user_id[u], item_id[i]) for u, i in zip(user_col, item_col)}
    return (tuple(users), tuple(items),
            np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
