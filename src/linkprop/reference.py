"""Slow, dense reference implementations used as oracles in the test suite.

Everything here is written directly off the defining formulas with plain
numpy and explicit loops, no sparse matrices and no shared helpers from the
fast modules.  Keep it that way: these functions are the independent yardstick
the vectorized code is checked against, so they must not reuse it.
"""

from __future__ import annotations

import math

import numpy as np

DENSE_LIMIT = 500


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


def sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


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
    scores are the same per-user product `items @ X[user]` the fast path
    computes, so the two agree bit for bit.  Returns the EvalResult fields
    as a tuple: (k, precision, recall, ndcg, users_evaluated, users_skipped).
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


def dense_kernel_step(X: np.ndarray, c1: float, c2: float, c3: float,
                      P1: np.ndarray, P2: np.ndarray, A_neg_norm: np.ndarray,
                      A_raw: np.ndarray, B_raw: np.ndarray,
                      lam: float) -> np.ndarray:
    """One propagation update assembled entirely from dense pieces.

    Residual weights come from sigmoids of propagated scores; the link
    kernels blend the positive high-order proximity matrix P2 / the
    normalized negative adjacency against the raw 0/1 adjacencies with
    coefficient c3.
    """
    Y = P1 @ X
    S = Y @ Y.T
    S_A = np.vectorize(sigmoid_scalar)(-S)
    S_B = np.vectorize(sigmoid_scalar)(S)
    K_pos = S_A * (c3 * P2 + (1.0 - c3) * A_raw)
    K_neg = S_B * (c3 * A_neg_norm + (1.0 - c3) * B_raw)
    H = dense_propagation_matrix(c1, c2, P1, K_pos, K_neg, lam)
    return H @ X
