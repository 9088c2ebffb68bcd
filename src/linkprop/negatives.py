"""Negative edge sampling.

Negatives are sampled once, up front, and then held fixed for the whole
training run.  Each positive edge contributes one anchor (its lower
endpoint, i.e. the user in the bipartite case) and we draw a partner that
anchor is *not* connected to.  The resulting set is disjoint from the
positive edges, free of duplicates, and symmetric by construction since we
store canonical pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from linkprop.graphs import Graph, _pairs_to_csr

STRATEGIES = ("uniform", "degree_power")


class QuotaUnreachable(RuntimeError):
    """Raised when rejection sampling cannot fill the requested quota.

    Carries the partial result so callers can inspect how far sampling got.
    """

    def __init__(self, requested: int, achieved: int, pairs: np.ndarray):
        self.requested = requested
        self.achieved = achieved
        self.pairs = pairs
        super().__init__(
            f"negative sampling exhausted its tries: {achieved} of "
            f"{requested} negatives found")


@dataclass(frozen=True, eq=False)
class NegativeSet:
    """Fixed set of sampled non-edges with its 0/1 adjacency."""

    num_nodes: int
    pairs: np.ndarray  # (m, 2), canonical order like Graph.edges
    strategy: str
    seed: int
    adjacency: sp.csr_array = field(repr=False)

    @property
    def num_pairs(self) -> int:
        return self.pairs.shape[0]


def degree_power_weights(degrees: np.ndarray, exponent: float = 0.75) -> np.ndarray:
    """Unnormalized sampling weights deg**exponent, zero degrees stay zero."""
    weights = np.zeros(degrees.shape[0])
    nz = degrees > 0
    weights[nz] = degrees[nz].astype(float) ** exponent
    return weights


def check_sampling(strategy: str, per_positive: int, exponent: float) -> None:
    """Raise ValueError, naming the field, on a bad sampling setting."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    if per_positive < 1:
        raise ValueError(f"per_positive must be >= 1, got {per_positive}")
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")


def sample_negatives(graph: Graph, per_positive: int = 1,
                     strategy: str = "uniform", exponent: float = 0.75,
                     seed: int = 0, max_tries: int = 200) -> NegativeSet:
    """Sample `per_positive` negatives for every positive edge.

    Anchors are the lower endpoints of the positive edges; partners are drawn
    from the item side for bipartite graphs and from all other nodes
    otherwise, uniformly or proportional to degree**exponent.  A draw is
    rejected when it hits an existing edge, a self pair, or a previously
    sampled negative.  After `max_tries` failed draws for a single slot the
    whole call aborts with :class:`QuotaUnreachable`.
    """
    check_sampling(strategy, per_positive, exponent)
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    if graph.partition is not None:
        lo = graph.partition.num_users
        candidates = np.arange(lo, n)
    else:
        candidates = np.arange(n)

    if strategy == "degree_power":
        weights = degree_power_weights(graph.degrees[candidates], exponent)
        total = weights.sum()
        if total <= 0:
            raise ValueError("degree_power sampling needs at least one "
                             "candidate with positive degree")
        if not np.isfinite(total):
            raise ValueError(f"exponent {exponent} overflows the degree_power "
                             "weights")
        cum = np.cumsum(weights)
    else:
        cum = None

    forbidden = {(int(u), int(v)) for u, v in graph.edges}
    taken: set[tuple[int, int]] = set()
    anchors = np.repeat(graph.edges[:, 0], per_positive)
    requested = anchors.shape[0]
    out = np.empty((requested, 2), dtype=np.int64)

    for slot, anchor in enumerate(anchors):
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
            out[slot] = pair
            break
        else:
            achieved = np.array(sorted(taken), dtype=np.int64).reshape(-1, 2)
            raise QuotaUnreachable(requested, len(taken), achieved)

    pairs = np.unique(out, axis=0)
    return NegativeSet(num_nodes=n, pairs=pairs, strategy=strategy, seed=seed,
                       adjacency=_pairs_to_csr(pairs, n))
