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

from linkprop.graphs import Graph, _pairs_to_csr, check_integer

STRATEGIES = ("uniform", "degree_power")

# partner draws per generator call
_BATCH = 4096


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


def degree_power_weights(degrees: np.ndarray, exponent: float) -> np.ndarray:
    """Unnormalized sampling weights deg**exponent, zero degrees stay zero."""
    weights = np.zeros(degrees.shape[0])
    nz = degrees > 0
    weights[nz] = degrees[nz].astype(float) ** exponent
    return weights


def check_sampling(strategy: str, per_positive: int, exponent: float) -> None:
    """Raise ValueError, naming the field, on a bad sampling setting."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    check_integer("per_positive", per_positive, 1)
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

    Draws are made `_BATCH` at a time; a batch of draws equals as many single
    draws from the same generator, so the result does not depend on the batch
    size.  Pairs are tracked as keys lo * n + hi, which sort like the pairs.
    """
    check_sampling(strategy, per_positive, exponent)
    check_integer("seed", seed, 0)
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    # partners are offset + the index of a draw among the candidates
    offset = graph.partition.num_users if graph.partition is not None else 0

    if strategy == "degree_power":
        weights = degree_power_weights(graph.degrees[offset:], exponent)
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

    def draw() -> list[int]:
        if cum is None:
            picks = rng.integers(n - offset, size=_BATCH)
        else:
            picks = np.searchsorted(cum, rng.random(_BATCH) * cum[-1],
                                    side="right")
        return (picks + offset).tolist()

    edges = graph.edges
    forbidden = set((edges[:, 0] * n + edges[:, 1]).tolist())
    taken: set[int] = set()
    partners: list[int] = []
    used = 0
    for anchor in edges[:, 0].tolist():
        for _ in range(per_positive):
            for _ in range(max_tries):
                if used == len(partners):
                    partners, used = draw(), 0
                partner = partners[used]
                used += 1
                if partner == anchor:
                    continue
                key = (anchor * n + partner if anchor < partner
                       else partner * n + anchor)
                if key in forbidden or key in taken:
                    continue
                taken.add(key)
                break
            else:
                raise QuotaUnreachable(edges.shape[0] * per_positive,
                                       len(taken), _key_pairs(taken, n))

    pairs = _key_pairs(taken, n)
    return NegativeSet(num_nodes=n, pairs=pairs, strategy=strategy, seed=seed,
                       adjacency=_pairs_to_csr(pairs, n))


def _key_pairs(keys: set[int], n: int) -> np.ndarray:
    """(m, 2) pairs from keys lo * n + hi, in sorted order."""
    ordered = np.sort(np.fromiter(keys, dtype=np.int64, count=len(keys)))
    return np.stack(np.divmod(ordered, n), axis=1)
