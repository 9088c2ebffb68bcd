"""Negative edge sampling.

Negatives are sampled once, up front, and then held fixed for the whole
training run.  Each positive edge contributes one anchor (its lower
endpoint, i.e. the user in the bipartite case) and we draw a partner that
anchor is *not* connected to.  The resulting set is disjoint from the
positive edges, free of duplicates, and symmetric by construction since we
store canonical pairs.

A set depends on the graph and the sampling arguments alone, so it is drawn
once per graph and setting and kept, read-only, in the graph's memo: every
model that trains on one graph with one seed, such as each model of a
`run_experiment` seed, shares that set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from linkprop.graphs import (Graph, _pairs_to_csr, check_integer,
                             degree_power_weights, read_only)

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


def check_sampling(strategy: str, per_positive: int, exponent: float) -> None:
    """Raise ValueError, naming the field, on a bad sampling setting."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got "
                         f"{strategy!r}")
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

    The arguments are checked first.  The set is then kept in the graph's
    memo under all of them, and every later call with the same arguments
    returns that same object, its `pairs` and adjacency read-only.  A
    `QuotaUnreachable` is never kept, so it is raised again on every call.
    """
    check_sampling(strategy, per_positive, exponent)
    check_integer("seed", seed, 0)
    check_integer("max_tries", max_tries, 1)
    return graph.memoized(
        ("negatives", per_positive, strategy, exponent, seed, max_tries),
        lambda: _sample(graph, per_positive, strategy, exponent, seed,
                        max_tries))


def _sample(graph: Graph, per_positive: int, strategy: str, exponent: float,
            seed: int, max_tries: int) -> NegativeSet:
    """The draw behind `sample_negatives`, on checked arguments.

    Draws are made `_BATCH` at a time; a batch of draws equals as many single
    draws from the same generator, so the result does not depend on the batch
    size.  Pairs are tracked as keys lo * n + hi, which sort like the pairs;
    one set holds the edges' keys and every accepted one.
    """
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
    seen = set((edges[:, 0] * n + edges[:, 1]).tolist())
    keys: list[int] = []
    # every partner the generator gives, in draw order, a batch per call
    stream = itertools.chain.from_iterable(iter(draw, None))
    for anchor in edges[:, 0].tolist():
        base = anchor * n
        slots, tries = per_positive, 0
        for partner in stream:
            if partner != anchor:
                key = (base + partner if anchor < partner
                       else partner * n + anchor)
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
                    slots -= 1
                    if not slots:
                        break
                    tries = 0
                    continue
            tries += 1
            if tries == max_tries:
                raise QuotaUnreachable(edges.shape[0] * per_positive,
                                       len(keys), _key_pairs(keys, n))

    pairs = _key_pairs(keys, n)
    pairs.flags.writeable = False
    return NegativeSet(num_nodes=n, pairs=pairs, strategy=strategy, seed=seed,
                       adjacency=read_only(_pairs_to_csr(pairs, n)))


def _key_pairs(keys: list[int], n: int) -> np.ndarray:
    """(m, 2) pairs from keys lo * n + hi, in sorted order."""
    ordered = np.sort(np.array(keys, dtype=np.int64))
    return np.stack(np.divmod(ordered, n), axis=1)
