"""Seeded synthetic graphs: random instances for property tests and the
bundled benchmark shapes.

The block-structured bipartite generator plants group preferences (users of
a block favor that block's items), which is the regime where propagation
models have an edge over plain factorization: held-out links point mostly at
the user's own block, and neighborhood averaging denoises toward the block
centroid.
"""

from __future__ import annotations

import numpy as np

from linkprop.graphs import Graph, Partition, build_graph
from linkprop.negatives import NegativeSet, QuotaUnreachable, sample_negatives

# user/item/edge counts matching the two reference dataset shapes
TABLE_SHAPES = {
    "elect": (1520, 1437, 35931),
    "lastfm": (1892, 4489, 52668),
}


def random_graph(num_nodes: int, num_edges: int, seed: int = 0) -> Graph:
    """Uniform random simple graph with exactly num_edges edges."""
    limit = num_nodes * (num_nodes - 1) // 2
    if num_edges > limit:
        raise ValueError(f"at most {limit} edges fit in {num_nodes} nodes")
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < num_edges:
        u, v = rng.integers(0, num_nodes, size=2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    return build_graph(sorted(pairs), num_nodes=num_nodes)


def equivalence_instance(seed: int) -> tuple[Graph, NegativeSet]:
    """Seeded (graph, negatives) pair for dual-path trajectory checks.

    Node count cycles through [10, 30] with the seed, with 1.6 edges per
    node.  A graph can be structurally unable to supply one negative per
    positive (an anchor with more slots than non-neighbors); such draws are
    regenerated with a salted seed until sampling succeeds.
    """
    n = 10 + seed % 21
    num_edges = min(int(1.6 * n), n * (n - 1) // 2)
    salt = 0
    while True:
        graph = random_graph(n, num_edges, seed=seed + 100_000 * salt)
        try:
            return graph, sample_negatives(graph, seed=seed)
        except QuotaUnreachable:
            salt += 1


def random_bipartite(num_users: int, num_items: int, num_edges: int,
                     seed: int = 0) -> Graph:
    """Uniform random bipartite graph in which every user has >= 1 edge.

    Each user first draws one item; the rest of the edges are uniform
    user-item pairs.
    """
    part = Partition(num_users, num_items)
    if num_edges > num_users * num_items:
        raise ValueError("more edges than user-item pairs")
    if num_edges < num_users:
        raise ValueError("cannot cover every user with so few edges")
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(num_users):
        pairs.add((u, num_users + int(rng.integers(num_items))))
    while len(pairs) < num_edges:
        u = int(rng.integers(num_users))
        i = num_users + int(rng.integers(num_items))
        pairs.add((u, i))
    return build_graph(sorted(pairs), partition=part)


def block_bipartite(num_users: int, num_items: int, num_blocks: int,
                    mean_degree: float, in_ratio: float = 0.9,
                    seed: int = 0) -> Graph:
    """Bipartite graph with planted co-preference blocks.

    Users and items are split evenly into num_blocks groups; each user draws
    around mean_degree items, a fraction in_ratio of them from its own
    group.  Every user ends up with at least one edge.
    """
    if not 0.0 <= in_ratio <= 1.0:
        raise ValueError("in_ratio must lie in [0, 1]")
    part = Partition(num_users, num_items)
    rng = np.random.default_rng(seed)
    user_block = np.arange(num_users) % num_blocks
    item_block = np.arange(num_items) % num_blocks
    items_of = [np.flatnonzero(item_block == b) for b in range(num_blocks)]
    pairs = set()
    for u in range(num_users):
        own = items_of[user_block[u]]
        degree = max(1, rng.poisson(mean_degree))
        for _ in range(degree):
            if rng.random() < in_ratio:
                item = int(own[rng.integers(own.shape[0])])
            else:
                item = int(rng.integers(num_items))
            pairs.add((u, num_users + item))
    return build_graph(sorted(pairs), partition=part)


def table_shaped_dataset(name: str, seed: int = 0) -> Graph:
    """Random bipartite graph with the exact node/edge counts of a reference
    shape; every user and every item has at least one edge.
    """
    if name not in TABLE_SHAPES:
        raise ValueError(f"unknown shape {name!r}; pick from {sorted(TABLE_SHAPES)}")
    num_users, num_items, num_edges = TABLE_SHAPES[name]
    part = Partition(num_users, num_items)
    rng = np.random.default_rng(seed)
    pairs = set()
    for i in range(num_items):
        pairs.add((int(rng.integers(num_users)), num_users + i))
    covered = {u for u, _ in pairs}
    for u in range(num_users):
        if u not in covered:
            pairs.add((u, num_users + int(rng.integers(num_items))))
    while len(pairs) < num_edges:
        u = int(rng.integers(num_users))
        i = num_users + int(rng.integers(num_items))
        pairs.add((u, i))
    return build_graph(sorted(pairs), partition=part)
