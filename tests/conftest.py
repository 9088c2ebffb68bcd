import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings, strategies as st

from linkprop import reference
from linkprop.graphs import Graph, Partition, build_graph, proximity
from linkprop.losses import MaskSet
from linkprop.negatives import NegativeSet, QuotaUnreachable, sample_negatives

settings.register_profile(
    "suite", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

DATA_DIR = __file__.rsplit("/", 2)[0] + "/data"


def random_graph_instance(seed: int, min_nodes: int = 8, max_nodes: int = 20,
                          edges_per_node: float = 1.5):
    """Seeded (graph, negatives); regenerates when sampling is infeasible."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_nodes, max_nodes + 1))
    m = min(int(edges_per_node * n), n * (n - 1) // 2)
    salt = 0
    while True:
        pair_rng = np.random.default_rng(seed + 100_000 * salt)
        pairs = set()
        while len(pairs) < m:
            u, v = pair_rng.integers(0, n, 2)
            if u != v:
                pairs.add((min(int(u), int(v)), max(int(u), int(v))))
        graph = build_graph(sorted(pairs), num_nodes=n)
        try:
            return graph, sample_negatives(graph, seed=seed)
        except QuotaUnreachable:
            salt += 1


@st.composite
def graph_strategy(draw, min_nodes=4, max_nodes=14, bipartite=False):
    """Random simple graph; bipartite graphs cover every user."""
    if bipartite:
        num_users = draw(st.integers(2, max_nodes // 2))
        num_items = draw(st.integers(2, max_nodes // 2))
        part = Partition(num_users, num_items)
        n = part.num_nodes
        pairs = {(u, num_users + draw(st.integers(0, num_items - 1)))
                 for u in range(num_users)}
        extra = draw(st.lists(
            st.tuples(st.integers(0, num_users - 1),
                      st.integers(num_users, n - 1)),
            max_size=3 * num_users))
        pairs.update(extra)
        return build_graph(sorted(pairs), partition=part)
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]),
        min_size=1, max_size=2 * n))
    return build_graph(sorted(pairs), num_nodes=n)


@st.composite
def graph_with_negatives(draw, **kwargs):
    graph = draw(graph_strategy(**kwargs))
    seed = draw(st.integers(0, 2**16))
    try:
        negatives = sample_negatives(graph, seed=seed, max_tries=50)
    except QuotaUnreachable as err:
        negatives = NegativeSet(num_nodes=graph.num_nodes, pairs=err.pairs,
                                strategy="uniform", seed=seed,
                                adjacency=_pairs_csr(err.pairs, graph.num_nodes))
    return graph, negatives


def _pairs_csr(pairs, n):
    from linkprop.graphs import _pairs_to_csr
    return _pairs_to_csr(pairs, n)


def negatives_from_pairs(pairs, num_nodes: int, seed: int = 0) -> NegativeSet:
    """Wrap hand-picked non-edges in a NegativeSet for tests."""
    arr = np.asarray(sorted((min(p), max(p)) for p in pairs), dtype=np.int64)
    arr = arr.reshape(-1, 2)
    return NegativeSet(num_nodes=num_nodes, pairs=arr, strategy="uniform",
                       seed=seed, adjacency=_pairs_csr(arr, num_nodes))


def oracle_masks(graph, negatives, params) -> MaskSet:
    """reference.dense_weights as a MaskSet for the loss and gradient API:
    masks and P built without the library's table or mask builder."""
    W_pos, W_neg, P = reference.dense_weights(graph, negatives, params)
    n = graph.num_nodes
    prop = (proximity(sp.csr_array((n, n)), 0, 0) if P is None
            else proximity(sp.csr_array(P), 1, 1))
    return MaskSet(pos=sp.csr_array(W_pos), neg=sp.csr_array(W_neg), prop=prop)


@pytest.fixture
def path_graph():
    """0-1-2-3 path, the hand-checkable normalization example."""
    return build_graph([(0, 1), (1, 2), (2, 3)], num_nodes=4)


@pytest.fixture
def small_instance():
    return random_graph_instance(seed=11, min_nodes=12, max_nodes=12)


@pytest.fixture
def bipartite_instance():
    part = Partition(5, 4)
    edges = [(0, 5), (0, 6), (1, 5), (1, 7), (2, 6), (2, 8), (3, 7), (3, 8),
             (4, 5), (4, 8)]
    graph = build_graph(edges, partition=part)
    return graph, sample_negatives(graph, seed=2)
