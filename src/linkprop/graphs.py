"""Undirected graphs, degree normalization, high-order proximity operators,
and the fixed support patterns that weight matrices are scored on.

Everything downstream (losses, kernels, training) works on the sparse
adjacency built here.  Conventions:

* adjacency is symmetric 0/1 with zero diagonal, stored explicitly in both
  orientations (CSR);
* the inverse of a zero degree is defined as zero, so isolated nodes simply
  never propagate;
* edges are kept in canonical sorted order so every downstream sampling or
  iteration step is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

SCHEMES = ("none", "row", "symmetric")

MAX_PROXIMITY_ORDER = 16


@dataclass(frozen=True)
class Partition:
    """Bipartite user/item split: users occupy ids [0, num_users), items the rest."""

    num_users: int
    num_items: int

    def __post_init__(self):
        if self.num_users < 1 or self.num_items < 1:
            raise ValueError("partition needs at least one user and one item")

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with precomputed adjacency and degrees.

    Construct through :func:`build_graph`; the constructor itself performs no
    validation.
    """

    num_nodes: int
    edges: np.ndarray  # (m, 2) int array, each row sorted, rows sorted
    partition: Partition | None
    adjacency: sp.csr_array = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def neighbors(self, node: int) -> np.ndarray:
        a = self.adjacency
        return a.indices[a.indptr[node]:a.indptr[node + 1]]


def _pairs_to_csr(pairs: np.ndarray, num_nodes: int) -> sp.csr_array:
    """Symmetric 0/1 CSR from canonical (u < v) pairs, both orientations stored."""
    if pairs.size == 0:
        return sp.csr_array((num_nodes, num_nodes))
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(rows.shape[0])
    mat = sp.coo_array((data, (rows, cols)), shape=(num_nodes, num_nodes)).tocsr()
    mat.sum_duplicates()
    return mat


def canonical_pairs(edge_list) -> np.ndarray:
    """Deduplicated (u, v) pairs with u < v, sorted lexicographically."""
    arr = np.asarray(list(edge_list), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.sort(arr.reshape(-1, 2), axis=1)
    return np.unique(arr, axis=0)


def build_graph(edge_list, num_nodes: int | None = None,
                partition: Partition | None = None) -> Graph:
    """Build a validated undirected graph from an iterable of node pairs.

    Args:
        edge_list: iterable of (u, v) pairs; duplicates and both orientations
            of the same undirected edge collapse to one edge.
        num_nodes: total node count; defaults to the partition size if a
            partition is given, else max id + 1.
        partition: optional bipartite split.  When present every edge must
            join a user to an item.

    Raises:
        ValueError: self-loop, out-of-range id, or bipartite violation; each
            produces a distinct message naming the offending pair.
    """
    pairs = canonical_pairs(edge_list)
    if partition is not None:
        if num_nodes is None:
            num_nodes = partition.num_nodes
        elif num_nodes != partition.num_nodes:
            raise ValueError(
                f"num_nodes={num_nodes} does not match partition total "
                f"{partition.num_nodes}")
    elif num_nodes is None:
        num_nodes = int(pairs.max()) + 1 if pairs.size else 0

    if pairs.size:
        if pairs.min() < 0 or pairs.max() >= num_nodes:
            bad = pairs[(pairs < 0).any(axis=1) | (pairs >= num_nodes).any(axis=1)][0]
            raise ValueError(f"node id out of range [0, {num_nodes}): pair {tuple(bad)}")
        self_loops = pairs[:, 0] == pairs[:, 1]
        if self_loops.any():
            bad = pairs[self_loops][0]
            raise ValueError(f"self-loop not allowed: pair {tuple(bad)}")
        if partition is not None:
            # canonical order puts the smaller id first, so row[0] must be a
            # user and row[1] an item
            u_ok = pairs[:, 0] < partition.num_users
            i_ok = pairs[:, 1] >= partition.num_users
            bad_mask = ~(u_ok & i_ok)
            if bad_mask.any():
                bad = pairs[bad_mask][0]
                raise ValueError(
                    f"bipartite violation: pair {tuple(bad)} does not join a "
                    f"user [0, {partition.num_users}) to an item")

    adjacency = _pairs_to_csr(pairs, num_nodes)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel().astype(np.int64)
    return Graph(num_nodes=num_nodes, edges=pairs, partition=partition,
                 adjacency=adjacency, degrees=degrees)


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """A degree-normalized view of a symmetric adjacency.

    scheme "none" leaves the matrix untouched, "row" is D^-1 A, "symmetric"
    is D^-1/2 A D^-1/2.  Zero degrees invert to zero.
    """

    matrix: sp.csr_array = field(repr=False)


def _inv_power(degrees: np.ndarray, power: float) -> np.ndarray:
    inv = np.zeros(degrees.shape[0])
    nz = degrees > 0
    inv[nz] = degrees[nz] ** (-power)
    return inv


def normalize_matrix(matrix: sp.csr_array, scheme: str) -> NormalizedAdjacency:
    """Normalize an arbitrary symmetric nonnegative sparse matrix."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown normalization scheme {scheme!r}; pick from {SCHEMES}")
    if scheme == "none":
        return NormalizedAdjacency(matrix=matrix.copy())
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    if scheme == "row":
        scaled = sp.diags_array(_inv_power(degrees, 1.0)) @ matrix
    else:
        half = sp.diags_array(_inv_power(degrees, 0.5))
        scaled = half @ matrix @ half
    return NormalizedAdjacency(matrix=scaled.tocsr())


def symmetrize(mat: sp.csr_array) -> sp.csr_array:
    """(M + M^T) / 2, for row-normalized weight matrices."""
    return ((mat + mat.T) * 0.5).tocsr()


def normalize(graph: Graph, scheme: str) -> NormalizedAdjacency:
    """Normalized adjacency of a graph under the given scheme."""
    return normalize_matrix(graph.adjacency, scheme)


@dataclass(frozen=True, eq=False)
class ProximityOperator:
    """Uniform average of powers low..high of a normalized adjacency.

    Applies lazily as a chain of sparse matrix-vector products; can also be
    materialized as an explicit sparse matrix for small instances.  The
    (0, 0) operator is the identity.
    """

    base: NormalizedAdjacency
    low: int
    high: int

    def is_identity(self) -> bool:
        return self.low == 0 and self.high == 0

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Average of M^r X for r in [low, high]; costs `high` sparse products."""
        if X.shape[0] != self.base.matrix.shape[0]:
            raise ValueError(
                f"row count {X.shape[0]} does not match node count "
                f"{self.base.matrix.shape[0]}")
        if self.is_identity():
            return X.copy()
        mat = self.base.matrix
        acc = X.copy() if self.low == 0 else np.zeros_like(X)
        term = X
        for power in range(1, self.high + 1):
            term = mat @ term
            if power >= self.low:
                acc += term
        return acc / (self.high - self.low + 1)

    def materialize(self) -> sp.csr_array:
        """The operator as an explicit sparse matrix."""
        n = self.base.matrix.shape[0]
        acc = sp.csr_array((n, n))
        if self.low == 0:
            acc = acc + sp.eye_array(n, format="csr")
        term = sp.eye_array(n, format="csr")
        for power in range(1, self.high + 1):
            term = (term @ self.base.matrix).tocsr()
            if power >= self.low:
                acc = acc + term
        return (acc / (self.high - self.low + 1)).tocsr()


def proximity(base: NormalizedAdjacency, low: int,
              high: int) -> ProximityOperator:
    """High-order proximity operator averaging powers low..high of `base`."""
    if low < 0 or low > high:
        raise ValueError(f"need 0 <= low <= high, got ({low}, {high})")
    if high > MAX_PROXIMITY_ORDER:
        raise ValueError(f"order {high} exceeds the configured maximum "
                         f"{MAX_PROXIMITY_ORDER}")
    return ProximityOperator(base=base, low=low, high=high)


# support entries scored per block: the two (block, d) gather buffers are
# 256 KiB each at d = 32; blocks of 4096 and more, or no blocks, scored
# 2-5x slower per call inside training on bench_500 (2-core Xeon)
_CHUNK = 1024


class MaskEntries:
    """One weight matrix located in a SupportPattern: `weights` and `slots`
    (union slot per entry) in the matrix's stored order, in which sums over
    it run; `matrix` and `sorted_slots` in the canonical order of tocsr()."""

    def __init__(self, mat: sp.csr_array, slots: np.ndarray, cols: np.ndarray):
        order = np.argsort(slots)
        self.weights, self.slots, self.sorted_slots = mat.data, slots, slots[order]
        if np.any(self.sorted_slots[1:] == self.sorted_slots[:-1]):
            raise ValueError("weight matrix stores an entry twice")
        self.matrix = sp.csr_array((mat.data[order], cols[self.sorted_slots],
                                    mat.indptr.astype(cols.dtype)), shape=mat.shape)

    def weighted(self, values: np.ndarray) -> sp.csr_array:
        """The matrix with each entry times `values` at its union slot."""
        m = self.matrix
        return sp.csr_array((m.data * values[self.sorted_slots], m.indices,
                             m.indptr), shape=m.shape)


class SupportPattern:
    """Fixed union support of a (positive, negative) weight-matrix pair.

    The linear keys u*n + v of both supports, sorted and deduplicated, give
    the union once, as a CSR pattern (`indptr`, `cols`) in canonical order.
    Per step only values change: `scores` gathers Gram scores block by
    block, `matrix` puts one value per slot into the fixed pattern.
    """

    def __init__(self, pos: sp.csr_array, neg: sp.csr_array):
        n = pos.shape[0]
        keys = [np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(m.indptr))
                + m.indices for m in (pos, neg)]
        union, slot = np.unique(np.concatenate(keys), return_inverse=True)
        index = np.int32 if max(n, slot.shape[0]) < 2**31 else np.int64
        self.num_nodes, self.nnz = n, union.shape[0]
        self.rows, self.cols = (union // n).astype(index), (union % n).astype(index)
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1)).astype(index)
        self.pos = MaskEntries(pos, slot[:keys[0].shape[0]], self.cols)
        self.neg = MaskEntries(neg, slot[keys[0].shape[0]:], self.cols)

    def scores(self, Y: np.ndarray) -> np.ndarray:
        """Gram scores y_u . y_v on the union, gathered block by block into
        two reused buffers instead of two (nnz, d) arrays."""
        if Y.shape[0] != self.num_nodes:
            raise ValueError(f"Y has {Y.shape[0]} rows, the pattern "
                             f"{self.num_nodes} nodes")
        out = np.empty(self.nnz, dtype=Y.dtype)
        buffers = np.empty((2, min(_CHUNK, self.nnz), Y.shape[1]), dtype=Y.dtype)
        for start in range(0, self.nnz, _CHUNK):
            block = slice(start, min(start + _CHUNK, self.nnz))
            a, b = buffers[:, :block.stop - start]
            # indices are in range; mode="clip" skips take's buffered copy
            np.take(Y, self.rows[block], axis=0, out=a, mode="clip")
            np.take(Y, self.cols[block], axis=0, out=b, mode="clip")
            np.einsum("ij,ij->i", a, b, out=out[block])
        return out

    def matrix(self, data: np.ndarray) -> sp.csr_array:
        """The union pattern holding `data`, one value per slot."""
        n = self.num_nodes
        return sp.csr_array((data, self.cols, self.indptr), shape=(n, n))
