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

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

SCHEMES = ("none", "row", "symmetric")

MAX_PROXIMITY_ORDER = 16


def check_integer(name: str, value, low: int, high: int | None = None):
    """Raise ValueError naming `name` unless `value` is an integer, not a
    bool, of at least `low` (and at most `high`)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def check_distinct(name: str, values) -> None:
    """Raise ValueError naming `name` unless the sequence `values` lists at
    least one value and none twice."""
    if not values:
        raise ValueError(f"{name} must list at least one value")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{name} lists {repeated[0]!r} more than once")


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


def read_only(matrix: sp.csr_array) -> sp.csr_array:
    """`matrix` itself, its data, indices and indptr marked read-only, so a
    write into them, or a scipy call that would sort them in place, raises
    ValueError instead of changing a matrix that others share."""
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with precomputed adjacency and degrees.

    Construct through :func:`build_graph`; the constructor itself performs no
    validation.  `build_graph` marks `edges`, `degrees` and the adjacency's
    arrays read-only, so the graph cannot change under the memo.

    The memo holds what depends on the graph and its keys alone, each
    value built on first request by :meth:`memoized` and shared, read-only,
    by every later caller: `normalize`'s matrices, the positive masks of
    `losses.mask_set`, one negative set per sampling setting and seed
    (`negatives.sample_negatives`), O(|E| * per_positive) pairs each, and
    one `ranking.Ranker` per split set object, cutoff and split
    (`ranking.ranker`), which keeps its users' held-out keys and
    training-item indices: under 1 MB per split at 10k nodes.  It lives
    and dies with the graph object, so each value, and each split set in
    a key, is held for the graph's lifetime; `dataclasses.replace` starts
    the new graph with an empty one.
    """

    num_nodes: int
    edges: np.ndarray  # (m, 2) int array, each row sorted, rows sorted
    partition: Partition | None
    adjacency: sp.csr_array = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def memoized(self, key: tuple, build):
        """The graph's value under `key`: `build()` on the first request, and
        that same object on every later one.  Every caller shares it, so
        `build` returns a value nothing can write into: a matrix through
        `read_only`, a negative set or a `Ranker` with read-only arrays.  A
        `build` that raises stores nothing."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

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


def unique_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of an (m, 2) array in lexicographic order.

    Equal to `np.unique(arr, axis=0)`, from compares of adjacent rows and,
    unless the rows already increase strictly, a `lexsort`, rather than a
    sort of a void view.  Nothing is added or multiplied, so no id can
    overflow.
    """
    head, tail = arr[:-1], arr[1:]
    if np.all((head[:, 0] < tail[:, 0])
              | ((head[:, 0] == tail[:, 0]) & (head[:, 1] < tail[:, 1]))):
        return arr.copy()
    rows = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    keep = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def canonical_pairs(edge_list) -> np.ndarray:
    """Deduplicated (u, v) pairs with u < v, sorted lexicographically."""
    if not isinstance(edge_list, np.ndarray):
        edge_list = list(edge_list)
    arr = np.asarray(edge_list, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = arr.reshape(-1, 2)
    return unique_rows(np.column_stack((np.minimum(arr[:, 0], arr[:, 1]),
                                        np.maximum(arr[:, 0], arr[:, 1]))))


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
            # pairs print as Python ints, `(1, 2)`, whatever the numpy version
            bad = pairs[(pairs < 0).any(axis=1) | (pairs >= num_nodes).any(axis=1)][0]
            raise ValueError(f"node id out of range [0, {num_nodes}): pair "
                             f"{tuple(bad.tolist())}")
        self_loops = pairs[:, 0] == pairs[:, 1]
        if self_loops.any():
            bad = pairs[self_loops][0]
            raise ValueError(f"self-loop not allowed: pair {tuple(bad.tolist())}")
        if partition is not None:
            # canonical order puts the smaller id first, so row[0] must be a
            # user and row[1] an item
            u_ok = pairs[:, 0] < partition.num_users
            i_ok = pairs[:, 1] >= partition.num_users
            bad_mask = ~(u_ok & i_ok)
            if bad_mask.any():
                bad = pairs[bad_mask][0]
                raise ValueError(
                    f"bipartite violation: pair {tuple(bad.tolist())} does not "
                    f"join a user [0, {partition.num_users}) to an item")

    adjacency = read_only(_pairs_to_csr(pairs, num_nodes))
    # each row stores one 1 per neighbor, so its length is the degree
    degrees = np.diff(adjacency.indptr).astype(np.int64)
    pairs.flags.writeable = degrees.flags.writeable = False
    return Graph(num_nodes=num_nodes, edges=pairs, partition=partition,
                 adjacency=adjacency, degrees=degrees)


def degree_power_weights(degrees: np.ndarray, exponent: float) -> np.ndarray:
    """deg**exponent per node, zero degrees staying zero: negative
    sampling's unnormalized weights, and normalize_matrix's D^-1 and
    D^-1/2."""
    weights = np.zeros(degrees.shape[0])
    nz = degrees > 0
    weights[nz] = degrees[nz].astype(float) ** exponent
    return weights


def normalize_matrix(matrix: sp.csr_array, scheme: str) -> sp.csr_array:
    """A degree-normalized copy of a symmetric nonnegative sparse matrix:
    scheme "none" copies it unchanged, "row" is D^-1 A, "symmetric" is
    D^-1/2 A D^-1/2.  Zero degrees invert to zero."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown normalization scheme {scheme!r}; pick from {SCHEMES}")
    if scheme == "none":
        return matrix.copy()
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    if scheme == "row":
        scaled = sp.diags_array(degree_power_weights(degrees, -1.0)) @ matrix
    else:
        half = sp.diags_array(degree_power_weights(degrees, -0.5))
        scaled = half @ matrix @ half
    return scaled.tocsr()


def symmetrize(mat: sp.csr_array) -> sp.csr_array:
    """(M + M^T) / 2, for row-normalized weight matrices."""
    return ((mat + mat.T) * 0.5).tocsr()


def normalize(graph: Graph, scheme: str) -> sp.csr_array:
    """Normalized adjacency of a graph under the given scheme, built once
    per graph and scheme and kept in the graph's memo: every call returns
    the same read-only matrix, the read-only adjacency itself under
    "none".  The matrix is kept as built; under "row" its rows are not
    sorted, so copy it before a scipy call that sorts in place."""
    if scheme == "none":
        return graph.adjacency
    return graph.memoized(
        ("normalize", scheme),
        lambda: read_only(normalize_matrix(graph.adjacency, scheme)))


@dataclass(frozen=True, eq=False)
class ProximityOperator:
    """Uniform average of powers low..high of a normalized adjacency.

    Applies lazily as a chain of sparse matrix-vector products; can also be
    materialized as an explicit sparse matrix for small instances.  The
    (0, 0) operator is the identity.
    """

    matrix: sp.csr_array = field(repr=False)
    low: int
    high: int

    def is_identity(self) -> bool:
        return self.low == 0 and self.high == 0

    def apply(self, X: np.ndarray, *, overwrite_input: bool = False) -> np.ndarray:
        """Average of M^r X for r in [low, high]; costs `high` sparse products.

        X is never written unless `overwrite_input` is set.  The identity
        operator returns `X` itself, so the result may alias `X`: callers
        must not write into it.

        `overwrite_input=True` is for a caller that gives X up, a writable
        floating-point array nothing reads afterwards: the powers are summed
        into X's own buffer (once the first product has read it, zeroed
        first when `low` >= 1) and the result is X.  The sums and the
        division are the same, in the same order, so the bits are those of
        `apply(X)`, with one n x d buffer fewer live.
        """
        if X.ndim != 2 or not np.issubdtype(X.dtype, np.floating):
            raise ValueError(f"X must be a 2-d real floating-point array, got "
                             f"shape {X.shape} and dtype {X.dtype}")
        if X.shape[0] != self.matrix.shape[0]:
            raise ValueError(
                f"row count {X.shape[0]} does not match node count "
                f"{self.matrix.shape[0]}")
        if self.is_identity():
            return X
        mat = self.matrix
        if overwrite_input:
            acc = X
        else:
            acc = X.copy() if self.low == 0 else np.zeros_like(X)
        term = X
        for power in range(1, self.high + 1):
            term = mat @ term
            if power == 1 and self.low > 0 and overwrite_input:
                acc.fill(0)
            if power >= self.low:
                acc += term
        acc /= self.high - self.low + 1
        return acc

    def materialize(self) -> sp.csr_array:
        """The operator as an explicit sparse matrix."""
        n = self.matrix.shape[0]
        acc = sp.csr_array((n, n))
        if self.low == 0:
            acc = acc + sp.eye_array(n, format="csr")
        term = sp.eye_array(n, format="csr")
        for power in range(1, self.high + 1):
            term = (term @ self.matrix).tocsr()
            if power >= self.low:
                acc = acc + term
        return (acc / (self.high - self.low + 1)).tocsr()


def proximity(base: sp.csr_array, low: int,
              high: int) -> ProximityOperator:
    """High-order proximity operator averaging powers low..high of `base`."""
    if low < 0 or low > high:
        raise ValueError(f"need 0 <= low <= high, got ({low}, {high})")
    if high > MAX_PROXIMITY_ORDER:
        raise ValueError(f"order {high} exceeds the configured maximum "
                         f"{MAX_PROXIMITY_ORDER}")
    return ProximityOperator(matrix=base, low=low, high=high)


# owned slots per chunk of the gather, which copies both rows of each slot
# into two reused (chunk, d) buffers, 256 KiB each at d = 32.  On the
# bench_500 deepwalk pattern (108,036 owned slots, d = 32, 2-core Xeon,
# best of 30 calls) a gather-only call takes 4.7 ms at 1024 and 4.5 ms at
# 4096, but 9.6 ms at 128 (more Python steps) and 12.7 ms unchunked (two
# 28 MB buffers leave the cache)
_CHUNK = 1024

# owned rows per scoring block, and the share of its rectangle that a
# block's owned slots must fill for one einsum Gram to score it.  On a
# full 128 x 500 block (same machine, numpy 2.4) the gather costs about 55
# ns per slot at d = 32 and the Gram 18 ns per rectangle entry, a
# crossover at 0.32 (0.37 at d = 4, 0.28 at d = 64, 0.20 at d = 128).  The
# bench_500 deepwalk pattern's blocks fill 0.40-0.75 and take the Gram; its
# mf, line and lightgcn blocks fill at most 0.075 and keep the gather
_GRAM_ROWS = 128
_GRAM_DENSITY = 0.3


class MaskEntries:
    """One weight matrix located in a SupportPattern: `weights` and `slots`
    (union slot per entry, in the pattern's index dtype) in the matrix's
    stored order, in which sums over it run; `matrix` in the canonical
    order of tocsr(), the order of `np.sort(slots)`.

    The owned scores the entries read are `reads`, ascending and distinct;
    `stored` gives each entry, in stored order, its score's position in
    `reads`, and `sorted_owner` gives each entry, in canonical order, its
    score's position among all owned scores.  So `reads[stored]` is
    `owner[slots]` and `sorted_owner` is `owner[np.sort(slots)]`, and a
    per-slot map runs once per score it reads before one `take` spreads it.
    """

    def __init__(self, mat: sp.csr_array, slots: np.ndarray, cols: np.ndarray,
                 owner: np.ndarray, num_owned: int):
        order = np.argsort(slots)
        sorted_slots = slots[order]
        if np.any(sorted_slots[1:] == sorted_slots[:-1]):
            raise ValueError("weight matrix stores an entry twice")
        self.weights, self.slots = mat.data, slots.astype(cols.dtype)
        self.matrix = sp.csr_array((mat.data[order], cols[sorted_slots],
                                    mat.indptr.astype(cols.dtype)), shape=mat.shape)
        read = owner[slots]
        hit = np.zeros(num_owned, dtype=bool)
        hit[read] = True
        self.reads = np.flatnonzero(hit).astype(owner.dtype)
        self.stored = (np.cumsum(hit, dtype=owner.dtype) - 1)[read]
        self.sorted_owner = read[order]

    def weighted(self, values: np.ndarray) -> sp.csr_array:
        """The matrix with each entry times `values` at its owned slot."""
        m = self.matrix
        return sp.csr_array((m.data * values.take(self.sorted_owner), m.indices,
                             m.indptr), shape=m.shape)


class SupportPattern:
    """Fixed union support of a (positive, negative) weight-matrix pair.

    The linear keys u*n + v of both supports, sorted and deduplicated, give
    the union once, as a CSR pattern (`indptr`, `cols`) in canonical order.
    Per step only values change: `scores` computes the scores y_u . y_v,
    `matrix` puts one value per slot into the fixed pattern.

    A slot (u, v) whose mirror (v, u) is also in the union shares its score
    with it, so only the owned slots, those with u <= v or without a mirror,
    are scored (`owned_rows`, `owned_cols`); `owner` gives each slot the
    position of its own or its mirror's score among them.  A symmetric
    pattern owns about half its slots, any other pattern more.  Scores
    stay per owned slot: `pos` and `neg` carry the index maps from them to
    their entries.

    `blocks` is how `scores` covers the owned slots, fixed at construction.
    The owned rows are cut into blocks of `_GRAM_ROWS` rows.  A block whose
    owned slots fill at least `_GRAM_DENSITY` of its rectangle, the rows
    lo:hi and columns c0:c1 they lie in, is scored by one Gram of those
    rows and columns; every other block gathers its slots' rows.  Each
    entry is `(start, stop, gram)` over the owned slots start:stop: `gram`
    is None for a run of gathered blocks, and `(lo, hi, c0, c1, flat)` for
    a Gram block, `flat` giving each slot's position in the row-major
    (hi - lo, c1 - c0) Gram.  A pattern without a dense block is one
    gathered run.
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
        split = keys[0].shape[0]
        del keys, union  # free the int64 keys before the mirror search peaks

        # the slot of each slot's mirror, -1 if it has none: the pattern
        # holding -(nnz + 1) everywhere plus its transpose, which holds
        # 1 + the slot of (u, v) at (v, u), is -(nnz + 1) where a slot has
        # no mirror and the mirror's slot - nnz where it has one.  Both are
        # canonical, so the sum is, and its negative entries are the
        # pattern's, in the pattern's order.  No value leaves `index`.
        top = self.nnz + 1
        summed = (self.matrix(np.full(self.nnz, -top, dtype=index))
                  + self.matrix(np.arange(1, top, dtype=index)).T.tocsr())
        mirror = summed.data[summed.data < 0] + self.nnz
        owned = (self.rows <= self.cols) | (mirror < 0)
        self.owned_rows, self.owned_cols = self.rows[owned], self.cols[owned]
        rank = np.cumsum(owned, dtype=index) - 1
        self.owner = np.where(owned, rank, rank[mirror])
        num_owned = self.owned_rows.shape[0]
        self.pos = MaskEntries(pos, slot[:split], self.cols, self.owner, num_owned)
        self.neg = MaskEntries(neg, slot[split:], self.cols, self.owner, num_owned)
        self.blocks, self._longest_run, self._largest_gram = self._score_blocks()

    def _score_blocks(self) -> tuple[list, int, int]:
        """`blocks`, with the longest gathered run and the largest Gram
        that size `scores`' buffers."""
        rows, cols = self.owned_rows, self.owned_cols
        size = rows.shape[0]
        if size == 0:
            return [], 0, 0
        starts = np.unique(np.searchsorted(
            rows, np.arange(0, self.num_nodes, _GRAM_ROWS)))
        starts = starts[starts < size]
        stops = np.append(starts[1:], size)
        lo, hi = rows[starts].astype(np.intp), rows[stops - 1].astype(np.intp) + 1
        c0 = np.minimum.reduceat(cols, starts).astype(np.intp)
        c1 = np.maximum.reduceat(cols, starts).astype(np.intp) + 1
        dense = stops - starts >= _GRAM_DENSITY * (hi - lo) * (c1 - c0)
        blocks, longest_run, largest_gram = [], 0, 0
        for i, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
            if dense[i]:
                width = c1[i] - c0[i]
                flat = ((rows[start:stop].astype(np.intp) - lo[i]) * width
                        + (cols[start:stop] - c0[i]))
                blocks.append((start, stop, (int(lo[i]), int(hi[i]), int(c0[i]),
                                             int(c1[i]), flat)))
                largest_gram = max(largest_gram, int((hi[i] - lo[i]) * width))
                continue
            if blocks and blocks[-1][2] is None:
                start = blocks.pop()[0]
            blocks.append((start, stop, None))
            longest_run = max(longest_run, stop - start)
        return blocks, longest_run, largest_gram

    def scores(self, Y: np.ndarray) -> np.ndarray:
        """Gram scores y_u . y_v of the owned slots, in owned order.

        A gathered run copies both rows of `_CHUNK` slots at a time into
        two reused buffers and sums each slot's d products with one
        einsum.  A Gram block forms `einsum('ik,jk->ij', Y[lo:hi],
        Y[c0:c1])` into one reused buffer and picks its slots with one
        `take`.  Both einsums run numpy's own sum-of-products loop over
        each pair's d contiguous products (the Gram reads a C-ordered copy
        of a Y that is not), so a score has the same bits on either path,
        and, for finite Y, the same bits as the full gather of the union:
        y_u . y_v sums the same products in the same order as y_v . y_u.
        A BLAS Gram would be faster and round otherwise.
        """
        Y = np.asarray(Y)
        if Y.ndim != 2:
            raise ValueError(f"Y must be a 2-d array, got shape {Y.shape}")
        if not np.issubdtype(Y.dtype, np.floating):
            raise ValueError(f"Y must have a real floating-point dtype, got "
                             f"{Y.dtype}")
        if Y.shape[0] != self.num_nodes:
            raise ValueError(f"Y has {Y.shape[0]} rows, the pattern "
                             f"{self.num_nodes} nodes")
        rows, cols = self.owned_rows, self.owned_cols
        owned = np.empty(rows.shape[0], dtype=Y.dtype)
        buffers = np.empty((2, min(_CHUNK, self._longest_run), Y.shape[1]),
                           dtype=Y.dtype)
        if self._largest_gram:
            Yc = np.ascontiguousarray(Y)
            gram_buffer = np.empty(self._largest_gram, dtype=Y.dtype)
        for first, last, gram in self.blocks:
            if gram is not None:
                lo, hi, c0, c1, flat = gram
                out = gram_buffer[:(hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
                np.einsum("ik,jk->ij", Yc[lo:hi], Yc[c0:c1], out=out)
                out.take(flat, out=owned[first:last], mode="clip")
                continue
            for start in range(first, last, _CHUNK):
                block = slice(start, min(start + _CHUNK, last))
                a, b = buffers[:, :block.stop - start]
                # indices are in range; mode="clip" skips take's buffered copy
                np.take(Y, rows[block], axis=0, out=a, mode="clip")
                np.take(Y, cols[block], axis=0, out=b, mode="clip")
                np.einsum("ij,ij->i", a, b, out=owned[block])
        return owned

    def matrix(self, data: np.ndarray) -> sp.csr_array:
        """The union pattern holding `data`, one value per slot."""
        n = self.num_nodes
        return sp.csr_array((data, self.cols, self.indptr), shape=(n, n))
