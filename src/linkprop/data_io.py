"""Dataset files, canonical on-disk form, per-user splits, and statistics
certification.

Interaction data arrives as delimited user/item pairs or adjacency lists
with arbitrary string ids.  Ingestion remaps ids to dense contiguous
integers (users first, then items, each sorted lexicographically) and keeps
the label tables so every artifact written back uses original ids.  The
canonical form is sorted tab-separated pairs under a comment header with
counts and a checksum, so reloading is idempotent and corruption is
detectable.

Files are read as UTF-8 in one of two ways.  A pair file whose body under
its leading comment lines is tab-separated pairs with no other whitespace
or `#` (every canonical file) passes one regular-expression test and is
tokenized by one `split`; any other file is read line by line, with errors
that name the file line.  Both give the same dataset, which
`reference.load_edge_list_scalar` checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from linkprop.graphs import (Graph, Partition, build_graph, check_integer,
                             unique_rows)
from linkprop.ranking import SplitSet

FORMATS = ("auto", "pairs", "adjlist")  # load_edge_list's `fmt` values

HEADER_TOKENS = {"user", "item", "user_id", "item_id", "userid", "itemid",
                 "source", "target", "uid", "iid"}

# percent-density agreement needed to certify against published three-decimal
# statistics tables
DENSITY_PCT_TOL = 5e-4


@dataclass(frozen=True, eq=False)
class Dataset:
    """Remapped bipartite interactions plus the original-id tables.

    Internal ids: users 0..U-1 in label order, items U..U+I-1 likewise.
    """

    partition: Partition
    edges: np.ndarray
    user_labels: tuple
    item_labels: tuple

    def to_graph(self) -> Graph:
        return build_graph(self.edges, partition=self.partition)

    def label_pair(self, edge) -> tuple[str, str]:
        u, i = int(edge[0]), int(edge[1])
        return self.user_labels[u], self.item_labels[i - self.partition.num_users]


def _is_header_row(user: str, item: str) -> bool:
    return user.lower() in HEADER_TOKENS or item.lower() in HEADER_TOKENS


def _pair_fields(line: str) -> list[str]:
    """A pair line split at a tab, else a comma, else whitespace."""
    return line.split("\t" if "\t" in line else "," if "," in line else None)


def _parse_pair_lines(lines, path,
                      header_row: bool) -> tuple[list[str], list[str]]:
    """User and item label columns from (file line number, line) pairs of
    two-column lines of the file `path`; if `header_row`, the first may be
    a header row."""
    users, items = [], []
    for k, (lineno, line) in enumerate(lines):
        fields = [f for f in map(str.strip, _pair_fields(line)) if f]
        if (header_row and k == 0 and len(fields) == 2
                and _is_header_row(*fields)):
            continue
        if len(fields) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields, "
                             f"got {len(fields)}: {line!r}")
        users.append(fields[0])
        items.append(fields[1])
    return users, items


def _parse_adjlist_lines(lines, path) -> tuple[list[str], list[str]]:
    users, items = [], []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) < 2:
            raise ValueError(f"{path}: line {lineno}: adjacency line needs "
                             f"a user and at least one item: {line!r}")
        users.extend([fields[0]] * (len(fields) - 1))
        items.extend(fields[1:])
    return users, items


# `re`'s \s is the set `str.split` and `str.strip` split and strip at, and
# `str.splitlines` breaks only at members of it: a body this matches is its
# stripped lines joined by "\n" plus a final "\n", so `split` tokenizes it.
# A line with a tab splits at the tab, whatever commas it holds.
_CLEAN_PAIRS = re.compile(r"(?:[^\s#]+\t[^\s#]+\n)+")


def _read_clean_pairs(raw: str, header_key: str):
    """(header or None, body, user column, item column) of a file of
    leading `#` lines over tab-separated pairs with no other whitespace or
    `#`; None for any other file."""
    header = None
    start = 0
    while raw.startswith("#", start):
        stop = raw.find("\n", start) + 1
        line = raw[start:stop]
        # a break other than the final "\n" would start a data line
        if not stop or len(line.splitlines()) != 1:
            return None
        if header is None and header_key in line:
            header = line.strip()
        start = stop
    body = raw[start:]
    if not _CLEAN_PAIRS.fullmatch(body):
        return None
    tokens = body.split()
    users, items = tokens[0::2], tokens[1::2]
    if header is None and _is_header_row(users[0], items[0]):
        del users[0], items[0]
    return header, body, users, items


def _read_lines(raw: str, fmt: str, path, header_key: str, empty_ok: bool):
    """The (header, body, user column, item column) of any file, one line at
    a time; errors name the file and the line.  No data lines is an error
    unless `empty_ok`."""
    header = None
    data = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            if header_key in stripped and header is None:
                header = stripped
        elif stripped:
            data.append((lineno, stripped))
    if not data and not empty_ok:
        raise ValueError(f"{path}: no data lines")
    if fmt == "auto":
        fmt = "pairs" if len(_pair_fields(data[0][1])) == 2 else "adjlist"
    if fmt == "pairs":
        users, items = _parse_pair_lines(data, path, header_row=header is None)
    else:
        users, items = _parse_adjlist_lines(data, path)
    body = None if header is None else "".join(line + "\n" for _, line in data)
    return header, body, users, items


def _check_declared_counts(path, header_line: str | None, num_pairs: int,
                           body):
    """Validate counts/checksum a canonical header declares about its body;
    errors name the file."""
    if header_line is None:
        return
    declared = dict(tok.split("=", 1) for tok in header_line[1:].split()
                    if "=" in tok)
    if "edges" in declared:
        try:
            edges = int(declared["edges"])
        except ValueError:
            raise ValueError(f"{path}: header's edges={declared['edges']} "
                             f"is not an integer") from None
        if edges != num_pairs:
            raise ValueError(f"{path}: header declares {declared['edges']} "
                             f"edges, file has {num_pairs}")
    if "checksum" in declared:
        digest = hashlib.sha256(body.encode()).hexdigest()
        if digest != declared["checksum"]:
            raise ValueError(f"{path}: checksum mismatch: file body does not "
                             "match its canonical header")


def _read_file(path, fmt: str, header_key: str = "checksum=",
               empty_ok: bool = False):
    """The (header or None, body, user column, item column) of a UTF-8
    file.  The header, its first `#` line holding `header_key`, comes only
    from `write_canonical` or `save_splits`, which write no header row, so
    only a file without one may open with a header row, which is dropped."""
    check_format(fmt)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    read = _read_clean_pairs(raw, header_key) if fmt != "adjlist" else None
    return read or _read_lines(raw, fmt, path, header_key, empty_ok)


def check_format(fmt: str) -> None:
    """Raise ValueError, naming the format, unless `fmt` is one of FORMATS."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def _edge_rows(user_col, item_col, user_id: dict, item_id: dict):
    """The sorted, unique id pairs of two label columns; a KeyError names a
    label missing from the tables."""
    count = len(user_col)
    return unique_rows(np.column_stack((
        np.fromiter(map(user_id.__getitem__, user_col), np.int64, count),
        np.fromiter(map(item_id.__getitem__, item_col), np.int64, count))))


def load_edge_list(path, fmt: str = "auto") -> Dataset:
    """Parse and remap a UTF-8 interaction file.

    fmt "pairs" expects two delimited columns (tab, comma, or whitespace;
    one optional header row unless the file has a canonical header),
    "adjlist" expects `user item item ...` lines, "auto" decides from the
    first data line.  Lines starting with `#` are comments; a canonical-form
    header among them has its counts and checksum verified.  A pair file
    that is clean tab-separated pairs under its leading comments, as every
    canonical file is, is tokenized in one `split`; any other file is read
    line by line, and its errors name the file line.
    """
    header, body, user_col, item_col = _read_file(path, fmt)
    _check_declared_counts(path, header, len(user_col), body)
    users = sorted(set(user_col))
    items = sorted(set(item_col))
    part = Partition(len(users), len(items))
    user_id = dict(zip(users, range(part.num_users)))
    item_id = dict(zip(items, range(part.num_users, part.num_nodes)))
    edges = _edge_rows(user_col, item_col, user_id, item_id)
    return Dataset(partition=part, edges=edges, user_labels=tuple(users),
                   item_labels=tuple(items))


def write_canonical(dataset: Dataset, path) -> None:
    """Sorted tab-separated pairs with a counts-and-checksum header."""
    rows = sorted(dataset.label_pair(e) for e in dataset.edges)
    body = "".join(f"{u}\t{i}\n" for u, i in rows)
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# users={dataset.partition.num_users} "
                 f"items={dataset.partition.num_items} "
                 f"edges={dataset.edges.shape[0]} checksum={digest}\n")
        fh.write(body)


def dataset_from_graph(graph: Graph, prefix: tuple[str, str] = ("u", "i")) -> Dataset:
    """Attach zero-padded synthetic labels to a bipartite graph.

    Padding keeps lexicographic label order equal to numeric id order, so a
    write/reload round trip gives back the same internal ids when every
    node has an edge.  The file holds pairs only: a node without an edge
    leaves no label in it, a reload drops it and the ids after it shift
    down.  The header's users= and items= are not checked on load.
    """
    if graph.partition is None:
        raise ValueError("only bipartite graphs can become datasets")
    part = graph.partition
    uw = len(str(part.num_users - 1))
    iw = len(str(part.num_items - 1))
    return Dataset(
        partition=part, edges=graph.edges,
        user_labels=tuple(f"{prefix[0]}{k:0{uw}d}" for k in range(part.num_users)),
        item_labels=tuple(f"{prefix[1]}{k:0{iw}d}" for k in range(part.num_items)))


def check_ratios(ratios) -> tuple[float, float, float]:
    """The train/validation/test ratios as floats.

    Raises ValueError naming `ratios` unless they are three finite,
    nonnegative values summing to 1.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(math.isfinite(r) and r >= 0
                                   for r in ratios):
        raise ValueError(f"ratios must be three finite nonnegative values, "
                         f"got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    return ratios


def split_dataset(graph: Graph, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> SplitSet:
    """Per-user random split into train/validation/test.

    Per-user counts are the rounded ratios, clamped so at least one edge
    stays in train; users ending up with no test edges are flagged, not
    dropped.  Deterministic per seed: each user's neighbor list is shuffled
    in user order, its first edges go to test, the next to validation.
    """
    if graph.partition is None:
        raise ValueError("splitting needs a bipartite partition")
    ratios = check_ratios(ratios)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    num_users = graph.partition.num_users
    indptr = graph.adjacency.indptr[:num_users + 1]
    # a shuffle's permutation depends only on the length, so shuffling the
    # positions of each user's neighbors permutes them as the neighbors
    position = np.arange(indptr[-1])
    bounds = indptr.tolist()
    for start, stop in zip(bounds, bounds[1:]):
        rng.shuffle(position[start:stop])

    # rounding half to even, like round(); then give train its edge back,
    # one at a time from the larger of test and validation
    degree = np.diff(indptr).astype(np.int64)
    n_test = np.rint(degree * ratios[2]).astype(np.int64)
    n_val = np.rint(degree * ratios[1]).astype(np.int64)
    while True:
        over = (degree - n_test - n_val < 1) & ((n_test > 0) | (n_val > 0))
        if not over.any():
            break
        from_test = over & (n_test >= n_val)
        n_test -= from_test
        n_val -= over & ~from_test

    # the first n_test shuffled neighbors are test (0), the next n_val
    # validation (1), the rest train (2); parts keep the adjacency's order
    users = np.repeat(np.arange(num_users, dtype=np.int64), degree)
    rank = np.arange(position.shape[0]) - indptr[users]
    part = np.empty(position.shape[0], dtype=np.int8)
    part[position] = ((rank >= n_test[users]).astype(np.int8)
                      + (rank >= (n_test + n_val)[users]))
    pairs = np.column_stack((users, graph.adjacency.indices[:indptr[-1]]))
    test, val, train = (unique_rows(pairs[part == k]) for k in range(3))
    return _split_set(partition=graph.partition, train=train, val=val,
                      test=test, ratios=ratios, seed=int(seed),
                      flagged=tuple(np.flatnonzero(n_test == 0).tolist()))


def _split_set(**fields) -> SplitSet:
    """The SplitSet of `fields`, its edge arrays marked read-only: a graph's
    memo keys each `Ranker` by the split set, so its edges must not change."""
    splits = SplitSet(**fields)
    for part in SPLIT_PARTS:
        getattr(splits, part).flags.writeable = False
    return splits


def graph_from_split(splits: SplitSet) -> Graph:
    """The training graph: candidates are masked against these edges."""
    return build_graph(splits.train, partition=splits.partition)


SPLIT_PARTS = ("train", "val", "test")


def save_splits(dataset: Dataset, splits: SplitSet, outdir) -> None:
    """Write dataset.tsv, one canonical pair file per part, and split.json."""
    os.makedirs(outdir, exist_ok=True)
    write_canonical(dataset, os.path.join(outdir, "dataset.tsv"))
    for part in SPLIT_PARTS:
        # the full label tables: the header counts the dataset's nodes
        write_canonical(replace(dataset, edges=getattr(splits, part)),
                        os.path.join(outdir, f"{part}.tsv"))
    meta = {"ratios": list(splits.ratios), "seed": splits.seed,
            "flagged_users": [dataset.user_labels[u] for u in splits.flagged]}
    with open(os.path.join(outdir, "split.json"), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_splits(outdir) -> tuple[Dataset, SplitSet]:
    """Inverse of save_splits; ids are re-derived from dataset.tsv.  A part
    may be empty but must have a header, whose edge count and checksum are
    verified; the older `# part=... edges=...` header has no checksum."""
    dataset = load_edge_list(os.path.join(outdir, "dataset.tsv"), fmt="pairs")
    user_id = {u: k for k, u in enumerate(dataset.user_labels)}
    item_id = {i: dataset.partition.num_users + k
               for k, i in enumerate(dataset.item_labels)}
    parts = {}
    for part in SPLIT_PARTS:
        path = os.path.join(outdir, f"{part}.tsv")
        header, body, users, items = _read_file(
            path, "pairs", header_key="edges=", empty_ok=True)
        if header is None:
            raise ValueError(f"{part}.tsv: no header declaring its edges")
        try:
            parts[part] = _edge_rows(users, items, user_id, item_id)
        except KeyError as err:
            raise ValueError(f"{part}.tsv: id {err} not in dataset.tsv") from None
        _check_declared_counts(path, header, len(users), body)
    # checked as split_dataset checks its arguments: a JSON bool or float
    # is no seed, and a list of numbers that fails check_ratios no ratios;
    # flagged_users must list user labels of dataset.tsv.  Text that does
    # not decode or parse is a ValueError too (JSONDecodeError is one)
    try:
        with open(os.path.join(outdir, "split.json"),
                  encoding="utf-8") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError(f"not a JSON object, got {meta!r}")
        missing = [key for key in ("ratios", "seed", "flagged_users")
                   if key not in meta]
        if missing:
            raise ValueError(f"missing key {missing[0]!r}")
        ratios, seed, labels = meta["ratios"], meta["seed"], meta["flagged_users"]
        if not (isinstance(ratios, list) and all(
                isinstance(r, (int, float)) and not isinstance(r, bool)
                for r in ratios)):
            raise ValueError(f"ratios must be a list of numbers, got {ratios!r}")
        ratios = check_ratios(ratios)
        check_integer("seed", seed, 0)
        if not (isinstance(labels, list)
                and all(isinstance(u, str) for u in labels)):
            raise ValueError(f"flagged_users must be a list of strings, got "
                             f"{labels!r}")
        unknown = [u for u in labels if u not in user_id]
        if unknown:
            raise ValueError(f"flagged_users: user {unknown[0]!r} not in "
                             f"dataset.tsv")
    except ValueError as err:
        raise ValueError(f"split.json: {err}") from None
    flagged = tuple(user_id[u] for u in labels)
    splits = _split_set(partition=dataset.partition, **parts, ratios=ratios,
                        seed=seed, flagged=flagged)
    return dataset, splits


@dataclass(frozen=True)
class ExpectedStats:
    nodes: int
    links: int
    density_pct: float


@dataclass(frozen=True)
class StatsReport:
    passed: bool
    nodes: int
    links: int
    density_pct: float
    pair_density_pct: float
    mismatches: tuple

    def lines(self) -> list[str]:
        out = [f"nodes {self.nodes}  links {self.links}  "
               f"density {self.density_pct:.3f}%"]
        out += [f"MISMATCH {m}" for m in self.mismatches]
        out.append("PASS" if self.passed else "FAIL")
        return out


def graph_density_pct(graph: Graph) -> tuple[float, float]:
    """(reporting density, all-pairs density), both in percent.

    Bipartite graphs report |E| / (|U|*|I|); the all-pairs variant
    |E| / (|V| choose 2) is returned alongside for reference.
    """
    n = graph.num_nodes
    pair_density = 100.0 * graph.num_edges / (n * (n - 1) / 2) if n > 1 else 0.0
    if graph.partition is not None:
        part = graph.partition
        return (100.0 * graph.num_edges / (part.num_users * part.num_items),
                pair_density)
    return pair_density, pair_density


def verify_stats(graph: Graph, expected: ExpectedStats) -> StatsReport:
    """Certify a loaded graph against published (nodes, links, density)."""
    density, pair_density = graph_density_pct(graph)
    mismatches = []
    if graph.num_nodes != expected.nodes:
        mismatches.append(f"nodes: computed {graph.num_nodes}, "
                          f"expected {expected.nodes}")
    if graph.num_edges != expected.links:
        mismatches.append(f"links: computed {graph.num_edges}, "
                          f"expected {expected.links}")
    if abs(density - expected.density_pct) >= DENSITY_PCT_TOL:
        mismatches.append(f"density: computed {density:.5f}%, "
                          f"expected {expected.density_pct:.3f}%")
    return StatsReport(passed=not mismatches, nodes=graph.num_nodes,
                       links=graph.num_edges, density_pct=density,
                       pair_density_pct=pair_density,
                       mismatches=tuple(mismatches))


METRICS_FIELDS = ("dataset", "model", "seed", "k", "precision", "recall", "ndcg")


def write_metrics_csv(rows, path) -> None:
    """Rows of (dataset, model, seed, k, EvalResult) as a flat CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for dataset, model, seed, result in rows:
            writer.writerow([dataset, model, seed, result.k,
                             "%.17g" % result.precision,
                             "%.17g" % result.recall,
                             "%.17g" % result.ndcg])
