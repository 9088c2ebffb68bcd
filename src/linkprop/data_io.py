"""Dataset files, canonical on-disk form, per-user splits, and statistics
certification.

Interaction data arrives as delimited user/item pairs or adjacency lists
with arbitrary string ids.  Ingestion remaps ids to dense contiguous
integers (users first, then items, each sorted lexicographically) and keeps
the label tables so every artifact written back uses original ids.  The
canonical form is sorted tab-separated pairs under a comment header with
counts and a checksum, so reloading is idempotent and corruption is
detectable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from linkprop.graphs import Graph, Partition, build_graph
from linkprop.ranking import SplitSet

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


def _parse_pair_lines(lines) -> list[tuple[str, str]]:
    """(user, item) label pairs from two-column lines; delimiter per line."""
    pairs = []
    for lineno, line in lines:
        if "\t" in line:
            fields = line.split("\t")
        elif "," in line:
            fields = line.split(",")
        else:
            fields = line.split()
        fields = [f.strip() for f in fields if f.strip() != ""]
        if lineno == 1 and len(fields) == 2 and (
                fields[0].lower() in HEADER_TOKENS
                or fields[1].lower() in HEADER_TOKENS):
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 2 fields, got "
                             f"{len(fields)}: {line!r}")
        pairs.append((fields[0], fields[1]))
    return pairs


def _parse_adjlist_lines(lines) -> list[tuple[str, str]]:
    pairs = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) < 2:
            raise ValueError(f"line {lineno}: adjacency line needs a user "
                             f"and at least one item: {line!r}")
        user = fields[0]
        pairs.extend((user, item) for item in fields[1:])
    return pairs


def _check_declared_counts(header_line: str, pairs, body: str):
    """Validate counts/checksum a canonical header declares about its body."""
    declared = dict(tok.split("=", 1) for tok in header_line[1:].split()
                    if "=" in tok)
    if "edges" in declared and int(declared["edges"]) != len(pairs):
        raise ValueError(f"header declares {declared['edges']} edges, "
                         f"file has {len(pairs)}")
    if "checksum" in declared:
        digest = hashlib.sha256(body.encode()).hexdigest()
        if digest != declared["checksum"]:
            raise ValueError("checksum mismatch: file body does not match "
                             "its canonical header")


def load_edge_list(path, fmt: str = "auto") -> Dataset:
    """Parse and remap an interaction file.

    fmt "pairs" expects two delimited columns (tab, comma, or whitespace;
    one optional header row), "adjlist" expects `user item item ...` lines,
    "auto" decides from the first data line.  Lines starting with `#` are
    comments; a canonical-form header among them has its counts and
    checksum verified.
    """
    if fmt not in ("auto", "pairs", "adjlist"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path) as fh:
        raw = fh.read()
    header_comment = None
    data_lines = []
    body_lines = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            if "checksum=" in stripped and header_comment is None:
                header_comment = stripped
            continue
        if stripped == "":
            continue
        data_lines.append((len(data_lines) + 1, stripped))
        body_lines.append(stripped)
    if not data_lines:
        raise ValueError(f"{path}: no data lines")
    if fmt == "auto":
        first = data_lines[0][1]
        fields = first.split("\t") if "\t" in first else (
            first.split(",") if "," in first else first.split())
        fmt = "pairs" if len(fields) == 2 else "adjlist"
    pairs = (_parse_pair_lines(data_lines) if fmt == "pairs"
             else _parse_adjlist_lines(data_lines))
    if header_comment is not None:
        _check_declared_counts(header_comment, pairs,
                               "\n".join(body_lines) + "\n")

    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    part = Partition(len(users), len(items))
    user_id = {u: k for k, u in enumerate(users)}
    item_id = {i: part.num_users + k for k, i in enumerate(items)}
    edges = np.unique(np.array([(user_id[u], item_id[i]) for u, i in pairs],
                               dtype=np.int64), axis=0)
    return Dataset(partition=part, edges=edges, user_labels=tuple(users),
                   item_labels=tuple(items))


def _canonical_body(dataset: Dataset) -> str:
    rows = sorted(dataset.label_pair(e) for e in dataset.edges)
    return "".join(f"{u}\t{i}\n" for u, i in rows)


def write_canonical(dataset: Dataset, path) -> None:
    """Sorted tab-separated pairs with a counts-and-checksum header."""
    body = _canonical_body(dataset)
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(f"# users={dataset.partition.num_users} "
                 f"items={dataset.partition.num_items} "
                 f"edges={dataset.edges.shape[0]} checksum={digest}\n")
        fh.write(body)


def dataset_from_graph(graph: Graph, prefix: tuple[str, str] = ("u", "i")) -> Dataset:
    """Attach zero-padded synthetic labels to a bipartite graph.

    Padding keeps lexicographic label order equal to numeric id order, so a
    write/reload round trip reproduces the same internal ids.
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
    dropped.  Deterministic per seed.
    """
    if graph.partition is None:
        raise ValueError("splitting needs a bipartite partition")
    ratios = check_ratios(ratios)
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

    return SplitSet(partition=graph.partition, train=_arr(train),
                    val=_arr(val), test=_arr(test), ratios=ratios, seed=seed,
                    flagged=tuple(flagged))


def graph_from_split(splits: SplitSet) -> Graph:
    """The training graph: candidates are masked against these edges."""
    return build_graph(splits.train, partition=splits.partition)


SPLIT_PARTS = ("train", "val", "test")


def save_splits(dataset: Dataset, splits: SplitSet, outdir) -> None:
    """Write dataset.tsv, one pair file per part, and split.json."""
    os.makedirs(outdir, exist_ok=True)
    write_canonical(dataset, os.path.join(outdir, "dataset.tsv"))
    for part in SPLIT_PARTS:
        edges = getattr(splits, part)
        rows = sorted(dataset.label_pair(e) for e in edges)
        with open(os.path.join(outdir, f"{part}.tsv"), "w") as fh:
            fh.write(f"# part={part} edges={len(rows)}\n")
            fh.writelines(f"{u}\t{i}\n" for u, i in rows)
    meta = {"ratios": list(splits.ratios), "seed": splits.seed,
            "flagged_users": [dataset.user_labels[u] for u in splits.flagged]}
    with open(os.path.join(outdir, "split.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_splits(outdir) -> tuple[Dataset, SplitSet]:
    """Inverse of save_splits; ids are re-derived from dataset.tsv."""
    dataset = load_edge_list(os.path.join(outdir, "dataset.tsv"), fmt="pairs")
    user_id = {u: k for k, u in enumerate(dataset.user_labels)}
    item_id = {i: dataset.partition.num_users + k
               for k, i in enumerate(dataset.item_labels)}
    parts = {}
    for part in SPLIT_PARTS:
        loaded = []
        with open(os.path.join(outdir, f"{part}.tsv")) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line == "" or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ValueError(f"{part}.tsv line {lineno}: bad pair")
                try:
                    loaded.append((user_id[fields[0]], item_id[fields[1]]))
                except KeyError as err:
                    raise ValueError(f"{part}.tsv line {lineno}: id {err} "
                                     "not in dataset.tsv") from None
        parts[part] = (np.unique(np.array(loaded, dtype=np.int64), axis=0)
                       if loaded else np.empty((0, 2), dtype=np.int64))
    with open(os.path.join(outdir, "split.json")) as fh:
        meta = json.load(fh)
    flagged = tuple(user_id[u] for u in meta["flagged_users"])
    splits = SplitSet(partition=dataset.partition, train=parts["train"],
                      val=parts["val"], test=parts["test"],
                      ratios=tuple(meta["ratios"]), seed=int(meta["seed"]),
                      flagged=flagged)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for dataset, model, seed, result in rows:
            writer.writerow([dataset, model, seed, result.k,
                             "%.17g" % result.precision,
                             "%.17g" % result.recall,
                             "%.17g" % result.ndcg])
