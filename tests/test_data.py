import hashlib
import json
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from linkprop import data_io
from linkprop.cli import main
from linkprop.data_io import (DENSITY_PCT_TOL, Dataset, ExpectedStats,
                              graph_density_pct, graph_from_split,
                              dataset_from_graph, load_edge_list, load_splits,
                              save_splits, split_dataset, verify_stats,
                              write_canonical, write_metrics_csv)
from linkprop.graphs import Partition, build_graph
from linkprop.ranking import EvalResult, SplitSet
from linkprop.synthetic import block_bipartite, random_bipartite

from conftest import DATA_DIR


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_tab_pairs(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "alice\tx\nbob\ty\nalice\ty\n"))
        assert ds.partition == Partition(2, 2)
        assert ds.user_labels == ("alice", "bob")
        assert ds.item_labels == ("x", "y")
        assert ds.edges.tolist() == [[0, 2], [0, 3], [1, 3]]

    def test_comma_and_whitespace(self, tmp_path):
        a = load_edge_list(write(tmp_path, "u1,i1\nu2,i2\n", "a.csv"))
        b = load_edge_list(write(tmp_path, "u1 i1\nu2 i2\n", "b.txt"))
        assert a.edges.tolist() == b.edges.tolist()
        assert a.user_labels == b.user_labels

    def test_header_row_skipped(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "user_id\titem_id\nu9\ti9\n"))
        assert ds.user_labels == ("u9",)
        assert ds.edges.shape == (1, 2)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "# a comment\n\nu\ti\n\n"))
        assert ds.edges.shape == (1, 2)

    def test_duplicates_collapse(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "u\ti\nu\ti\nu\tj\n"))
        assert ds.edges.shape == (2, 2)

    @given(st.lists(st.tuples(st.sampled_from(["u1", "u10", "u9", "U", "ü"]),
                              st.sampled_from(["i1", "i10", "i2", "x y", "é"])),
                    min_size=1, max_size=25),
           st.sampled_from(["\t", ",", " \t "]), st.booleans())
    def test_ids_follow_sorted_labels(self, pairs, sep, adjlist):
        # labels in Python's sorted order, then each distinct pair once
        if adjlist:
            pairs = [(u, i.replace(" ", "_")) for u, i in pairs]
            text = "".join(f"{u} {i}\n" for u, i in pairs)
        else:
            text = "".join(f"{u}{sep}{i}\n" for u, i in pairs)
        with tempfile.TemporaryDirectory() as tmp:
            path = write(pathlib.Path(tmp), text)
            ds = load_edge_list(path, fmt="adjlist" if adjlist else "pairs")
        users = sorted({u for u, _ in pairs})
        items = sorted({i for _, i in pairs})
        assert ds.user_labels == tuple(users)
        assert ds.item_labels == tuple(items)
        expected = sorted({(users.index(u), len(users) + items.index(i))
                           for u, i in pairs})
        assert ds.edges.dtype == np.int64
        assert ds.edges.tolist() == [list(e) for e in expected]

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "u1\ti1\nu2\ti2\textra\tmore\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(path, fmt="pairs")

    def test_malformed_line_names_the_file_line(self, tmp_path):
        # comment and blank lines count: the short pair is file line 4
        path = write(tmp_path, "# a comment\n\nu1\ti1\nu2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                           f"line 4: expected 2 fields"):
            load_edge_list(path)
        path = write(tmp_path, "# a comment\nu1 i1\n\nu2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                           f"line 4: adjacency line"):
            load_edge_list(path, fmt="adjlist")

    def test_header_row_is_the_first_data_line(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "# c\n\nuser\titem\nu\ti\n"))
        assert ds.user_labels == ("u",)
        path = write(tmp_path, "u\ti\nuser\titem\textra\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                           f"line 2: expected 2 fields"):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="no data lines"):
            load_edge_list(write(tmp_path, "# nothing here\n"))

    def test_adjlist(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "u1 i1 i2 i3\nu2 i1\n"),
                            fmt="adjlist")
        assert ds.partition == Partition(2, 3)
        assert ds.edges.shape == (4, 2)

    def test_adjlist_needs_item(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(write(tmp_path, "u1 i1\nu2\n"), fmt="adjlist")

    def test_auto_detects_adjlist(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "u1 i1 i2\nu2 i2\n"))
        assert ds.partition == Partition(2, 2)
        assert ds.edges.shape == (3, 2)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format must be one of"):
            load_edge_list(write(tmp_path, "u\ti\n"), fmt="parquet")

    def test_label_pair_inverts_remap(self, tmp_path):
        ds = load_edge_list(write(tmp_path, "bob\tzz\nann\tya\n"))
        pairs = {ds.label_pair(e) for e in ds.edges}
        assert pairs == {("bob", "zz"), ("ann", "ya")}


class TestCanonicalForm:
    def test_round_trip_preserves_everything(self, tmp_path):
        graph = random_bipartite(8, 6, 20, seed=3)
        ds = dataset_from_graph(graph)
        path = tmp_path / "canon.tsv"
        write_canonical(ds, path)
        back = load_edge_list(path)
        assert back.partition == ds.partition
        assert back.user_labels == ds.user_labels
        assert back.item_labels == ds.item_labels
        assert np.array_equal(back.edges, ds.edges)

    def test_write_is_idempotent(self, tmp_path):
        graph = random_bipartite(5, 5, 12, seed=1)
        ds = dataset_from_graph(graph)
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        write_canonical(ds, first)
        write_canonical(load_edge_list(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("tail", ["", "\n"])
    def test_header_token_labels_round_trip(self, tmp_path, tail):
        # a canonical file has no header row: its first pair is data even
        # when a label is a header token; tail "\n" reads line by line
        ds = Dataset(partition=Partition(2, 2),
                     edges=np.array([[0, 2], [1, 3]], dtype=np.int64),
                     user_labels=("item", "zed"), item_labels=("Source", "x"))
        path = tmp_path / "canon.tsv"
        write_canonical(ds, path)
        path.write_text(path.read_text(encoding="utf-8") + tail,
                        encoding="utf-8")
        back = load_edge_list(path)
        assert back.user_labels == ds.user_labels
        assert back.item_labels == ds.item_labels
        assert np.array_equal(back.edges, ds.edges)

    def test_edgeless_nodes_do_not_survive_a_round_trip(self, tmp_path):
        # the file holds pairs only, so a node without an edge leaves no
        # label in it; the header's users= and items= are not checked
        graph = block_bipartite(20, 80, 2, mean_degree=2, seed=0)
        ds = dataset_from_graph(graph)
        path = tmp_path / "canon.tsv"
        write_canonical(ds, path)
        back = load_edge_list(path)
        assert back.partition == Partition(20, 41)
        assert back.item_labels == tuple(
            ds.item_labels[k - 20] for k in np.unique(graph.edges[:, 1]))
        assert back.user_labels == ds.user_labels
        assert not np.array_equal(back.edges, ds.edges)
        assert ({back.label_pair(e) for e in back.edges}
                == {ds.label_pair(e) for e in ds.edges})

    @pytest.mark.parametrize("tail", ["", "\n"])
    def test_first_checksum_comment_counts(self, tmp_path, tail):
        # tail "" keeps the file clean pairs, "\n" has it read line by line
        graph = random_bipartite(4, 4, 8, seed=2)
        path = tmp_path / "canon.tsv"
        write_canonical(dataset_from_graph(graph), path)
        header, body = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(f"{header}\n# checksum=0\n{body}{tail}",
                        encoding="utf-8")
        assert load_edge_list(path).edges.shape == (8, 2)
        path.write_text(f"# checksum=0\n{header}\n{body}{tail}",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_edge_list(path)

    def test_checksum_detects_tampering(self, tmp_path):
        graph = random_bipartite(4, 4, 8, seed=2)
        path = tmp_path / "canon.tsv"
        write_canonical(dataset_from_graph(graph), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace("u", "v", 1)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_edge_list(path)

    def test_checksum_mismatch_names_the_file(self, tmp_path):
        graph = random_bipartite(4, 4, 8, seed=2)
        path = tmp_path / "canon.tsv"
        write_canonical(dataset_from_graph(graph), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:1] + lines[2:] + lines[1:2]),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: checksum mismatch")):
            load_edge_list(path)

    def test_header_edge_count_checked(self, tmp_path):
        graph = random_bipartite(4, 4, 8, seed=2)
        path = tmp_path / "canon.tsv"
        write_canonical(dataset_from_graph(graph), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        body = "".join(lines[1:-1])  # drop one data line
        path.write_text(lines[0] + body, encoding="utf-8")
        with pytest.raises(ValueError, match="edges"):
            load_edge_list(path)

    def test_bundled_datasets_load_clean(self):
        toy = load_edge_list(DATA_DIR + "/toy_50.tsv")
        assert toy.partition == Partition(30, 20)
        assert toy.edges.shape[0] == 163
        bench = load_edge_list(DATA_DIR + "/bench_500.tsv")
        assert bench.partition == Partition(300, 200)
        assert bench.edges.shape[0] == 2644


def loaded(path, fmt="auto"):
    """What load_edge_list makes of a file, in the oracle's terms: (user
    labels, item labels, partition, edges and their dtype), or the type and
    message of the error it raises."""
    try:
        ds = load_edge_list(path, fmt)
    except Exception as err:
        return type(err), str(err)
    return (ds.user_labels, ds.item_labels, ds.partition,
            ds.edges.tolist(), ds.edges.dtype)


def loaded_by_oracle(path, fmt="auto"):
    try:
        users, items, edges = reference.load_edge_list_scalar(path, fmt)
    except Exception as err:
        return type(err), str(err)
    return (users, items, Partition(len(users), len(items)),
            edges.tolist(), edges.dtype)


CLEAN_LABELS = st.sampled_from(["u1", "u10", "u9", "007", "7", "1e3", "-0",
                                "ü", "日本", "U", "é", "user", "ITEM",
                                "a\x00", "x,y", ",", "x,"])
LABELS = st.one_of(CLEAN_LABELS, st.sampled_from(
    ["a#b", "#x", "x y", "x\xa0y", "x\ty", "x\x1cy", ""]))
SEPARATORS = st.sampled_from(["\t", ",", " ", " \t ", "\t\t", ", ", "\xa0",
                              "\x1c", "\u3000", "\t\x0b"])
ENDINGS = st.sampled_from(["\r\n", "\r", "\x85", "\u2028", " \n", "\n\n",
                           "\n  \n", "\n# c\n"])
OTHER_LINES = st.sampled_from(["", "   ", "# a comment", "  # indented",
                               "#", "# checksum=0", "user\titem",
                               "user_id,item_id", "Source target", "u1 i1 i2",
                               "u1", "u1\ti1\ti2", "u1\t\ti1", ",u1,i1",
                               "#u1\ti1"])


@st.composite
def pair_files(draw):
    """The text of an interaction file: clean tab-separated pairs, some
    turned into other delimiters, labels, line endings, blank, comment,
    header or malformed lines, sometimes without the final newline, and
    sometimes under a canonical header over the text that follows it."""
    n = draw(st.integers(1, 8))
    lines = [draw(CLEAN_LABELS) + "\t" + draw(CLEAN_LABELS)
             for _ in range(n)]
    endings = ["\n"] * n
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, n - 1))
        change = draw(st.integers(0, 2))
        if change == 0:
            lines[k] = draw(LABELS) + draw(SEPARATORS) + draw(LABELS)
        elif change == 1:
            lines[k] = draw(OTHER_LINES)
        else:
            endings[k] = draw(ENDINGS)
    if draw(st.integers(0, 3)) == 0:
        endings[-1] = ""
    body = "".join(map(str.__add__, lines, endings))
    fields = []
    if draw(st.booleans()):
        fields.append(f"edges={draw(st.integers(max(n - 2, 0), n + 1))}")
    if draw(st.booleans()):
        fields.append("checksum=" + hashlib.sha256(body.encode()).hexdigest())
    header = "# users=2 " + " ".join(fields) + "\n" if fields else ""
    comments = draw(st.lists(st.sampled_from(
        ["#\n", "# c\n", "\n", " #\n", "# checksum=0\n"]), max_size=2))
    return "".join(comments) + header + body


class TestLoadEqualsOracle:
    @settings(max_examples=400)
    @given(pair_files(), st.sampled_from(["auto", "pairs", "adjlist"]))
    @example("u1\ti1\n#u1\ti1\nu9\ti9\n", "auto")
    @example("# a\x1cb\tc\nu1\ti1\n", "auto")
    @example("u1\ti1\nu9\ti9", "pairs")
    @example("a,b\tc\nd\te,f\n", "auto")
    @example("user\ti1\nu1\ti1\n", "adjlist")
    def test_any_file(self, text, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "edges.txt"
            path.write_bytes(text.encode("utf-8"))
            assert loaded(path, fmt) == loaded_by_oracle(path, fmt)

    @given(st.lists(st.tuples(CLEAN_LABELS, CLEAN_LABELS), min_size=1,
                    max_size=30), st.booleans())
    def test_clean_pair_files(self, pairs, with_header):
        text = "".join(f"{u}\t{i}\n" for u, i in pairs)
        if with_header:
            text = (f"# edges={len(pairs)} checksum="
                    f"{hashlib.sha256(text.encode()).hexdigest()}\n" + text)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "edges.tsv"
            path.write_bytes(text.encode("utf-8"))
            assert loaded(path) == loaded_by_oracle(path)

    @pytest.mark.parametrize("name", ["bench_500.tsv", "toy_50.tsv"])
    def test_bundled_files(self, name):
        path = f"{DATA_DIR}/{name}"
        assert loaded(path) == loaded_by_oracle(path)
        assert loaded(path, "pairs") == loaded_by_oracle(path, "pairs")

    def test_undecodable_file_names_itself(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"u1\ti1\nu2\t\xff\n")
        assert loaded(path) == loaded_by_oracle(path) == (
            ValueError, f"{path}: 'utf-8' codec can't decode byte 0xff in "
                        f"position 9: invalid start byte")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block10k_files(self, tmp_path, seed):
        # the benchmark's 10k-node file
        graph = block_bipartite(2000, 8000, 8, mean_degree=20, seed=seed)
        path = tmp_path / "block10k.tsv"
        write_canonical(dataset_from_graph(graph), path)
        assert loaded(path) == loaded_by_oracle(path)


class TestCleanPairsPath:
    """Canonical files skip the line-by-line reader."""

    @pytest.fixture
    def no_line_reader(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("read line by line")
        monkeypatch.setattr(data_io, "_read_lines", refuse)

    @pytest.mark.parametrize("name", ["bench_500.tsv", "toy_50.tsv"])
    def test_bundled_files(self, no_line_reader, name):
        load_edge_list(f"{DATA_DIR}/{name}")
        load_edge_list(f"{DATA_DIR}/{name}", fmt="pairs")

    def test_written_canonical_file(self, no_line_reader, tmp_path):
        graph = block_bipartite(40, 60, 3, mean_degree=4, seed=1)
        path = tmp_path / "canon.tsv"
        write_canonical(dataset_from_graph(graph, prefix=("ü", "日")), path)
        assert load_edge_list(path).edges.shape[0] == graph.num_edges

    @pytest.mark.parametrize("text", [
        "u\ti\nv\tj", "u\ti\n\nv\tj\n", "u,i\n", "u i\n", "u\ti\tk\n",
        "u\ti\n# c\nv\tj\n", "u\ta#b\n", "u\t i\n", "u\xa0x\ti\n",
        "# a\x1cb\tc\nu\ti\n"])
    def test_other_files_are_read_line_by_line(self, no_line_reader, tmp_path,
                                               text):
        with pytest.raises(AssertionError, match="read line by line"):
            load_edge_list(write(tmp_path, text))

    def test_whitespace_sets_agree(self):
        # what lets one `split` stand for the per-line strip and split:
        # `re`'s \s, `str.isspace`, `str.split` and `str.strip` name the
        # same characters, and `splitlines` breaks only at some of them
        chars = "".join(map(chr, range(0x110000)))
        space = "".join(c for c in chars if c.isspace())
        assert "".join(re.findall(r"\s", chars)) == space
        assert "".join(chars.split()) == "".join(
            c for c in chars if not c.isspace())
        assert all((c.strip() == "") == c.isspace() for c in chars)
        breaks = {line[-1] for line in
                  "x".join(chars).splitlines(keepends=True)[:-1]}
        assert breaks and breaks <= set(space)


# the oracle for `_clean_pair_tokens`: clean tab-separated pairs, whose
# tokens are one `split` away from the line reader's columns
CLEAN_PAIRS = re.compile(r"(?:[^\s#]+\t[^\s#]+\n)+")

# labels, the two separators, the other whitespace `split` and `strip` use
# (ASCII and not), `#`, a control character that is no whitespace, and a
# lone surrogate, which is no UTF-8 text but is a `str`
BODY_CHARS = ["a", "\xe9", "\u65e5", "\t", "\n", " ", "\r", "\x0b", "\x0c",
              "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003",
              "\u3000", "#", "\x01", "\ud800"]
LABEL = st.text(st.sampled_from(["a", "\xe9", "\u65e5", "\x01", "\ud800"]),
                min_size=1, max_size=3)


@st.composite
def near_clean_bodies(draw):
    """Clean tab-separated pairs with up to two characters replaced,
    inserted or deleted."""
    pairs = draw(st.lists(st.tuples(LABEL, LABEL), min_size=1, max_size=4))
    body = "".join(f"{u}\t{i}\n" for u, i in pairs)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 1))
        edit = draw(st.sampled_from(BODY_CHARS + [""]))
        body = body[:at] + edit + body[at + cut:]
    return body


class TestCleanPairTokens:
    """The admission test accepts exactly the bodies the regex accepts."""

    @given(st.one_of(st.text(st.sampled_from(BODY_CHARS), max_size=16),
                     near_clean_bodies()))
    @example("a\tb\n")
    @example("a\tb\nc\td\n")
    @example("a\tb\tc\nd\n")
    @example("a\nb\tc\td\n")
    @example("\ta\nb\tc\n")
    @example("a\t\xa0\nb\tc\n")
    @example("\ud800\t\u65e5\n")
    @example("")
    def test_agrees_with_the_regex(self, body):
        tokens = data_io._clean_pair_tokens(body)
        assert (tokens is not None) == bool(CLEAN_PAIRS.fullmatch(body))
        if tokens is not None:
            assert tokens == body.split()


class TestSplitDataset:
    @pytest.mark.parametrize("ratios", [
        (0.8, 0.2), (0.5, 0.3, 0.3), (-0.1, 0.6, 0.5), (0.8, 0.1, 0.2),
        (float("nan"), 0.5, 0.5), (float("inf"), 0.5, 0.5),
        (0.5, float("-inf"), 0.5)])
    def test_ratio_validation(self, ratios):
        graph = random_bipartite(4, 4, 8, seed=0)
        with pytest.raises(ValueError, match="ratios"):
            split_dataset(graph, ratios=ratios)

    def test_needs_partition(self):
        graph = build_graph([(0, 1)], num_nodes=2)
        with pytest.raises(ValueError, match="partition"):
            split_dataset(graph)

    def test_edge_arrays_are_read_only(self):
        # a training graph's memo keeps its Rankers under the split set
        splits = split_dataset(block_bipartite(10, 8, 2, mean_degree=4,
                                               seed=0), (0.6, 0.2, 0.2))
        assert splits.val.shape[0] > 0
        with pytest.raises(ValueError, match="read-only"):
            splits.val[0, 1] = splits.val[0, 1]
        assert not any(getattr(splits, part).flags.writeable
                       for part in ("train", "val", "test"))

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must be >= 0, got -1"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5")])
    def test_bad_seed_names_the_seed(self, seed, message):
        graph = random_bipartite(4, 4, 8, seed=0)
        with pytest.raises(ValueError, match=message):
            split_dataset(graph, seed=seed)

    def test_all_train(self):
        graph = random_bipartite(6, 5, 15, seed=1)
        splits = split_dataset(graph, ratios=(1.0, 0.0, 0.0))
        assert splits.train.shape[0] == graph.num_edges
        assert splits.val.shape[0] == 0 and splits.test.shape[0] == 0
        assert splits.flagged == tuple(range(6))

    def test_single_edge_user_kept_in_train(self):
        part = Partition(2, 3)
        graph = build_graph([(0, 2), (1, 2), (1, 3), (1, 4)], partition=part)
        splits = split_dataset(graph, ratios=(0.4, 0.3, 0.3), seed=0)
        assert (0, 2) in {tuple(e) for e in splits.train}
        assert 0 in splits.flagged

    def test_per_user_rounded_counts(self):
        # a 10-edge user under 80/10/10 gets exactly 8/1/1
        part = Partition(1, 10)
        graph = build_graph([(0, 1 + i) for i in range(10)], partition=part)
        splits = split_dataset(graph, ratios=(0.8, 0.1, 0.1), seed=5)
        assert splits.train.shape[0] == 8
        assert splits.val.shape[0] == 1
        assert splits.test.shape[0] == 1
        assert splits.flagged == ()

    def test_deterministic_per_seed(self):
        graph = block_bipartite(20, 15, 3, mean_degree=5, seed=4)
        a = split_dataset(graph, seed=9)
        b = split_dataset(graph, seed=9)
        c = split_dataset(graph, seed=10)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)
        assert not np.array_equal(a.train, c.train)

    @given(st.integers(0, 50))
    def test_property_disjoint_cover(self, seed):
        graph = block_bipartite(12, 10, 2, mean_degree=4, seed=seed)
        splits = split_dataset(graph, seed=seed)
        parts = [splits.train, splits.val, splits.test]
        sets = [{tuple(e) for e in p} for p in parts]
        assert sets[0] | sets[1] | sets[2] == {tuple(e) for e in graph.edges}
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
        # every user keeps at least one training edge
        assert set(splits.train[:, 0]) == set(range(12))


@st.composite
def user_item_graph(draw):
    """Bipartite graph in which some users may have no edge at all."""
    part = Partition(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    cells = [(u, part.num_users + i) for u in range(part.num_users)
             for i in range(part.num_items)]
    chosen = draw(st.lists(st.sampled_from(cells), max_size=len(cells)))
    return build_graph(chosen, partition=part)


class TestSplitMatchesScalarLoop:
    """The vectorized split against the per-user, per-edge loop it replaced."""

    @staticmethod
    def check(graph, ratios, seed):
        got = split_dataset(graph, ratios=ratios, seed=seed)
        train, val, test, flagged = reference.split_dataset_scalar(
            graph, ratios, seed)
        for part, expected in zip((got.train, got.val, got.test),
                                  (train, val, test)):
            assert part.dtype == expected.dtype
            assert np.array_equal(part, expected)
        assert got.flagged == flagged
        assert all(type(u) is int for u in got.flagged)

    @settings(max_examples=100)
    @given(user_item_graph(), st.sampled_from([
        (0.8, 0.1, 0.1), (0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0), (0.2, 0.3, 0.5), (0.5, 0.25, 0.25),
        (0.0, 0.5, 0.5)]), st.integers(0, 2**16))
    def test_equal_to_scalar_oracle(self, graph, ratios, seed):
        self.check(graph, ratios, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_to_scalar_oracle_on_bench_500(self, seed):
        graph = load_edge_list(f"{DATA_DIR}/bench_500.tsv").to_graph()
        self.check(graph, (0.8, 0.1, 0.1), seed)


class TestSaveLoadSplits:
    def test_round_trip(self, tmp_path):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        ds = dataset_from_graph(graph)
        splits = split_dataset(graph, seed=3)
        save_splits(ds, splits, tmp_path)
        back_ds, back_splits = load_splits(tmp_path)
        assert back_ds.user_labels == ds.user_labels
        assert np.array_equal(back_splits.train, splits.train)
        assert np.array_equal(back_splits.val, splits.val)
        assert np.array_equal(back_splits.test, splits.test)
        assert back_splits.ratios == splits.ratios
        assert back_splits.seed == splits.seed
        assert back_splits.flagged == splits.flagged

    def test_loaded_edge_arrays_are_read_only(self, tmp_path):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        save_splits(dataset_from_graph(graph),
                    split_dataset(graph, (0.6, 0.2, 0.2)), tmp_path)
        splits = load_splits(tmp_path)[1]
        assert splits.test.shape[0] > 0
        with pytest.raises(ValueError, match="read-only"):
            splits.test[0, 1] = splits.test[0, 1]
        assert not any(getattr(splits, part).flags.writeable
                       for part in ("train", "val", "test"))

    def test_numpy_integer_seed_round_trips(self, tmp_path):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        splits = split_dataset(graph, seed=np.int64(3))
        save_splits(dataset_from_graph(graph), splits, tmp_path)
        assert load_splits(tmp_path)[1].seed == 3

    @staticmethod
    def edit_meta(path, **fields):
        meta = json.loads((path / "split.json").read_text(encoding="utf-8"))
        meta.update(fields)
        (path / "split.json").write_text(json.dumps(meta), encoding="utf-8")

    @pytest.mark.parametrize("seed, message", [
        (True, "seed must be an integer, got True"),
        (2.7, "seed must be an integer, got 2.7"),
        (3.0, "seed must be an integer, got 3.0"),
        ("3", "seed must be an integer, got '3'"),
        (None, "seed must be an integer, got None"),
        (-4, "seed must be >= 0, got -4"),
    ])
    def test_bad_seed_rejected(self, tmp_path, seed, message):
        # int() used to load True as 1, 2.7 as 2 and -4 as -4
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        save_splits(dataset_from_graph(graph), split_dataset(graph), tmp_path)
        self.edit_meta(tmp_path, seed=seed)
        with pytest.raises(ValueError,
                           match=f"^split.json: {re.escape(message)}$"):
            load_splits(tmp_path)

    @pytest.mark.parametrize("ratios, message", [
        ([0.5, 0.5, 0.5], "ratios must sum to 1, got 1.5"),
        ([0.5, 0.5], "ratios must be three finite nonnegative values"),
        ([1.2, -0.1, -0.1], "ratios must be three finite nonnegative values"),
        ([True, False, False], "ratios must be a list of numbers"),
        (["0.8", "0.1", "0.1"], "ratios must be a list of numbers"),
        (1.0, "ratios must be a list of numbers"),
    ])
    def test_bad_ratios_rejected(self, tmp_path, ratios, message):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        save_splits(dataset_from_graph(graph), split_dataset(graph), tmp_path)
        self.edit_meta(tmp_path, ratios=ratios)
        with pytest.raises(ValueError,
                           match=f"^split.json: {re.escape(message)}"):
            load_splits(tmp_path)

    @pytest.mark.parametrize("labels, message", [
        (["nobody"], "flagged_users: user 'nobody' not in dataset.tsv"),
        ("u000", "flagged_users must be a list of strings, got 'u000'"),
        ([0], "flagged_users must be a list of strings, got [0]"),
        (None, "flagged_users must be a list of strings, got None"),
    ])
    def test_bad_flagged_users_rejected(self, tmp_path, labels, message):
        # each used to raise a bare KeyError: 'nobody', or 'u' for the
        # string "u000", which was iterated per character
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        save_splits(dataset_from_graph(graph), split_dataset(graph), tmp_path)
        self.edit_meta(tmp_path, flagged_users=labels)
        with pytest.raises(ValueError,
                           match=f"^split.json: {re.escape(message)}$"):
            load_splits(tmp_path)

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_bad_part_line_names_the_part(self, tmp_path, part):
        # every part has a header, so a three-field line appended to one
        # is its file line edges + 2
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        splits = split_dataset(graph)
        save_splits(dataset_from_graph(graph), splits, tmp_path)
        path = tmp_path / f"{part}.tsv"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("u\ti\textra\n")
        lineno = getattr(splits, part).shape[0] + 2
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                           f"line {lineno}: expected 2 fields, got 3"):
            load_splits(tmp_path)

    def test_item_label_is_no_flagged_user(self, tmp_path):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        ds = dataset_from_graph(graph)
        save_splits(ds, split_dataset(graph), tmp_path)
        self.edit_meta(tmp_path, flagged_users=[ds.item_labels[0]])
        with pytest.raises(ValueError, match="^split.json: flagged_users: "):
            load_splits(tmp_path)

    def test_non_object_rejected(self, tmp_path):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        save_splits(dataset_from_graph(graph), split_dataset(graph), tmp_path)
        (tmp_path / "split.json").write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"^split.json: not a JSON object, got \[\]$"):
            load_splits(tmp_path)

    @pytest.mark.parametrize("key", ["ratios", "seed", "flagged_users"])
    def test_missing_key_rejected(self, tmp_path, key):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        save_splits(dataset_from_graph(graph), split_dataset(graph), tmp_path)
        meta = json.loads((tmp_path / "split.json").read_text(encoding="utf-8"))
        del meta[key]
        (tmp_path / "split.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError,
                           match=f"^split.json: missing key '{key}'$"):
            load_splits(tmp_path)

    def test_integer_ratios_load_as_floats(self, tmp_path):
        graph = block_bipartite(6, 5, 2, mean_degree=3, seed=1)
        save_splits(dataset_from_graph(graph),
                    split_dataset(graph, ratios=(1.0, 0.0, 0.0)), tmp_path)
        self.edit_meta(tmp_path, ratios=[1, 0, 0])
        ratios = load_splits(tmp_path)[1].ratios
        assert ratios == (1.0, 0.0, 0.0)
        assert all(type(r) is float for r in ratios)

    def test_unknown_id_rejected(self, tmp_path):
        graph = random_bipartite(4, 4, 8, seed=1)
        save_splits(dataset_from_graph(graph), split_dataset(graph), tmp_path)
        with open(tmp_path / "train.tsv", "a", encoding="utf-8") as fh:
            fh.write("ghost\ti0\n")
        with pytest.raises(ValueError, match="not in dataset.tsv"):
            load_splits(tmp_path)

    @pytest.fixture
    def saved(self, tmp_path):
        # 51 train, 4 validation and 4 test edges
        graph = block_bipartite(12, 10, 2, mean_degree=10, seed=0)
        splits = split_dataset(graph, seed=3)
        save_splits(dataset_from_graph(graph), splits, tmp_path)
        return splits

    def test_parts_are_canonical_files(self, tmp_path, saved):
        for part in ("train", "val", "test"):
            header = (tmp_path / f"{part}.tsv").read_text(
                encoding="utf-8").split("\n", 1)[0]
            assert f"edges={getattr(saved, part).shape[0]} " in header
            assert "checksum=" in header

    def test_truncated_part_rejected(self, tmp_path, saved):
        # a part file used to load whatever lines were left in it
        path = tmp_path / "train.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-5]), encoding="utf-8")
        n = saved.train.shape[0]
        with pytest.raises(ValueError,
                           match=f"header declares {n} edges, file has {n - 5}"):
            load_splits(tmp_path)

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_header_errors_name_the_part(self, tmp_path, saved, part):
        # the edge count and a non-integer `edges=` name the file they
        # are in, not only the count
        path = tmp_path / f"{part}.tsv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        n = getattr(saved, part).shape[0]
        path.write_text("\n".join([header, *rows[:-1]]) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header declares {n} edges, file has {n - 1}")):
            load_splits(tmp_path)
        path.write_text("\n".join([header.replace(f"edges={n} ", "edges=zz "),
                                   *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header's edges=zz is not an integer")):
            load_splits(tmp_path)

    def test_edited_part_rejected(self, tmp_path, saved):
        # same count, every label known: only the checksum sees the edit
        path = tmp_path / "test.tsv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        user, item = rows[0].split("\t")
        other = next(i for i in (f"i{k}" for k in range(10)) if i != item)
        rows[0] = f"{user}\t{other}"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_splits(tmp_path)

    def test_empty_parts_round_trip(self, tmp_path):
        graph = block_bipartite(6, 5, 2, mean_degree=3, seed=1)
        splits = split_dataset(graph, ratios=(1.0, 0.0, 0.0))
        save_splits(dataset_from_graph(graph), splits, tmp_path)
        assert (tmp_path / "val.tsv").read_text(
            encoding="utf-8").count("\n") == 1
        _, back = load_splits(tmp_path)
        assert np.array_equal(back.train, splits.train)
        for part in (back.val, back.test):
            assert part.shape == (0, 2) and part.dtype == np.int64

    def test_truncated_to_empty_part_rejected(self, tmp_path, saved):
        path = tmp_path / "val.tsv"
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header declares"):
            load_splits(tmp_path)

    def test_parts_without_checksum_still_load(self, tmp_path, saved):
        # the part format written before parts carried a checksum header
        ds = load_edge_list(tmp_path / "dataset.tsv")
        for part in ("train", "val", "test"):
            rows = sorted(ds.label_pair(e) for e in getattr(saved, part))
            (tmp_path / f"{part}.tsv").write_text(
                f"# part={part} edges={len(rows)}\n"
                + "".join(f"{u}\t{i}\n" for u, i in rows), encoding="utf-8")
        _, back = load_splits(tmp_path)
        for part in ("train", "val", "test"):
            assert np.array_equal(getattr(back, part), getattr(saved, part))

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_lost_header_rejected(self, tmp_path, saved, part):
        # a part emptied to zero bytes, or one that lost its header line
        path = tmp_path / f"{part}.tsv"
        body = path.read_text(encoding="utf-8").split("\n", 1)[1]
        for text in ("", body):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError,
                               match=f"^{part}.tsv: no header declaring"):
                load_splits(tmp_path)

    @pytest.fixture
    def token_labels(self):
        # every part and dataset.tsv open with a pair naming a header token
        ds = Dataset(partition=Partition(2, 2),
                     edges=np.array([[0, 2], [0, 3], [1, 2], [1, 3]],
                                    dtype=np.int64),
                     user_labels=("a", "b"), item_labels=("source", "x"))
        splits = SplitSet(partition=ds.partition,
                          train=np.array([[0, 3], [1, 3]], dtype=np.int64),
                          val=np.array([[0, 2]], dtype=np.int64),
                          test=np.array([[1, 2]], dtype=np.int64),
                          ratios=(0.5, 0.25, 0.25), seed=0, flagged=(0,))
        return ds, splits

    @pytest.mark.parametrize("old_format", [False, True])
    def test_header_token_labels_round_trip(self, tmp_path, token_labels,
                                            old_format):
        ds, splits = token_labels
        save_splits(ds, splits, tmp_path)
        if old_format:
            for part in ("train", "val", "test"):
                rows = sorted(ds.label_pair(e) for e in getattr(splits, part))
                (tmp_path / f"{part}.tsv").write_text(
                    f"# part={part} edges={len(rows)}\n"
                    + "".join(f"{u}\t{i}\n" for u, i in rows),
                    encoding="utf-8")
        assert (tmp_path / "test.tsv").read_text(
            encoding="utf-8").splitlines()[1] == "b\tsource"
        back_ds, back = load_splits(tmp_path)
        assert back_ds.item_labels == ds.item_labels
        for part in ("train", "val", "test"):
            assert np.array_equal(getattr(back, part), getattr(splits, part))

    def test_old_format_edge_count_checked(self, tmp_path, token_labels):
        ds, splits = token_labels
        save_splits(ds, splits, tmp_path)
        (tmp_path / "train.tsv").write_text("# part=train edges=2\na\tx\n",
                                            encoding="utf-8")
        with pytest.raises(ValueError, match="header declares 2 edges, file has 1"):
            load_splits(tmp_path)

    def test_train_graph_masks_candidates(self, tmp_path):
        graph = random_bipartite(4, 4, 10, seed=2)
        splits = split_dataset(graph, seed=1)
        train_graph = graph_from_split(splits)
        assert train_graph.num_edges == splits.train.shape[0]
        assert train_graph.partition == graph.partition


class TestUnreadableInputNamesItsFile:
    """What a command prints for a file it cannot decode or parse: one
    `error:` line naming the file, and exit code 2."""

    @pytest.fixture
    def splitdir(self, tmp_path):
        graph = block_bipartite(10, 8, 2, mean_degree=4, seed=0)
        save_splits(dataset_from_graph(graph), split_dataset(graph), tmp_path)
        return tmp_path

    @staticmethod
    def error_line(capsys, *argv) -> str:
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        return captured.err

    def test_data_file(self, tmp_path, capsys):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"u1\ti1\nu2\t\xff\n")
        assert self.error_line(
            capsys, "ingest", "--input", str(path),
            "--output", str(tmp_path / "out.tsv")).startswith(
            f"error: {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("part", ["dataset", "train", "val", "test"])
    def test_split_part(self, splitdir, capsys, part):
        path = splitdir / f"{part}.tsv"
        path.write_bytes(path.read_bytes() + b"\xff\tx\n")
        assert self.error_line(
            capsys, "train", "--splits", str(splitdir), "--model", "mf",
            "--outdir", str(splitdir / "out")).startswith(
            f"error: {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("text, message", [
        (b"{x", "Expecting property name enclosed in double quotes"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff")])
    def test_split_json(self, splitdir, capsys, text, message):
        (splitdir / "split.json").write_bytes(text)
        assert self.error_line(
            capsys, "evaluate", "--splits", str(splitdir), "--model", "mf",
            "--embeddings", str(splitdir / "absent.npy")).startswith(
            f"error: split.json: {message}")


class TestDensityAndStats:
    def test_density_conventions(self):
        part = Partition(2, 3)
        graph = build_graph([(0, 2), (0, 3), (1, 4)], partition=part)
        density, pair_density = graph_density_pct(graph)
        assert density == pytest.approx(100.0 * 3 / 6)
        assert pair_density == pytest.approx(100.0 * 3 / 10)

    def test_verify_passes_on_matching_stats(self):
        graph = random_bipartite(40, 30, 200, seed=7)
        expected = ExpectedStats(nodes=70, links=200,
                                 density_pct=100.0 * 200 / 1200)
        report = verify_stats(graph, expected)
        assert report.passed
        assert report.mismatches == ()
        assert report.lines()[-1] == "PASS"

    def test_dropped_edge_fails_both_checks(self):
        graph = random_bipartite(40, 30, 200, seed=7)
        short = build_graph(graph.edges[:-1], partition=graph.partition)
        expected = ExpectedStats(nodes=70, links=200,
                                 density_pct=100.0 * 200 / 1200)
        report = verify_stats(short, expected)
        assert not report.passed
        assert any("links" in m for m in report.mismatches)
        assert report.lines()[-1] == "FAIL"

    def test_density_tolerance_is_tight(self):
        graph = random_bipartite(40, 30, 200, seed=7)
        off = ExpectedStats(nodes=70, links=200,
                            density_pct=100.0 * 200 / 1200 + 2 * DENSITY_PCT_TOL)
        assert not verify_stats(graph, off).passed


class TestMetricsCsv:
    def test_rows_round_trip_exactly(self, tmp_path):
        result = EvalResult(k=20, precision=1.0 / 3.0, recall=2.0 / 7.0,
                            ndcg=0.123456789012345678, users_evaluated=5,
                            users_skipped=1)
        path = tmp_path / "metrics.csv"
        write_metrics_csv([("toy", "mf", 0, result)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "dataset,model,seed,k,precision,recall,ndcg"
        fields = lines[1].split(",")
        assert fields[:4] == ["toy", "mf", "0", "20"]
        assert float(fields[4]) == result.precision
        assert float(fields[5]) == result.recall
        assert float(fields[6]) == result.ndcg
