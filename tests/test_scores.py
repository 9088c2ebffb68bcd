"""SupportPattern.scores against the gather it replaced on dense blocks.

`reference.gathered_scores` is the chunked two-row gather that scored
every owned slot before dense row blocks were scored by one einsum Gram.
Every comparison is bitwise: on both paths, for float32 and float64, for
C-ordered, Fortran-ordered and strided Y, and with signed zeros,
infinities, nan and subnormal products.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import reference
from linkprop import graphs
from linkprop.data_io import load_edge_list
from linkprop.graphs import SupportPattern
from linkprop.losses import ModelParams, build_masks
from linkprop.negatives import sample_negatives

from conftest import DATA_DIR

DIMS = [1, 31, 32, 33, 63, 64, 65, 128]
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, "subnormal", "-subnormal"]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_scores(pattern, Y):
    expected = reference.gathered_scores(Y, pattern.owned_rows,
                                         pattern.owned_cols)
    assert same_bits(pattern.scores(Y), expected)


def check_blocks(pattern, density):
    """The blocks tile the owned slots in order, and each takes the path
    its rectangle's fill selects."""
    rows, cols = pattern.owned_rows, pattern.owned_cols
    stop = 0
    for start, stop_, gram in pattern.blocks:
        assert start == stop and stop_ > start
        stop = stop_
        block_rows, block_cols = rows[start:stop], cols[start:stop]
        if gram is None:
            continue
        lo, hi, c0, c1, flat = gram
        assert (lo, hi) == (block_rows.min(), block_rows.max() + 1)
        assert (c0, c1) == (block_cols.min(), block_cols.max() + 1)
        assert (hi - 1) // graphs._GRAM_ROWS == lo // graphs._GRAM_ROWS
        assert stop - start >= density * (hi - lo) * (c1 - c0)
        assert np.array_equal(flat, (block_rows - lo) * (c1 - c0) + block_cols - c0)
    assert stop == rows.shape[0]
    runs = [gram is None for _, _, gram in pattern.blocks]
    assert not any(a and b for a, b in zip(runs, runs[1:]))
    if density == np.inf:
        assert all(runs)
    if density == 0.0:
        assert not any(runs)


@st.composite
def supports(draw):
    """(pos, neg) weight matrices on 1-40 nodes: sparse to full,
    symmetric or not, with diagonal entries, neg possibly empty."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.random((n, n)) < draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    if draw(st.booleans()):
        pos |= pos.T
    neg = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    return sp.csr_array(pos * 1.0), sp.csr_array(neg * 0.5)


@st.composite
def embeddings(draw, n):
    """An (n, d) Y in float32 or float64, C-ordered, Fortran-ordered or a
    strided view, with special values at drawn entries.  At the tiny
    scale every product is subnormal."""
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    d = draw(st.sampled_from(DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiny = np.sqrt(np.finfo(dtype).smallest_normal) / 4
    scale = draw(st.sampled_from([2.0, float(tiny)]))
    Y = (rng.normal(size=(n, d)) * scale).astype(dtype)
    subnormal = np.finfo(dtype).smallest_subnormal
    for index, value in draw(st.lists(st.tuples(
            st.integers(0, n * d - 1), st.sampled_from(SPECIALS)), max_size=8)):
        if isinstance(value, str):
            value = (-3 if value[0] == "-" else 3) * subnormal
        Y.flat[index] = value
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(Y)
    if layout == "strided":
        host = np.zeros((2 * n, 3 * d), dtype=dtype)
        host[::2, 1::3] = Y
        return host[::2, 1::3]
    return Y


@settings(max_examples=300, deadline=None)
@given(pair=supports(), data=st.data(),
       density=st.sampled_from([0.0, graphs._GRAM_DENSITY, np.inf]),
       block_rows=st.sampled_from([1, 3, 128]), chunk=st.sampled_from([1, 7, 1024]))
def test_scores_equal_the_gather_oracle(pair, data, density, block_rows, chunk):
    pos, neg = pair
    Y = data.draw(embeddings(pos.shape[0]))
    with mock.patch.multiple(graphs, _GRAM_DENSITY=density,
                             _GRAM_ROWS=block_rows, _CHUNK=chunk):
        pattern = SupportPattern(pos, neg)
        check_blocks(pattern, density)
        check_scores(pattern, Y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("density", [0.0, np.inf])
@pytest.mark.parametrize("cells", [[], [(0, 0)]])
def test_one_node(cells, density, dtype):
    pos = sp.csr_array(np.array([[1.0 if cells else 0.0]]))
    with mock.patch.object(graphs, "_GRAM_DENSITY", density):
        pattern = SupportPattern(pos, sp.csr_array((1, 1)))
        Y = np.array([[-1.5, 0.25, np.inf]], dtype=dtype)
        check_scores(pattern, Y)
        assert pattern.scores(Y).shape == (len(cells),)
        assert len(pattern.blocks) == len(cells)


@pytest.mark.parametrize("density", [0.0, graphs._GRAM_DENSITY, np.inf])
def test_empty_negative_mask(density):
    rng = np.random.default_rng(4)
    pos = rng.random((30, 30)) < 0.6
    with mock.patch.object(graphs, "_GRAM_DENSITY", density):
        pattern = SupportPattern(sp.csr_array((pos | pos.T) * 1.0),
                                 sp.csr_array((30, 30)))
        check_blocks(pattern, density)
        check_scores(pattern, rng.normal(size=(30, 33)))


@pytest.fixture(scope="module")
def bench_patterns():
    graph = load_edge_list(DATA_DIR + "/bench_500.tsv").to_graph()
    negatives = sample_negatives(graph, seed=0)
    return {model: build_masks(graph, negatives, ModelParams(model)).pattern
            for model in ("mf", "deepwalk")}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bench_paths(bench_patterns, dtype):
    # the window-5 walk mask fills every block enough for the Gram; the
    # mf pattern is one gathered run, the code it ran before the Gram
    deepwalk, mf = bench_patterns["deepwalk"], bench_patterns["mf"]
    assert len(deepwalk.blocks) == 4
    assert all(gram is not None for _, _, gram in deepwalk.blocks)
    assert mf.blocks == [(0, mf.owned_rows.shape[0], None)]
    Y = np.random.default_rng(0).normal(scale=0.3, size=(500, 32)).astype(dtype)
    for pattern in (deepwalk, mf):
        check_blocks(pattern, graphs._GRAM_DENSITY)
        for layout in (Y, np.asfortranarray(Y), np.repeat(Y, 2, axis=1)[:, ::2]):
            check_scores(pattern, layout)


class TestRejectedInput:
    @pytest.fixture
    def pattern(self):
        return SupportPattern(sp.csr_array(np.ones((3, 3))), sp.csr_array((3, 3)))

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1), ()])
    def test_not_two_dimensional(self, pattern, shape):
        with pytest.raises(ValueError, match=r"2-d array, got shape \(3"
                           if shape else r"2-d array, got shape \(\)"):
            pattern.scores(np.ones(shape))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_,
                                       np.complex128, object])
    def test_not_real_floating(self, pattern, dtype):
        with pytest.raises(ValueError, match=f"floating-point dtype, got "
                                             f"{np.dtype(dtype)}"):
            pattern.scores(np.ones((3, 2), dtype=dtype))

    def test_wrong_row_count(self, pattern):
        with pytest.raises(ValueError, match="Y has 4 rows, the pattern 3"):
            pattern.scores(np.ones((4, 2)))
