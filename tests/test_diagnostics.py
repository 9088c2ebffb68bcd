import csv
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linkprop.diagnostics import (CSV_FIELDS, emit_trajectories, frobenius,
                                  mean_positive_kernel, substep_contractions)
from linkprop.kernel import (KernelOperator, SubstepTrace, kernel_update,
                             link_kernels, score_matrices)
from linkprop.losses import ModelParams


class TestMeanPositiveKernel:
    def test_zero_embedding_means_half(self, small_instance):
        graph, neg = small_instance
        op = KernelOperator.build(ModelParams("mf"), 0.1, graph, neg)
        scores = score_matrices(np.zeros((graph.num_nodes, 3)), op)
        kernels = link_kernels(scores, op)
        assert mean_positive_kernel(kernels.k_plus) == pytest.approx(0.5)

    def test_empty_support_rejected(self):
        import scipy.sparse as sp
        empty = sp.csr_array((4, 4))
        with pytest.raises(ValueError, match="empty support"):
            mean_positive_kernel(empty)

    def test_saturated_zeros_still_count(self, small_instance):
        # perfectly reconstructed links contribute explicit zeros, which must
        # stay in the support and drag the mean to exactly zero rather than
        # leaving it undefined
        graph, neg = small_instance
        op = KernelOperator.build(ModelParams("mf"), 0.1, graph, neg)
        flat = np.full((graph.num_nodes, 1), 30.0)
        kernels = link_kernels(score_matrices(flat, op), op)
        assert kernels.k_plus.data.shape[0] == 2 * graph.num_edges
        assert mean_positive_kernel(kernels.k_plus) == 0.0


class TestFrobenius:
    def test_closed_form(self):
        assert frobenius(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
        assert frobenius(np.zeros((4, 7))) == 0.0

    def test_ones_matrix(self):
        assert frobenius(np.ones((3, 3))) == pytest.approx(3.0)


class TestSubstepContractions:
    def test_contracting_trace_passes(self):
        trace = SubstepTrace(input_norm=2.0, norms=(1.5, 9.0, 8.5, 4.0))
        assert substep_contractions(trace) == (True, True)

    def test_expansion_flags(self):
        trace = SubstepTrace(input_norm=2.0, norms=(2.5, 9.0, 9.5, 4.0))
        assert substep_contractions(trace) == (False, False)

    def test_rtol_absorbs_last_bit(self):
        eps = 1e-15
        trace = SubstepTrace(input_norm=1.0, norms=(1.0 + eps, 1.0, 1.0 + eps, 1.0))
        assert substep_contractions(trace) == (True, True)

    def test_symmetric_scheme_contracts_in_practice(self, small_instance):
        graph, neg = small_instance
        op = KernelOperator.build(ModelParams("lightgcn", layers=3), 0.05,
                                  graph, neg)
        rng = np.random.default_rng(1)
        for _ in range(5):
            X = rng.normal(size=(graph.num_nodes, 4))
            Y = op.prop.apply(X)
            _, trace = kernel_update(X, Y, score_matrices(Y, op), op)
            assert substep_contractions(trace) == (True, True)


def record(step, mean_k_plus, frob_norm, substeps=None):
    return SimpleNamespace(step=step, mean_k_plus=mean_k_plus,
                           frob_norm=frob_norm, substeps=substeps)


def fields(rec):
    return rec.step, rec.mean_k_plus, rec.frob_norm, rec.substeps


def read_back(path):
    """The emitted rows as (step, mean_k_plus, frob_norm, substeps)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_FIELDS
    return [(int(row[0]), float(row[1]), float(row[2]),
             tuple(float(v) for v in row[3:7]) if row[3] else None)
            for row in rows[1:]]


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        records = [
            record(1, 1.0 / 3.0, np.sqrt(2.0), (0.1, 0.2, np.pi, 1e-300)),
            record(2, 0.25, 1.0),
        ]
        path = tmp_path / "trajectory.csv"
        emit_trajectories(records, path)
        assert read_back(path) == [fields(r) for r in records]

    def test_header_written(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        emit_trajectories([], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)

    def test_untraced_cells_empty(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        emit_trajectories([record(1, 0.5, 1.0)], path)
        assert path.read_text(encoding="utf-8").splitlines()[1].endswith(",,,")

    def test_consumes_training_history(self, bipartite_instance, tmp_path):
        from linkprop.training import TrainConfig, train
        graph, neg = bipartite_instance
        cfg = TrainConfig("lightgcn", alpha=0.05, dim=4, layers=2,
                          max_epochs=4, path="kernel", trace_substeps=True)
        result = train(graph, neg, cfg)
        path = tmp_path / "run.csv"
        emit_trajectories(result.history.records, path)
        loaded = read_back(path)
        assert [row[0] for row in loaded] == [1, 2, 3, 4]
        assert loaded == [fields(r) for r in result.history.records]

    @given(st.lists(st.tuples(
        st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)), max_size=8))
    def test_property_floats_survive(self, tmp_path_factory, values):
        records = [record(i, a, b) for i, (a, b) in enumerate(values)]
        path = tmp_path_factory.mktemp("traj") / "t.csv"
        emit_trajectories(records, path)
        assert read_back(path) == [fields(r) for r in records]
