import numpy as np
import pytest
from hypothesis import given, strategies as st

from linkprop.diagnostics import (CSV_FIELDS, TrajectoryRecord, frobenius,
                                  emit_trajectories, load_trajectories,
                                  mean_positive_kernel, substep_contractions)
from linkprop.kernel import (KernelOperator, SubstepTrace, link_kernels,
                             model_config, score_matrices)


class TestMeanPositiveKernel:
    def test_zero_embedding_means_half(self, small_instance):
        graph, neg = small_instance
        op = KernelOperator.build(model_config("mf", alpha=0.1), graph, neg)
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
        op = KernelOperator.build(model_config("mf", alpha=0.1), graph, neg)
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
        cfg = model_config("lightgcn", alpha=0.05, layers=3)
        op = KernelOperator.build(cfg, graph, neg)
        rng = np.random.default_rng(1)
        for _ in range(5):
            X = rng.normal(size=(graph.num_nodes, 4))
            _, trace = op.step_traced(X)
            assert substep_contractions(trace) == (True, True)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        records = [
            TrajectoryRecord(step=1, mean_k_plus=1.0 / 3.0,
                             frob_norm=np.sqrt(2.0),
                             substeps=(0.1, 0.2, np.pi, 1e-300)),
            TrajectoryRecord(step=2, mean_k_plus=0.25, frob_norm=1.0,
                             substeps=None),
        ]
        path = tmp_path / "trajectory.csv"
        emit_trajectories(records, path)
        assert load_trajectories(path) == records

    def test_header_written(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        emit_trajectories([], path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_FIELDS)

    def test_untraced_cells_empty(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        emit_trajectories([TrajectoryRecord(1, 0.5, 1.0)], path)
        assert path.read_text().splitlines()[1].endswith(",,,")

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectories(path)

    def test_consumes_training_history(self, bipartite_instance, tmp_path):
        from linkprop.training import TrainConfig, train
        graph, neg = bipartite_instance
        cfg = TrainConfig("lightgcn", alpha=0.05, dim=4, layers=2,
                          max_epochs=4, path="kernel", trace_substeps=True)
        result = train(graph, neg, cfg)
        path = tmp_path / "run.csv"
        emit_trajectories(result.history.records, path)
        loaded = load_trajectories(path)
        assert [r.step for r in loaded] == [1, 2, 3, 4]
        for rec, orig in zip(loaded, result.history.records):
            assert rec.frob_norm == orig.frob_norm
            assert rec.substeps == orig.substeps

    @given(st.lists(st.tuples(
        st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)), max_size=8))
    def test_property_floats_survive(self, tmp_path_factory, values):
        records = [TrajectoryRecord(step=i, mean_k_plus=a, frob_norm=b)
                   for i, (a, b) in enumerate(values)]
        path = tmp_path_factory.mktemp("traj") / "t.csv"
        emit_trajectories(records, path)
        assert load_trajectories(path) == records
