"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

They check that the bench500-report workload reproduces `linkprop report`,
that tracing neither changes results nor leaves the library patched, that
self time is computed correctly, and that failures are counted instead of
stopping the harness.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
THREAD_ENV = {var: "1" for var in ("LINKPROP_THREADS", "OMP_NUM_THREADS",
                                   "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# the benchmark's thread pinning, before numpy loads
os.environ.update(THREAD_ENV)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from linkprop import experiment, kernel, training  # noqa: E402
from perfbench import harness, tracing, workloads  # noqa: E402

# address-space cap for the out-of-memory child: room for the interpreter,
# numpy, scipy and the 10k-node graph, far below what deepwalk asks for
MEMORY_CAP = 1536 * 2**20


def test_report_workload_matches_run_experiment(tmp_path):
    config = experiment.RunConfig.from_ini(workloads.BENCH_INI)
    config = replace(config, outdir=str(tmp_path),
                     dataset_path=os.path.join(ROOT, config.dataset_path))
    experiment.run_experiment(config)
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)

    rep = workloads.run_rep(workloads.bench500_report(0, str(tmp_path)))
    got = {job.label: job.fingerprint for job in rep.jobs}
    assert len(got) == sum(len(info["per_seed"]) for info in report["models"].values())
    for model, info in report["models"].items():
        for row in info["per_seed"]:
            fingerprint = got[f"{model}/seed{row['seed']}"]
            assert float(fingerprint["recall"]) == row["recall"]
            assert float(fingerprint["ndcg"]) == row["ndcg"]


def with_config(inputs, **changes):
    """The same inputs with every job's TrainConfig changed."""
    return replace(inputs, jobs=tuple(
        replace(job, config=replace(job.config, **changes)) for job in inputs.jobs))


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0, 15.0, 20.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")   # 0 .. 20
    a = tracer.begin("a")           # 1 .. 10
    tracer.end(tracer.begin("b"))   # 3 .. 4
    tracer.end(a)
    tracer.end(tracer.begin("b"))   # 11 .. 15
    tracer.end(outer)
    assert tracer.self_times() == {"outer": 7.0, "a": 8.0, "b": 5.0}
    assert tracer.calls() == {"outer": 1, "a": 1, "b": 2}


def test_tracing_leaves_fingerprints_and_library_unchanged(tmp_path):
    inputs = with_config(workloads.bench500_deepwalk_dual(0, str(tmp_path)),
                         max_epochs=3)
    plain = workloads.run_rep(inputs)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert hasattr(training.score_matrices, "__wrapped__")
        traced = workloads.run_rep(inputs)
    assert [j.fingerprint for j in traced.jobs] == [j.fingerprint for j in plain.jobs]
    assert all(j.error is None for j in plain.jobs + traced.jobs)
    # the mean-K+ diagnostic and the kernel step each score once per epoch
    assert tracer.calls()["kernel.score_matrices"] == 2 * 3
    assert tracer.counts["training.epochs"] == 3
    assert training.score_matrices is kernel.score_matrices
    assert not hasattr(training.train, "__wrapped__")
    assert not hasattr(kernel.KernelOperator.build, "__wrapped__")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_job_is_counted_and_the_run_goes_on(tmp_path):
    inputs = workloads.bench500_report(0, str(tmp_path))
    first, second = inputs.jobs[0], inputs.jobs[1]
    blowup = replace(first, early_stop=False,
                     config=replace(first.config, alpha=1e30, max_epochs=50))
    quick = replace(second, config=replace(second.config, max_epochs=2))
    rep = workloads.run_rep(replace(inputs, jobs=(blowup, quick)))
    attempted, failed, _, lines = harness.gate([rep], None)
    assert (attempted, failed) == (2, 1)
    assert rep.jobs[0].error == "DivergenceError"
    assert rep.jobs[1].error is None and rep.jobs[1].fingerprint is not None
    assert "DivergenceError" in lines[0]


def test_fingerprint_mismatch_fails_the_job():
    def rep(recall):
        return workloads.Rep(setup_s=0.0, jobs=[workloads.JobOutcome(
            "mf/seed0", fingerprint={"recall": recall})])

    assert harness.gate([rep("0.5"), rep("0.5")], None)[:2] == (2, 0)
    assert harness.gate([rep("0.5"), rep("0.25")], None)[:2] == (2, 1)
    assert harness.gate([rep("0.5")], {"mf/seed0": {"recall": "0.25"}})[:2] == (1, 1)


CHILD = """
import json, sys
from dataclasses import replace
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import harness, workloads
inputs = workloads.block10k_lightgcn(0, {workdir!r})
job = inputs.jobs[0]
job = replace(job, label="deepwalk/seed0",
              config=replace(job.config, model="deepwalk", max_epochs=1))
rep = workloads.run_rep(replace(inputs, jobs=(job,)))
attempted, failed, _, lines = harness.gate([rep], None)
print(json.dumps({{"attempted": attempted, "failed": failed, "lines": lines}}))
"""


def test_out_of_memory_is_recorded_not_raised(tmp_path):
    # deepwalk's walk mask on the 10k-node graph needs about 13.6 GiB; the
    # cap applies to the child process only
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    code = CHILD.format(src=os.path.join(ROOT, "src"), root=ROOT,
                        workdir=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], preexec_fn=cap,
                          cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "MemoryError" in result["lines"][0]


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bench500-report", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.summarize(range(19))["percentile"] is None
    assert harness.summarize(range(20))["percentile"] == (50, 9)
    assert harness.summarize(range(100))["percentile"] == (90, 89)
