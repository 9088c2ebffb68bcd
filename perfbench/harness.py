"""Measurement loop, correctness gate and report of one benchmark run.

Untraced (`--trace 0`): a few setup-only passes, then whole repetitions of
the workload until the time budget is spent; every end-to-end metric is the
median over repetitions.  Traced (`--trace 1`): untraced and traced
repetitions alternate, per-layer metrics are medians over the traced ones,
and the tracing overhead is the difference of the two total_s medians.

Correctness: every job prints a fingerprint (test recall and ndcg at 17
significant digits, epochs run, final loss).  A job fails when it raises
one of workloads.FAILURES, produces a non-finite loss or embedding, exceeds
the path-divergence bound, or prints a fingerprint that differs from the
first repetition of this run or from a stored run of the same library
source, workload and seed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

from perfbench import tracing, workloads

SETUP_PASSES = 4  # setup-only passes before the repetitions, for setup_s
PERCENTILES = (50, 75, 90, 95, 99)

END_TO_END = (
    ("setup_s", "s"), ("train_s", "s"), ("eval_s", "s"), ("total_s", "s"),
    ("epochs_per_s", "1/s"), ("peak_rss_mb", "MB"),
)

# per-layer self times kept in the result line; each runs on every workload
SELF_TIMES = (
    "ranking.evaluate", "kernel.score_matrices", "kernel.link_kernels",
    "kernel.KernelOperator.build", "losses.loss_gradient", "losses.bce_loss",
    "losses.gd_step", "losses.build_masks", "graphs.ProximityOperator.apply",
    "data_io.load_edge_list", "data_io.split_dataset",
    "negatives.sample_negatives", "diagnostics.mean_positive_kernel",
    "training.train",
)


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in tracing.LAYERS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({
        "ranking.evaluate.calls": "count",
        "ranking.items_ranked_per_kept": "ratio",
        "kernel.score_matrices.calls_per_epoch": "count/epoch",
        "kernel.score_matrices.bytes_per_call": "B",
        "kernel.support_nnz": "count",
        "kernel.support_density": "ratio",
        "losses.mask_nnz": "count",
        "graphs.ProximityOperator.apply.calls_per_epoch": "count/epoch",
        "negatives.pairs": "count",
        "training.epochs": "count",
        "trace.total_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "cpu": cpu}


def summarize(samples) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (None until the sample count allows one)."""
    values = sorted(samples)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None}
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            out["percentile"] = (p, values[min(n - 1, int(np.ceil(p / 100 * n)) - 1)])
    return out


def source_digest() -> str:
    """Hash of the library source, naming the commit's behaviour."""
    src = os.path.join(workloads.ROOT, "src", "linkprop")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


class FingerprintStore:
    """Fingerprints of earlier runs of the same source, workload and seed."""

    def __init__(self, workdir: str, workload: str, seed: int):
        self.path = os.path.join(workdir, "fingerprints",
                                 f"{source_digest()}-{workload}-seed{seed}.json")

    def load(self) -> dict | None:
        try:
            with open(self.path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def save(self, fingerprints: dict) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(fingerprints, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def gate(reps, stored: dict | None) -> tuple[int, int, dict, list]:
    """(attempted, failed, reference fingerprints, failure lines)."""
    reference = stored or {}
    attempted, failed, lines = 0, 0, []
    for index, rep in enumerate(reps):
        for job in rep.jobs:
            attempted += 1
            reason = job.error
            if reason is None:
                expected = reference.setdefault(job.label, job.fingerprint)
                if job.fingerprint != expected:
                    reason = f"fingerprint {job.fingerprint} != {expected}"
            if reason is not None:
                failed += 1
                lines.append(f"FAILED rep {index + 1} {job.label}: {reason}")
    return attempted, failed, reference, lines


def measure(inputs, seconds: float, trace: bool, log):
    """Run repetitions until the budget is spent; return (untraced reps,
    traced reps with their tracers, setup-only times)."""
    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_PASSES):
        t0 = time.perf_counter()
        workloads.setup(inputs)
        setups.append(time.perf_counter() - t0)
    plain, traced = [], []
    while True:
        rep = workloads.run_rep(inputs)
        plain.append(rep)
        log(f"rep {len(plain)}: setup {rep.setup_s:.4f} s, train {rep.train_s:.4f} s, "
            f"eval {rep.eval_s:.4f} s, total {rep.total_s:.4f} s, "
            f"{rep.epochs} epochs")
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                rep = workloads.run_rep(inputs)
            traced.append((rep, tracer))
            log(f"traced rep {len(traced)}: total {rep.total_s:.4f} s")
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round / 2 >= seconds:
            return plain, traced, setups


def end_to_end(plain, setups) -> dict:
    samples = {
        "setup_s": setups + [r.setup_s for r in plain],
        "train_s": [r.train_s for r in plain],
        "eval_s": [r.eval_s for r in plain],
        "total_s": [r.total_s for r in plain],
        "epochs_per_s": [_ratio(r.epochs, r.train_s) for r in plain],
    }
    out = {name: summarize(values) for name, values in samples.items()}
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = summarize(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    return out


def _ratio(part: float, whole: float) -> float:
    # a rep whose jobs all failed has nothing to divide by
    return part / whole if whole else 0.0


def per_layer(plain, traced) -> dict:
    samples: dict = {name: [] for name in per_layer_units()}
    for rep, tracer in traced:
        selfs = tracer.self_times()
        calls = tracer.calls()
        counts = tracer.counts
        for layer in tracing.LAYERS:
            samples[f"{layer}.self_s"].append(
                sum(v for k, v in selfs.items() if k.startswith(layer + ".")))
        for name in SELF_TIMES:
            samples[f"{name}.self_s"].append(selfs.get(name, 0.0))
        epochs = counts["training.epochs"]
        samples["ranking.evaluate.calls"].append(calls["ranking.evaluate"])
        samples["ranking.items_ranked_per_kept"].append(_ratio(
            counts["ranking.items_ranked"], counts["ranking.items_kept_cutoff"]))
        scores = calls["kernel.score_matrices"]
        samples["kernel.score_matrices.calls_per_epoch"].append(_ratio(scores, epochs))
        samples["kernel.score_matrices.bytes_per_call"].append(
            _ratio(counts["kernel.score_matrices.bytes"], scores))
        samples["kernel.support_nnz"].append(_ratio(
            counts["kernel.support_nnz"], calls["kernel.KernelOperator.build"]))
        samples["kernel.support_density"].append(_ratio(
            counts["kernel.support_nnz"], counts["kernel.support_cells"]))
        samples["losses.mask_nnz"].append(_ratio(
            counts["losses.mask_nnz"], calls["losses.build_masks"]))
        samples["graphs.ProximityOperator.apply.calls_per_epoch"].append(
            _ratio(calls["graphs.ProximityOperator.apply"], epochs))
        samples["negatives.pairs"].append(counts["negatives.pairs"])
        samples["training.epochs"].append(epochs)
        samples["trace.total_s"].append(rep.total_s)
    traced_total = statistics.median(samples["trace.total_s"])
    plain_total = statistics.median(r.total_s for r in plain)
    samples["trace.overhead_s"] = [traced_total - plain_total]
    return {name: summarize(values) for name, values in samples.items()}


def shares(traced) -> list:
    """(name, median self time, share of median traced total_s), largest
    first; one row per traced function and one per layer, in brackets."""
    total = statistics.median(rep.total_s for rep, _ in traced)
    selfs = [tracer.self_times() for _, tracer in traced]
    names = sorted({name for times in selfs for name in times})
    rows = [(name, statistics.median(t.get(name, 0.0) for t in selfs))
            for name in names]
    rows += [(f"[{layer}]", sum(v for n, v in rows if n.startswith(layer + ".")))
             for layer in tracing.LAYERS]
    return sorted(((n, v, _ratio(v, total)) for n, v in rows), key=lambda row: -row[1])


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        threads: int) -> int:
    def log(line):
        print(line, flush=True)

    workdir = os.path.join(workloads.ROOT, "perfbench", "_work")
    inputs = workloads.WORKLOADS[workload_name](seed, workdir)
    log("env " + json.dumps(environment(threads), sort_keys=True))
    log(f"workload {workload_name} seed {seed}: {len(inputs.jobs)} jobs")

    plain, traced, setups = measure(inputs, seconds, trace, log)

    store = FingerprintStore(workdir, workload_name, seed)
    stored = store.load()
    reps = plain + [rep for rep, _ in traced]
    attempted, failed, reference, failures = gate(reps, stored)
    for label, fp in reference.items():
        log(f"fingerprint {label} " + json.dumps(fp, sort_keys=True))
    for line in failures:
        log(line)
    if stored is None and failed == 0:
        store.save(reference)

    if trace:
        summaries = per_layer(plain, traced)
        units = per_layer_units()
        for name, value, share in shares(traced):
            log(f"self {name:<44} {value:12.6f} s  {100 * share:6.1f}% of total_s")
    else:
        summaries = end_to_end(plain, setups)
        units = dict(END_TO_END)
    for name, s in summaries.items():
        pct = ("p%d %.6g" % s["percentile"] if s["percentile"]
               else "no percentile (needs 20+ samples)")
        log(f"metric {name:<48} {s['median']:.6g} {units[name]} "
            f"median of {s['n']}, {pct}")
    log(f"failed {failed} of {attempted} jobs")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]}
                    for name, s in summaries.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1
