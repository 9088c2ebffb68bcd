"""Spans and counters recorded around calls into linkprop, from outside it.

The library is not edited: `traced()` swaps the public functions named in
TARGETS for wrappers that open a span on entry and close it on exit, then
puts the originals back.  `training.py` and `kernel.py` bind their imports
by name, so a function is replaced in every linkprop module that holds it,
not only in the module that defines it; methods are replaced on their class.

A span's self time is its duration minus the time its direct child spans
cover.  Counters are added at the same boundaries by per-target hooks, so a
ratio such as items ranked per item kept is measured where the work happens.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, qualified name) of every traced call, grouped by layer (module)
TARGETS = (
    ("linkprop.data_io", "load_edge_list"),
    ("linkprop.data_io", "split_dataset"),
    ("linkprop.data_io", "graph_from_split"),
    ("linkprop.negatives", "sample_negatives"),
    ("linkprop.graphs", "normalize_matrix"),
    ("linkprop.graphs", "ProximityOperator.apply"),
    ("linkprop.graphs", "ProximityOperator.materialize"),
    ("linkprop.losses", "build_masks"),
    ("linkprop.losses", "bce_loss"),
    ("linkprop.losses", "model_loss"),
    ("linkprop.losses", "loss_gradient"),
    ("linkprop.losses", "gd_step"),
    ("linkprop.kernel", "KernelOperator.build"),
    ("linkprop.kernel", "score_matrices"),
    ("linkprop.kernel", "link_kernels"),
    ("linkprop.kernel", "kernel_step"),
    ("linkprop.diagnostics", "mean_positive_kernel"),
    ("linkprop.ranking", "evaluate"),
    ("linkprop.training", "train"),
    ("linkprop.training", "scoring_embeddings"),
)

# counted but not timed: called once per ranked user, a span would cost more
# than the sort it measures
COUNTED = (("linkprop.ranking", "top_k"),)

LAYERS = ("data_io", "negatives", "graphs", "losses", "kernel", "diagnostics",
          "ranking", "training")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float | None = None


class Tracer:
    """In-memory span stack for one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, child in zip(self.spans, covered):
            totals[span.name] += (span.end - span.start) - child
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)


def metric_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('linkprop.')}.{qualname}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_score_bytes(counts, args, kwargs, result):
    # computed, not measured: both gathered row blocks of the support
    Y = _arg(args, kwargs, 0, "Y")
    counts["kernel.score_matrices.bytes"] += 2 * result.rows.shape[0] * Y.shape[1] * 8


def _count_support(counts, args, kwargs, result):
    n = result.graph.num_nodes
    counts["kernel.support_nnz"] += result.rows.shape[0]
    counts["kernel.support_cells"] += n * n


def _count_masks(counts, args, kwargs, result):
    counts["losses.mask_nnz"] += result.pos.nnz + result.neg.nnz


def _count_pairs(counts, args, kwargs, result):
    counts["negatives.pairs"] += result.num_pairs


def _count_epochs(counts, args, kwargs, result):
    counts["training.epochs"] += result.history.stopped_epoch


def _count_ranked(counts, args, kwargs, result):
    counts["ranking.items_ranked"] += _arg(args, kwargs, 0, "scores").shape[0]
    counts["ranking.items_kept_cutoff"] += _arg(args, kwargs, 1, "k")


HOOKS = {
    "kernel.score_matrices": _count_score_bytes,
    "kernel.KernelOperator.build": _count_support,
    "losses.build_masks": _count_masks,
    "negatives.sample_negatives": _count_pairs,
    "training.train": _count_epochs,
    "ranking.top_k": _count_ranked,
}


def _wrap(fn, name: str, tracer: Tracer, timed: bool):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name) if timed else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if timed:
                tracer.end(index)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _patch_function(module_name: str, attr: str, wrapper_for, saved: list):
    original = getattr(sys.modules[module_name], attr)
    wrapper = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if name != "linkprop" and not name.startswith("linkprop."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                saved.append((module, key, value))
                setattr(module, key, wrapper)


def _patch_method(module_name: str, qualname: str, wrapper_for, saved: list):
    cls_name, attr = qualname.split(".")
    cls = getattr(sys.modules[module_name], cls_name)
    raw = cls.__dict__[attr]
    saved.append((cls, attr, raw))
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_for(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_for(raw))


@contextmanager
def traced(tracer: Tracer):
    """Route every call in TARGETS and COUNTED through `tracer` while open."""
    saved: list = []
    try:
        for targets, timed in ((TARGETS, True), (COUNTED, False)):
            for module_name, qualname in targets:
                name = metric_name(module_name, qualname)
                wrapper_for = functools.partial(_wrap, name=name, tracer=tracer,
                                                timed=timed)
                patch = _patch_method if "." in qualname else _patch_function
                patch(module_name, qualname, wrapper_for, saved)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
