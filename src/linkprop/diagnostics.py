"""Step-by-step training diagnostics and their CSV serialization.

Three quantities per optimization step: the mean positive-kernel value (how
far observed links are from being reconstructed), the Frobenius norm of the
embeddings, and for traced runs the norms after each of the four kernel
substeps.  Emitted as plot-ready CSV; rendering is left to external tools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from linkprop.kernel import SubstepTrace

CSV_FIELDS = ("step", "mean_k_plus", "frob_norm", "sub1", "sub2", "sub3", "sub4")

# slack for the substep contraction checks: spectral contraction is exact in
# real arithmetic, this only absorbs last-bit rounding
CONTRACTION_RTOL = 1e-12


@dataclass(frozen=True)
class TrajectoryRecord:
    step: int
    mean_k_plus: float
    frob_norm: float
    substeps: tuple[float, float, float, float] | None = None


def mean_positive_kernel(k_plus: sp.csr_array) -> float:
    """Mean of the positive link kernel over its mask support.

    The support average, not the all-cells average: dividing by |V|^2 would
    let density swamp the fit signal.  Explicitly stored zeros (saturated
    scores) still count as support entries.
    """
    if k_plus.data.shape[0] == 0:
        raise ValueError("positive kernel has empty support")
    return float(k_plus.data.mean())


def frobenius(X: np.ndarray) -> float:
    return float(np.linalg.norm(X))


def substep_contractions(trace: SubstepTrace,
                         rtol: float = CONTRACTION_RTOL) -> tuple[bool, bool]:
    """Did the two propagation substeps shrink the embedding norm?

    Returns flags for substeps (1) and (3): norm after each is no larger
    than its input norm.  Guaranteed under the symmetric scheme (spectrum in
    [-1, 1]), not under row normalization, hence a flag and not an
    assertion.
    """
    s1, s2, s3, _ = trace.norms
    return (s1 <= trace.input_norm * (1.0 + rtol), s3 <= s2 * (1.0 + rtol))


def _fmt(x: float) -> str:
    return "%.17g" % x


def emit_trajectories(records, path) -> None:
    """Write trajectory records as CSV (17 significant digits, lossless).

    Accepts any iterable of objects with step / mean_k_plus / frob_norm /
    substeps attributes, e.g. TrainHistory.records.  Substep cells stay
    empty for untraced steps.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            subs = rec.substeps
            tail = [_fmt(v) for v in subs] if subs is not None else ["", "", "", ""]
            writer.writerow([rec.step, _fmt(rec.mean_k_plus),
                             _fmt(rec.frob_norm)] + tail)


def load_trajectories(path) -> list[TrajectoryRecord]:
    """Inverse of emit_trajectories; round-trips to full float precision."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_FIELDS:
            raise ValueError(f"unexpected trajectory header {header}")
        for row in reader:
            subs = None
            if row[3] != "":
                subs = tuple(float(v) for v in row[3:7])
            out.append(TrajectoryRecord(step=int(row[0]),
                                        mean_k_plus=float(row[1]),
                                        frob_norm=float(row[2]),
                                        substeps=subs))
    return out
