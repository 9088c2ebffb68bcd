"""Run one linkprop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bench500-report --seed 0 --seconds 35 --trace 0

Run from the root of a linkprop checkout; the library is imported from its
`src/`.  Workloads: bench500-report, bench500-deepwalk-dual,
block10k-lightgcn.  `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer ones.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.  Exits 1 when a correctness
check fails and 2 when the checkout lacks the library or its inputs.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one BLAS thread: the workloads are single-process and the result must not
# depend on how many cores the machine lends the run
THREADS = 1
THREAD_VARS = ("LINKPROP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

REQUIRED = ("src/linkprop/__init__.py", "configs/bench.ini", "data/bench_500.tsv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {ROOT} is not a linkprop checkout, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    # must happen before numpy is imported anywhere in this process
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import harness, workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), THREADS)


if __name__ == "__main__":
    sys.exit(main())
