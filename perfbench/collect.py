"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 0-9 --seconds 35 --trace 0 --out result.json
    python3 perfbench/collect.py --workload bench500-report --seeds 0-4

Runs `run.py` once per (workload, seed) in sequence, in a fresh process
each, and prints per metric the median of the runs' values, their quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median.  `--out` writes the summary, with
the environment record and every run's result line, as JSON, under the key
`end_to_end` or `per_layer`; the other key of an existing file is kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"seconds": args.seconds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(name, seed, args.seconds, args.trace))
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['result'])}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            metrics[metric] = spread(values) if len(values) > 1 else {"values": values}
            metrics[metric]["unit"] = runs[0]["result"]["metrics"][metric]["unit"]
        summary["env"] = runs[0]["env"]
        summary["workloads"][name] = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics, "runs": runs}
        for metric, s in metrics.items():
            if "spread" in s:
                print(f"{name:<24} {metric:<48} {s['unit']:<11} "
                      f"median of {len(s['values'])} {s['median']:<12.6g} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        # one file holds both modes: an untraced and a traced collection
        results = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                results = json.load(fh)
        results[("end_to_end", "per_layer")[args.trace]] = summary
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
