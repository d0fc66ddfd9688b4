"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --workloads detect-ip,sweep --seeds 1-10 [--out FILE]

Runs `run.py --trace 0` at full size for the manifest's run_seconds, once
per (workload, seed), one after the other, and prints for every metric its
median, its quartiles and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median. An
end-to-end metric is steady when its spread is below a third of its bound
in BENCHMARK.json. --out writes every run's figures and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(n for n, _ in M.WORKLOADS))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {name: bound for name, _, _, bound in M.END_TO_END}
    record = {"seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(M.RUN_SECONDS), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:48s} median {med:<12.6g} spread {rel:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
