#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

  python3 e2ebench/spread.py --seeds 1-10          # ten seeds, every workload
  python3 e2ebench/spread.py --seeds 1,1,1,1,1     # five repeats of one seed

Runs the benchmark untraced at BENCHMARK.json's run_seconds, once per
seed, interleaving the workloads (seed 1 of every workload, then seed 2,
...) so that a slow drift of the host hits every workload alike. Then
prints, per workload and end-to-end metric, the median, the distance
between the first and third quartile as a share of the median next to
the metric's bound (flagged above a third of it), and the values.

Over distinct seeds the spread of nmi and fscore is the seeds' own
variety (scores are deterministic per seed); repeats of one seed show
the run-to-run noise alone.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    """"1-10" -> 1..10; "3,3,5-6" -> [3, 3, 5, 6]."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()

    values = {w: {m["name"]: [] for m in spec["end_to_end"]}
              for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: run not correct",
                      file=sys.stderr)
            for name, v in values[workload].items():
                v.append(result["metrics"][name]["value"])

    for workload in workloads:
        print(f"{workload}: seeds {args.seeds}")
        for m in spec["end_to_end"]:
            v = values[workload][m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = " <-- above bound/3" if spread > m["bound"] / 3 else ""
            print(f"  {m['name']:<12} median {med:<9.4g} spread {spread:.4f}"
                  f" bound {m['bound']}{flag}")
            print("    " + " ".join(f"{x:.4g}" for x in v))


if __name__ == "__main__":
    main()
