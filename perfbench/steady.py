#!/usr/bin/env python3
"""Steadiness mode: run one workload N times with different seeds and
print, for every metric, its median, quartiles and relative spread
(the distance between the quartiles as a share of the median), so that
the bounds in BENCHMARK.json can be set from measurement.

    python3 perfbench/steady.py --workload ghost-two-phase --runs 10 \
        [--seconds 10] [--trace 0] [--first-seed 1]

Run it from the repository's root. Each run is the benchmark's own
command, one process at a time; quartiles are those of
statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    values, units, shares = {}, {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs were not correct: {result}")
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}", file=sys.stderr)

    print(f"{args.workload}, {args.runs} runs, trace {args.trace}: "
          f"failed share {sorted(set(shares))}")
    print(f"{'metric':40} {'unit':14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40} {units[name]:14} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
