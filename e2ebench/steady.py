#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload of BENCHMARK.json several times, each time with
another seed, alternating the order of the workloads from one pass to
the next. For each metric it prints the median, the first and third
quartiles and the spread (interquartile range over median) of every
end-to-end metric, and flags each whose spread exceeds its bound in
BENCHMARK.json.
It also checks that the share of failed operations is the same in every
run of a workload.

    python3 e2ebench/steady.py [--runs 10] [--workload NAME ...]

Run i uses seed i (1..runs).

Run it from the root of the repository. It exits with 1 if a run fails,
reports an incorrect answer, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    ok = True
    for seed in range(1, opts.runs + 1):
        order = workloads if seed % 2 == 1 else list(reversed(workloads))
        for w in order:
            r = run_once(bench["command"], w, seed, bench["run_seconds"])
            if not r["correct"]:
                print(f"{w} seed {seed}: incorrect answer", file=sys.stderr)
                ok = False
            results[w].append(r)
            print(f"# {w} seed {seed}: attempted {r['attempted']}"
                  f" failed {r['failed']}", file=sys.stderr)

    for w in workloads:
        runs = results[w]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share "
              f"{', '.join(str(s) for s in sorted(shares))}")
        if len(shares) > 1:
            print("  FLAG: the share of failed operations differs between runs")
            ok = False
        print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > bounds[name]:
                flag = f"  FLAG: above bound {bounds[name]}"
                ok = False
            elif spread > bounds[name] / 3:
                flag = f"  (above a third of bound {bounds[name]})"
            print(f"  {name:<34}{med:>14.4g}{q1:>14.4g}{q3:>14.4g}"
                  f"{spread:>9.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
