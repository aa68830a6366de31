#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs two sets of N runs of each workload, each run with another seed
(set 1 takes seeds seed0 .. seed0+N-1, set 2 the next N). For every
end-to-end metric and set it prints the median of the values and the
spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. It also prints the
drift: how much worse set 2's median is than set 1's, as a share of set
1's. A metric whose spread or drift exceeds its bound in BENCHMARK.json
is flagged, and the exit code is then 1.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seed0 9000
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    flagged = 0
    results = {w: ([], []) for w in names}
    for s in range(2):
        for w in names:
            for i in range(opts.runs):
                seed = opts.seed0 + s * opts.runs + i
                r = run_once(bench["command"], w, seed, bench["run_seconds"])
                if not r["correct"] or r["failed"]:
                    print(f"{w} seed {seed}: incorrect run {r}", file=sys.stderr)
                    flagged += 1
                results[w][s].append(r)
                print(f"set {s + 1} {w} run {i + 1}/{opts.runs} done", file=sys.stderr)

    for w in names:
        print(f"\n{w} (2 sets of {opts.runs} runs)")
        print(f"  {'metric':<22}{'median 1':>12}{'spread 1':>9}{'median 2':>12}{'spread 2':>9}"
              f"{'drift':>8}{'bound':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            (m1, s1), (m2, s2) = (summarize([r["metrics"][name]["value"] for r in rs])
                                  for rs in results[w])
            drift = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            mark = ""
            if max(s1, s2, drift) > bound:
                mark = "  OVER BOUND"
                flagged += 1
            elif max(s1, s2) > bound / 3:
                mark = "  spread over a third of bound"
            print(f"  {name:<22}{m1:>12.6g}{s1:>9.3f}{m2:>12.6g}{s2:>9.3f}{drift:>8.3f}{bound:>7.2f}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
