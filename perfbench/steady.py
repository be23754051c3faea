#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steady.py

Runs every workload that BENCHMARK.json lists, in two sets of ten runs
with seeds 1..10, as
`python3 perfbench/run.py --workload W --seed r --seconds S --trace 0`.
Sets and workloads are interleaved run by run, so that host drift
reaches every set alike. Prints, per workload, set and metric, the
median, the quartiles and the spread (Q3 - Q1) / median, with the
quartiles taken as statistics.quantiles(values, n=4) gives them, and
flags every spread that is not below a third of the metric's bound.
The same runs also print their figures before scaling by the host
slowdown (see WORKLOADS.md); their spreads are listed beside the
scaled ones, with the slowdown itself and the rank spreads around p50
and the tail percentile. Last, per metric, how far the second set's
median moved from the first's. Run from the repository root.
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout.splitlines()
    return out, json.loads(out[-1])


def diagnostics(lines):
    """The run's `diagnostics {...}` line: unscaled figures, slowdown,
    rank spreads."""
    line = next(l for l in lines if l.startswith("diagnostics "))
    return json.loads(line[len("diagnostics "):])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    workloads = [w["name"] for w in cfg["workloads"]]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    values = {(w, s): {} for w in workloads for s in range(SETS)}
    start = time.time()
    for r in range(1, RUNS + 1):
        for w in workloads:
            for s in range(SETS):
                lines, res = run_once(w, r, cfg["run_seconds"])
                assert res["correct"] and res["failed"] == 0, (w, r, res)
                vals = values[(w, s)]
                for name, m in res["metrics"].items():
                    vals.setdefault(name, []).append(m["value"])
                for name, v in diagnostics(lines).items():
                    vals.setdefault(name, []).append(v)
        print(f"repetition {r} done, {time.time() - start:.0f}s", file=sys.stderr)
    for w in workloads:
        for s in range(SETS):
            print(f"\n{w} set {s + 1} ({RUNS} runs)")
            for name, vs in values[(w, s)].items():
                med, q1, q3, sp = spread(vs)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and sp > bound:
                    flag = "  <-- above bound"
                elif bound is not None and sp >= bound / 3:
                    flag = "  <-- above bound/3"
                print(f"  {name:22s} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  "
                      f"spread {sp:7.4f}  bound {bound if bound is not None else '-'}{flag}")
        for name in values[(w, 0)]:
            a = statistics.median(values[(w, 0)][name])
            b = statistics.median(values[(w, 1)][name])
            ratio = b / a if a else float("nan")
            print(f"  {name:22s} set 2 / set 1 median: {ratio:.4f}")


if __name__ == "__main__":
    main()
