#!/usr/bin/env python3
"""Build and run the distlock benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/perfbench.exe with dune (into
.bench_build, release profile, no shared dune cache) and runs one
workload; the last line of standard output is the result object. Build
output and any failure go to standard error, and a failed build or run
exits non-zero without printing a result.

--selftest runs every workload twice with one seed and once with a
second seed, each as one round, and checks that the two runs of one seed
report identical work counts and that every answer is correct.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def run(args, timeout=170):
    """Runs the benchmark binary; returns (stdout lines, result) or None."""
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"perfbench: exit code {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        return None
    return lines, result


def counts_line(lines):
    return next((l for l in lines if l.startswith("counts ")), None)


def selftest():
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for w in workloads:
        seen = []
        for seed in (1, 1, 2):
            got = run(["--workload", w, "--seed", str(seed), "--seconds", "0",
                       "--trace", "0"])
            if got is None:
                print(f"FAIL {w} seed {seed}: no result")
                ok = False
                continue
            lines, result = got
            good = result["correct"] and result["failed"] == 0
            print(f"{'ok  ' if good else 'FAIL'} {w} seed {seed}: "
                  f"attempted {result['attempted']} failed {result['failed']}")
            ok = ok and good
            seen.append(counts_line(lines))
        same = len(seen) == 3 and seen[0] is not None and seen[0] == seen[1]
        print(f"{'ok  ' if same else 'FAIL'} {w}: seed 1 work counts "
              f"{'reproduce' if same else 'differ'}: {seen[0]}")
        ok = ok and same
    return ok


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        return 0 if selftest() else 1
    got = run(argv)
    if got is None:
        return 1
    lines, _ = got
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
