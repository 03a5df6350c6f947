"""Runs of the benchmark in sets: every workload once, or the A/A self-check.

Called by run.sh as `sets.py <binary> <benchmark dir> [--aa] [--runs R]
[--seed N] [--seconds S]`. Reads names and bounds from BENCHMARK.json and
computes medians and quartiles as `statistics` does. A spread is the distance
between the first and the third quartile as a share of the median; `B vs A`
is how much worse the median of set B is than that of set A. A row fails when
`B vs A` or the spread of all runs (not that of `setup_s`) exceeds the bound.
"""

import json
import statistics
import subprocess
import sys


def run(binary, out, workload, seed, seconds, trace):
    """One run; returns (metrics by name, correct)."""
    done = subprocess.run(
        [binary, "--out", out, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: a check failed")
    return lines[:-1], {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    binary, here, *rest = sys.argv[1:]
    options = {"--runs": 5, "--seed": 1, "--seconds": None}
    aa = "--aa" in rest
    for flag in options:
        if flag in rest:
            options[flag] = int(rest[rest.index(flag) + 1])
    spec = json.load(open(f"{here}/../BENCHMARK.json"))
    seconds = options["--seconds"] or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    out = f"{here}/out"

    if not aa:
        for workload in workloads:
            for trace in (0, 1):
                lines, _ = run(binary, out, workload, options["--seed"], seconds, trace)
                print("\n".join(lines), flush=True)
        return

    # A/A: sets A and B alternate run by run, each run on a seed of its own.
    runs = options["--runs"]
    print(f"| workload | metric | median A | median B | Q1..Q3 A | Q1..Q3 B | "
          f"spread A | spread B | spread A+B | B vs A | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    failed = False
    for workload in workloads:
        sets = ([], [])
        for i in range(2 * runs):
            _, metrics = run(binary, out, workload, options["--seed"] + i, seconds, 0)
            sets[i % 2].append(metrics)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([m[name] for m in s] for s in sets)
            (a1, a3, sa), (b1, b3, sb), (_, _, sab) = spread(a), spread(b), spread(a + b)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma * (1 if metric["better"] == "lower" else -1)
            ok = worse <= bound and (name == "setup_s" or sab <= bound)
            failed |= not ok
            print(f"| {workload} | {name} | {ma:.5g} | {mb:.5g} | {a1:.5g}..{a3:.5g} | "
                  f"{b1:.5g}..{b3:.5g} | {sa:.2%} | {sb:.2%} | {sab:.2%} | {worse:+.2%} | "
                  f"{bound:.0%}{'' if ok else ' EXCEEDED'} |", flush=True)
    sys.exit(1 if failed else 0)


main()
