#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload several times, each with another seed, and reports
for each end-to-end metric the median and the spread between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, beside a third of the metric's bound from BENCHMARK.json.
Then runs the traced run twice with one seed on each workload and
checks that the counts which must repeat exactly do.

    python3 perfbench/steady.py --runs 5 --workloads near-dup
    python3 perfbench/steady.py --runs 10

Exits 1 when a run fails or is incorrect, a spread exceeds a third of
its bound, or an exact-repeat count differs.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics that are pure functions of the request stream: the
# daemon is driven over one connection.
EXACT = (
    "lp.float_win_ratio",
    "lp.exact_fallback_ratio",
    "lp.float_pivots",
    "lp.exact_pivots",
    "repair.win_ratio",
    "repair.pivots_per_win",
    "server.tier1_hits",
    "server.tier2_hits",
    "server.lp_cache_hits",
    "server.repair_wins",
)


def run(workload, seed, seconds, trace):
    cmd = [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d incorrect: %s" % (workload, seed, result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    ok = True
    for w in names:
        runs = [run(w, args.seed + i, seconds, 0) for i in range(args.runs)]
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med, sp = spread(values)
            limit = m["bound"] / 3
            steady = sp <= limit
            ok = ok and steady
            print("%-10s %-16s median %-12.6g spread %.4f  (third of bound %.4f) %s  %s"
                  % (w, m["name"], med, sp, limit, "ok" if steady else "WIDE",
                     " ".join("%.4g" % v for v in values)))
        sys.stdout.flush()
        if args.no_trace:
            continue
        a, b = (run(w, args.seed, seconds, 1) for _ in range(2))
        for k in EXACT:
            same = a[k] == b[k]
            ok = ok and same
            print("%-10s %-28s %s %s" % (w, k, a[k], "repeats" if same else "DIFFERS: %s" % b[k]))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
