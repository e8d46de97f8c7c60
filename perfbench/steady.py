#!/usr/bin/env python3
"""Steadiness tools for the benchmark.

Run a workload N times, each with another seed, appending every result to
a JSONL file and printing each metric's median, quartiles and spread (the
quartile distance as a share of the median):

    python3 perfbench/steady.py run --workload cached_release --runs 10 \
        --out .bench_build/steady/a.jsonl

Compare two such result sets against the bounds in BENCHMARK.json: every
spread must stay within its metric's bound (setup_s excepted), the second
median may not be worse than the first by more than the bound, and the
share of failed operations must be the same:

    python3 perfbench/steady.py compare .bench_build/steady/a.jsonl \
        .bench_build/steady/b.jsonl

Both run from the root of a source checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                by_workload.setdefault(rec["workload"], []).append(rec["result"])
    return by_workload


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, ((q3 - q1) / med if med else float("inf"))


def failed_share(results):
    return (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))


def print_summary(workload, results, bounds):
    failed, attempted = failed_share(results)
    print("%s: %d runs, failed %d of %d operations" % (workload, len(results), failed, attempted))
    print("  %-36s %14s %14s %14s %7s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in results[0]["metrics"]:
        med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results])
        bound = bounds.get(name)
        print("  %-36s %14.6g %14.6g %14.6g %7.3f %6s" % (
            name, med, q1, q3, spread, "-" if bound is None else "%.2f" % bound))


def cmd_run(args):
    bench = load_bench()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, check=False)
        lines = done.stdout.decode().strip().splitlines()
        if done.returncode != 0 or not lines:
            print("run with seed %d failed (exit %d)" % (seed, done.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
    print_summary(args.workload, results, bounds)
    return 0


def cmd_compare(args):
    bench = load_bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    first, second = load_results(args.first), load_results(args.second)
    ok = True
    for workload in sorted(set(first) & set(second)):
        a, b = first[workload], second[workload]
        fa, fb = failed_share(a), failed_share(b)
        if fa[0] * fb[1] != fb[0] * fa[1]:
            print("%s: failed share differs: %d/%d vs %d/%d" % (workload, fa[0], fa[1], fb[0], fb[1]))
            ok = False
        print("%s (%d vs %d runs)" % (workload, len(a), len(b)))
        print("  %-28s %12s %12s %8s %7s %7s %6s" % ("metric", "median 1", "median 2", "change",
                                                     "spread1", "spread2", "bound"))
        for name, m in bounds.items():
            if name not in a[0]["metrics"] or name not in b[0]["metrics"]:
                continue
            ma, _, _, sa = summary([r["metrics"][name]["value"] for r in a])
            mb, _, _, sb = summary([r["metrics"][name]["value"] for r in b])
            change = (mb - ma) / ma if ma else float("inf")
            worse = change if m["better"] == "lower" else -change
            flags = []
            if name != "setup_s" and (sa > m["bound"] or sb > m["bound"]):
                flags.append("SPREAD")
            if worse > m["bound"]:
                flags.append("WORSE")
            ok = ok and not flags
            print("  %-28s %12.6g %12.6g %+7.1f%% %7.3f %7.3f %6.2f %s" % (
                name, ma, mb, 100 * change, sa, sb, m["bound"], " ".join(flags)))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run a workload N times with successive seeds")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json run_seconds")
    run.add_argument("--trace", type=int, default=0, choices=(0, 1))
    run.add_argument("--out", required=True)
    cmp = sub.add_parser("compare", help="compare two result sets against the bounds")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
