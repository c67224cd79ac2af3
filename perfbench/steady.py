#!/usr/bin/env python3
"""Steadiness of the benchmark: run a workload N times and summarise.

    python3 perfbench/steady.py run --workload zipf-reload --runs 10 [--out set.json]
    python3 perfbench/steady.py compare first.json second.json

`run` calls perfbench/run.py once per seed 1..N, untraced, with the run
length from BENCHMARK.json and keeps each run's result line.
For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is
(q3 - q1) / median, against the metric's bound from BENCHMARK.json: "ok"
below a third of the bound, "wide" below the bound, "OVER" above it.

`compare` takes two such sets of the same workload and prints, per metric,
how far the second median moved against the first in the metric's worse
direction, against the bound; and whether the share of failed operations
is the same in every run of both sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        data = json.load(f)
    metrics = {m["name"]: m for m in data["end_to_end"] + data["per_layer"]}
    return data, metrics


def run_set(args):
    data, _ = spec()
    runs = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(data["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-2000:])
            sys.exit("run with seed %d failed (exit %d)" % (seed,
                                                           proc.returncode))
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in sorted(result["metrics"].items()))), flush=True)
    out = {"workload": args.workload, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    summarise(out)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(run_set_data):
    _, metrics = spec()
    runs = run_set_data["runs"]
    print("%s, %d runs" % (run_set_data["workload"], len(runs)))
    print("%-40s %14s %14s %14s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = quartiles(values)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metrics.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("ok" if spread <= bound / 3 else
                       "wide" if spread <= bound else "OVER")
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s  %s" % (
            name, median, q1, q3, spread,
            "" if bound is None else "%.3g" % bound, verdict))
    shares = sorted({(r["failed"], r["attempted"]) for r in runs})
    print("failed/attempted per run: %s" % ", ".join(
        "%d/%d" % s for s in shares))


def share(run):
    return run["failed"] / run["attempted"]


def compare(args):
    _, metrics = spec()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    print("%-40s %14s %14s %9s %6s  %s" % (
        "metric", "first", "second", "worse_by", "bound", "verdict"))
    ok = True
    for name in sorted(a["runs"][0]["metrics"]):
        ma = statistics.median(r["metrics"][name]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][name]["value"] for r in b["runs"])
        m = metrics.get(name, {})
        sign = -1.0 if m.get("better") == "higher" else 1.0
        worse = sign * (mb - ma) / ma if ma else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if worse <= bound else "WORSE"
            ok = ok and worse <= bound
        print("%-40s %14.6g %14.6g %9.4f %6s  %s" % (
            name, ma, mb, worse, "" if bound is None else "%.3g" % bound,
            verdict))
    shares = {share(r) for r in a["runs"] + b["runs"]}
    same = len(shares) == 1
    print("failed share identical in every run: %s (%s)" % (
        "yes" if same else "NO", ", ".join("%.9g" % s for s in sorted(shares))))
    sys.exit(0 if ok and same else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        run_set(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
