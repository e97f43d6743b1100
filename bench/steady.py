#!/usr/bin/env python3
"""Steadiness mode: run every workload with several seeds and report, for
each end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 bench/steady.py [--out FILE] [--compare EARLIER_FILE]

Every workload of BENCHMARK.json is run with seeds 1, 2, ..., 10, one
run after another.  A spread above a third of the bound is flagged
`wide`, one above the bound `FAIL`.  With --compare, each median is
also compared with the median of an earlier output of this script, and
one that got worse by more than the bound fails.  The exit code is 1
when any run was incorrect or any gate failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_TIMEOUT_S = 900
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if proc.returncode != 0 or not doc["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        doc["correct"] = False
    return doc


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worsening(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    if metric["better"] == "lower":
        return (after - before) / before
    return (before - after) / before


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out",
                                                 "steady.json"))
    p.add_argument("--compare", help="earlier output of this script")
    args = p.parse_args(argv)
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["workloads"]

    ok = True
    result = {"seeds": list(SEEDS),
              "seconds": spec["run_seconds"], "workloads": {}}
    for wl in names:
        docs = [one_run(wl, seed, spec["run_seconds"])
                for seed in result["seeds"]]
        ok = ok and all(d["correct"] for d in docs)
        rows = result["workloads"][wl] = {}
        print("%s (%d runs, %d correct)" % (wl, len(docs),
                                            sum(d["correct"] for d in docs)))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [d["metrics"][name]["value"] for d in docs
                      if name in d.get("metrics", {})]
            if len(values) < 2:
                ok = False
                continue
            row = rows[name] = summarize(values)
            flag = ""
            if row["spread"] > bound:
                flag, ok = "FAIL", False
            elif row["spread"] > bound / 3:
                flag = "wide"
            drift = ""
            if earlier and name in earlier.get(wl, {}):
                worse = worsening(metric, earlier[wl][name]["median"],
                                  row["median"])
                row["worse_than_earlier"] = worse
                drift = "vs earlier %+.3f" % worse
                if worse > bound:
                    drift, ok = drift + " FAIL", False
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f, a third %.4f) %s %s"
                  % (name, row["median"], row["q1"], row["q3"], row["spread"],
                     bound, bound / 3, flag, drift))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
