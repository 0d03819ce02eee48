#!/usr/bin/env python3
"""Run pdm-bench repeatedly and summarise the runs.

Every workload in BENCHMARK.json runs at its run_seconds.

Seed baseline (one checkout): SETS sets of PAIRS runs per workload, plus
one traced run per workload, each metric's median, quartiles and spread:

    python3 bench/e2e/compare.py --base . --sets 2 --pairs 5 --json bench/e2e/baseline-seed.json

Two commits (two checkouts): PAIRS alternating pairs per workload, seed
1 + i for pair i, which side runs first alternating too:

    python3 bench/e2e/compare.py --base ../parent --change . --pairs 10

For every workload and end-to-end metric it prints both sides' medians
and quartiles, the pairs the change won, and a verdict. "gain" needs 9
wins in 10 and medians further apart than the base's quartile spread.
"regression" means the change's median is worse than the base's by more
than the metric's bound in BENCHMARK.json. "unresolved" means the
base's own spread is wider than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(repo, workload, seed, seconds, trace):
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{repo}: {workload} seed {seed} exited {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{repo}: {workload} seed {seed}: wrong answers or failures")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def verdict(metric, base, change, wins, pairs):
    b, c = summary(base), summary(change)
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * (c["median"] - b["median"]) / b["median"] if b["median"] else 0
    if wins >= 0.9 * pairs and abs(c["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "gain"
    if worse > metric["bound"]:
        return "regression"
    better_everywhere = all(sign * (x - y) < 0 for x in change for y in base)
    if b["spread"] > metric["bound"] and not better_everywhere:
        return "unresolved"
    return "no regression"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout of the base commit")
    ap.add_argument("--change", help="checkout of the changed commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, help="baseline mode only")
    ap.add_argument("--json", help="write the summary here")
    args = ap.parse_args()

    spec_repo = args.change or args.base
    with open(os.path.join(spec_repo, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    report = {"seconds": seconds, "workloads": {}}

    for w in workloads:
        if args.change is None:
            sets = []
            for s in range(args.sets):
                runs = [run(args.base, w, 1 + i, seconds, 0) for i in range(args.pairs)]
                sets.append({m["name"]: summary([r[m["name"]] for r in runs])
                             for m in spec["end_to_end"]})
            traced = run(args.base, w, 1, seconds, 1)
            report["workloads"][w] = {"seeds": list(range(1, args.pairs + 1)),
                                      "sets": sets, "traced_seed_1": traced}
            print(f"== {w}")
            for m in spec["end_to_end"]:
                cells = "  ".join(
                    f"{s[m['name']]['median']:.6g} [{s[m['name']]['q1']:.6g}, "
                    f"{s[m['name']]['q3']:.6g}] spread {s[m['name']]['spread']:.3f}"
                    for s in sets)
                print(f"  {m['name']:14s} {cells}")
            print(f"  trace.overhead_pct {traced['trace.overhead_pct']:.2f}")
        else:
            base, change = [], []
            for i in range(args.pairs):
                sides = [(args.base, base), (args.change, change)]
                for repo, acc in (sides if i % 2 == 0 else sides[::-1]):
                    acc.append(run(repo, w, 1 + i, seconds, 0))
            rows = {}
            print(f"== {w}")
            for m in spec["end_to_end"]:
                n = m["name"]
                b, c = [r[n] for r in base], [r[n] for r in change]
                sign = 1 if m["better"] == "lower" else -1
                wins = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
                v = verdict(m, b, c, wins, args.pairs)
                rows[n] = {"base": summary(b), "change": summary(c), "wins": wins,
                           "verdict": v}
                sb, sc = summary(b), summary(c)
                print(f"  {n:14s} base {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]"
                      f"  change {sc['median']:.6g} [{sc['q1']:.6g}, {sc['q3']:.6g}]"
                      f"  wins {wins}/{args.pairs}  {v}")
            report["workloads"][w] = rows
        sys.stdout.flush()

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
