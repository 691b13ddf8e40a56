#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/collect.py --workloads estimate,blind-full --seeds 1-10
    python3 perfbench/collect.py --workloads blind-cropped --seeds 1-3 --trace 1

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, from
the repository root. For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the metric's bound in ``BENCHMARK.json``. ``--json FILE`` also writes
the summary and every run's result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"trace": args.trace, "seconds": seconds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            metrics[name] = summarise([r["metrics"][name]["value"]
                                       for r in runs])
            metrics[name]["unit"] = m["unit"]
            s = metrics[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = bounds.get(name)
            print(f"  {name:44s} median {s['median']:12.6g} {m['unit']:8s} "
                  f"q1 {s['q1']:10.6g} q3 {s['q3']:10.6g} spread {spread}"
                  + (f" (bound {bound})" if bound is not None else ""))
        summary["workloads"][wl] = {"metrics": metrics, "runs": runs}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
