#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each workload and
reports, per metric, the median and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median. With ``--sets 2`` it repeats the whole series and
also reports how far the second median moved from the first. With
``--heldout`` it compares one held-out seed against the primary seed's
runs, metric by metric, against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 simbench/spread.py --seeds 1-10 [--workloads a,b] [--sets 2]
    python3 simbench/spread.py --seeds 1 --repeat 3 --heldout 1009
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per seed (and of the held-out seed)")
    ap.add_argument("--heldout", type=int, default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    ok = True
    for w in workloads:
        sets = []
        for _ in range(args.sets):
            sets.append([run(bench, w, s) for s in seeds for _ in range(args.repeat)])
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, runs in enumerate(sets):
                med, sp = spread([r[name] for r in runs])
                meds.append(med)
                flag = "" if name == "setup_s" or sp <= bound else "  SPREAD > BOUND"
                ok &= not flag
                print(f"{w:15} {name:12} set{i + 1} median={med:.6g} "
                      f"iqr/median={sp:.4f} (bound {bound}){flag}")
            if len(meds) > 1:
                drift = worse_by(m, meds[0], meds[1])
                flag = "" if drift <= bound else "  DRIFT > BOUND"
                ok &= not flag
                print(f"{w:15} {name:12} second median worse by {drift:+.4f}{flag}")
        if args.heldout is not None:
            held = [run(bench, w, args.heldout) for _ in range(args.repeat)]
            for m in bench["end_to_end"]:
                name, bound = m["name"], m["bound"]
                med = statistics.median(r[name] for r in sets[0])
                held_med = statistics.median(r[name] for r in held)
                drift = worse_by(m, med, held_med)
                flag = "" if drift <= bound else "  OUTSIDE BOUND"
                ok &= not flag
                print(f"{w:15} {name:12} heldout seed {args.heldout}: "
                      f"{held_med:.6g} vs {med:.6g} worse by {drift:+.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
