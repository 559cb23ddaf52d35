#!/usr/bin/env python3
"""Run-to-run spread of every benchmark metric, the way the acceptance
driver computes it.

Runs the command of BENCHMARK.json on each workload once per seed (ten
seeds by default) and prints, per metric, the median and the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median, next to the metric's bound. A benchmark is
steady enough when every spread is below a third of its bound.

    python3 perfbench/spread.py                      # end-to-end, all workloads
    python3 perfbench/spread.py --trace 1            # per-layer metrics
    python3 perfbench/spread.py --workload tpcc_mix --seeds 5 --first-seed 100

Run it from the repository root. Raw values go to .perfbench/spread-*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    chosen = args.workload or names
    unknown = [w for w in chosen if w not in names]
    if unknown:
        sys.exit(f"unknown workload(s): {unknown}; BENCHMARK.json has {names}")
    defs = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]

    os.makedirs(".perfbench", exist_ok=True)
    worst = 0.0
    for workload in chosen:
        values = {d["name"]: [] for d in defs}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {walls[-1]:.1f} s", file=sys.stderr)
        out = f".perfbench/spread-{workload}-trace{args.trace}.json"
        with open(out, "w") as f:
            json.dump({"workload": workload, "wall_s": walls, "values": values}, f)

        print(f"\n{workload}: {args.seeds} seeds, wall {statistics.median(walls):.1f} s median, "
              f"{max(walls):.1f} s max")
        print(f"  {'metric':<40} {'median':>14} {'unit':<6} {'spread':>8} {'bound':>7}")
        for d in defs:
            v = values[d["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = d.get("bound")
            note = ""
            if bound is not None and d["name"] != "setup_s":
                worst = max(worst, spread / bound)
                if spread > bound:
                    note = "  <-- EXCEEDS BOUND"
                elif spread > bound / 3:
                    note = "  (above a third of the bound)"
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {d['name']:<40} {med:>14.4f} {d['unit']:<6} {spread:>7.1%} {shown:>7}{note}")
    if args.trace == "0":
        print(f"\nworst spread / bound: {worst:.2f} (steady when below 0.33, accepted below 1.0)")


if __name__ == "__main__":
    main()
