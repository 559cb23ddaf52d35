#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, judged by the section-8 rule.

    scripts/ab_pairs.py PARENT_REF --workload NAME [--pairs 10] [--first-seed S] [--budget] [--record [--label TEXT]]

Run from the repository root. The *change* is the working tree; the *parent*
is PARENT_REF, exported with `git archive` into a disposable directory,
`.perfbench/ab-<sha>/` (reused while it exists; delete it to reclaim the
space). Both sides run the command of BENCHMARK.json from their own tree
(`--seconds` as BENCHMARK.json fixes it, `--trace 0`, `--json` into
`.perfbench/`), one seed per pair, the side that goes first swapped every
pair. Every run made is listed.

Per end-to-end metric it prints each side's median [q1, q3], the pairs the
change won (ties count for neither), the gap between the medians against the
distance between the parent's quartiles, and a verdict:

    gain          the change won at least nine tenths of the pairs and the
                  medians differ, in the metric's `better` direction, by more
                  than the parent's inter-quartile distance
    unresolved    either side's inter-quartile distance, as a share of its
                  median, is wider than the metric's `bound`
    regression    the change's median is worse than the parent's by more than
                  `bound`
    within bound  none of the above

With --budget it also prints, for both sides, where BOHM's CPU went: µs per
transaction on each thread (driver, core.seq, core.cc, core.exec and their
sum), and beside it the CC thread's kernel share (`core.cc.sys_share`) and
the page faults per transaction (`core.minor_faults_per_txn`), taken as
the children report them. Every BOHM child record in a run's `--json` output carries the
thread's `cpu_share` and the child's throughput windows; a child's figure is
`cpu_share` ÷ its median window, a run's is the median over its children
(one per round), and a side's is the median [q1, q3] over its runs. Beside
BOHM's, the baselines' budgets: tpl.cpu_us_per_txn, occ.cpu_us_per_txn,
hekaton.cpu_us_per_txn and hekaton.abort_ratio, as the tpl.*, occ.* and
hekaton.* children report them under `per_layer`, with the same medians.
Then each engine child's set-up seconds and the recovery seconds, so a
set-up change shows which engine moved: tpl.setup_s, occ.setup_s,
hekaton.setup_s and bohm.setup_s from the tpl.*, occ.*, hekaton.* and bohm.*
children's `setup_s`, and recover.recover_s from the recover.* children's
`recover_s` (the end-to-end setup_s sums the four engines' medians).
Layer figures are reported, never judged: the verdicts above are the result.

With --record it appends one row per side to the checked-in trajectory file,
BENCH_perfbench.json (a JSON array, one row per line, oldest first): sha
(the change is HEAD, marked `-dirty` while the working tree differs from it
— it usually does, so name the change with --label, e.g. "PR 22"), date,
host cores, workload, pairs and seeds, the median of every end-to-end metric,
the --budget medians when given (the baselines' as `baseline_budget`, the
set-up and recovery seconds as `setup_figures`), and
the tree's `analysis --loc` total. The
next reader of the trajectory reads a file, not prose.

Exits non-zero only on usage errors; a failed run is reported and its pair
dropped.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys


def sh(cmd, **kw):
    return subprocess.run(cmd, text=True, stdout=subprocess.PIPE, **kw)


def export_parent(ref):
    """The parent's tree under .perfbench/ab-<sha>/ (exported once)."""
    rev = sh(["git", "rev-parse", "--verify", "--quiet", ref + "^{commit}"])
    if rev.returncode != 0:
        sys.exit(f"ab_pairs: {ref!r} is not a commit")
    sha = rev.stdout.strip()
    tree = os.path.abspath(os.path.join(".perfbench", "ab-" + sha[:12]))
    ready = os.path.join(tree, ".ab-exported")
    if not os.path.exists(ready):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab_pairs: git archive {sha} failed")
        open(ready, "w").close()
    return sha, tree


TRAJECTORY = "BENCH_perfbench.json"


def loc_of(tree):
    """The tree's `analysis --loc` total (non-test code lines), or None."""
    out = sh(["cargo", "run", "-q", "--offline", "-p", "analysis", "--", "--loc"], cwd=tree, stderr=subprocess.DEVNULL)
    last = out.stdout.split()[-2:] if out.returncode == 0 else []
    return int(last[0]) if len(last) == 2 and last[1] == "total" else None


def record(rows):
    """Append `rows` to the trajectory file, one row per line."""
    try:
        with open(TRAJECTORY) as f:
            rows = json.load(f) + rows
    except OSError:
        pass
    with open(TRAJECTORY, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


BUDGET_THREADS = ["driver", "core.seq", "core.cc", "core.exec"]
# Per-layer figures printed beside the budget as they are (median over the
# run's BOHM children): where a layout change's saving lands — kernel time
# on the CC thread, page faults per transaction.
BUDGET_FIGURES = ["core.cc.sys_share", "core.minor_faults_per_txn"]
# The baselines' budgets, each from the children of the engine it names.
BASELINE_FIGURES = ["tpl.cpu_us_per_txn", "occ.cpu_us_per_txn", "hekaton.cpu_us_per_txn", "hekaton.abort_ratio"]
# Seconds per child, named `<child prefix>.<field>`: each engine child's
# set-up and each recovery round's replay.
SETUP_FIGURES = ["tpl.setup_s", "occ.setup_s", "hekaton.setup_s", "bohm.setup_s", "recover.recover_s"]


def budget_of(path):
    """One run's CPU µs per transaction by thread, plus BUDGET_FIGURES, BASELINE_FIGURES and SETUP_FIGURES, from its --json file."""
    with open(path) as f:
        children = json.load(f)["children"]
    per_child = {t: [] for t in BUDGET_THREADS + BUDGET_FIGURES + BASELINE_FIGURES + SETUP_FIGURES}
    for name, child in children.items():
        for t in SETUP_FIGURES:
            prefix, field = t.split(".")
            if name.split(".")[0] == prefix and field in child:
                per_child[t].append(child[field])
        for t in BASELINE_FIGURES:
            if t.split(".")[0] == name.split(".")[0] and t in child.get("per_layer", {}):
                per_child[t].append(child["per_layer"][t])
        if name.startswith("bohm."):
            txn_per_s = statistics.median(child["windows"])
            for t in BUDGET_THREADS:
                per_child[t].append(1e6 * child["per_layer"][t + ".cpu_share"] / txn_per_s)
            for t in BUDGET_FIGURES:
                per_child[t].append(child["per_layer"][t])
    run = {t: statistics.median(v) for t, v in per_child.items()}
    run["total"] = sum(run[t] for t in BUDGET_THREADS)
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """(pairs won, signed gap: positive = change better, parent IQR, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - pmed)
    if won >= 0.9 * len(parent) and gap > pq3 - pq1:
        word = "gain"
    elif max((pq3 - pq1) / abs(pmed or 1), (cq3 - cq1) / abs(cmed or 1)) > bound:
        word = "unresolved"
    elif -gap > bound * abs(pmed):
        word = "regression"
    else:
        word = "within bound"
    return won, gap, pq3 - pq1, word


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("parent_ref", metavar="PARENT_REF")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument(
        "--budget",
        action="store_true",
        help="also print BOHM's CPU µs per transaction by thread, the baselines' "
        + ", ".join(BASELINE_FIGURES)
        + ", and the seconds per child "
        + ", ".join(SETUP_FIGURES),
    )
    ap.add_argument("--record", action="store_true", help=f"append one row per side to {TRAJECTORY}")
    ap.add_argument("--label", default="", help="with --record: what to call the change in its rows")
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError:
        sys.exit("ab_pairs: no BENCHMARK.json here; run from the repository root")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        sys.exit(f"ab_pairs: unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    if args.pairs < 1:
        sys.exit("ab_pairs: --pairs must be at least 1")

    out_dir = os.path.abspath(".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    sha, parent_tree = export_parent(args.parent_ref)
    trees = {"parent": parent_tree, "change": os.getcwd()}
    print(f"parent {sha[:12]} in {parent_tree}; change = working tree", file=sys.stderr)
    for side, tree in trees.items():  # build both before anything is timed
        if sh(bench["command"] + ["--list"], cwd=tree).returncode != 0:
            sys.exit(f"ab_pairs: the {side} tree does not build")

    defs = bench["end_to_end"]
    # The progress line follows one metric: the first throughput.
    shown = next((d["name"] for d in defs if d["better"] == "higher"), defs[0]["name"])
    values = {side: {d["name"]: [] for d in defs} for side in trees}
    budgets = {side: [] for side in trees}
    failed_ops = {side: 0 for side in trees}
    runs, dropped = [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got, paths = {}, {}
        for side in order:
            path = paths[side] = os.path.join(out_dir, f"ab-{args.workload}-{seed}-{side}.json")
            cmd = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0", "--json", path,
            ]
            proc = sh(cmd, cwd=trees[side])
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got[side] = result if result["correct"] else None
            except (IndexError, ValueError, KeyError):
                got[side] = None
            if got[side] is None:
                dropped.append(f"seed {seed} {side}: exit code {proc.returncode}, output check failed")
        if None in got.values():
            continue
        for side, result in got.items():
            if args.budget:
                budgets[side].append(budget_of(paths[side]))
            failed_ops[side] += result["failed"]
            for d in defs:
                values[side][d["name"]].append(result["metrics"][d["name"]]["value"])
        runs.append(seed)
        print(
            f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {shown} "
            f"{got['parent']['metrics'][shown]['value']:.6g} -> {got['change']['metrics'][shown]['value']:.6g}",
            file=sys.stderr,
        )

    print(f"{args.workload}: {len(runs)} pairs, seeds {runs}, parent {sha[:12]}")
    for line in dropped:
        print("  dropped:", line)
    if not runs:
        return
    print(f"  failed operations: parent {failed_ops['parent']}, change {failed_ops['change']}")
    head = f"  {'metric':<24} {'parent median [q1, q3]':<38} {'change median [q1, q3]':<38}"
    print(head + " won   gap (better > 0) / parent IQR   verdict")
    for d in defs:
        p, c = values["parent"][d["name"]], values["change"][d["name"]]
        won, gap, iqr, word = verdict(p, c, d["better"], d["bound"])
        cells = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(side)) for side in (p, c)]
        rel = 100.0 * gap / abs(statistics.median(p) or 1)
        print(
            f"  {d['name']:<24} {cells[0]:<38} {cells[1]:<38} {won:>2}/{len(p):<3}"
            f"{gap:>+12.6g} ({rel:+.1f}%) / {iqr:<10.6g} {word}"
        )
    if args.budget:
        print("  BOHM CPU us per transaction by thread (cpu_share / throughput; reported, not judged):")
        print(f"  {'thread':<24} {'parent median [q1, q3]':<38} {'change median [q1, q3]':<38} change - parent")
        for t in BUDGET_THREADS + ["total"]:
            sides = [[run[t] for run in budgets[side]] for side in ("parent", "change")]
            cells = ["{1:.3f} [{0:.3f}, {2:.3f}]".format(*quartiles(side)) for side in sides]
            delta = statistics.median(sides[1]) - statistics.median(sides[0])
            print(f"  {t:<24} {cells[0]:<38} {cells[1]:<38} {delta:+.3f}")
        print("  beside it, per BOHM child as reported (median over a run's children):")
        for t in BUDGET_FIGURES:
            sides = [[run[t] for run in budgets[side]] for side in ("parent", "change")]
            cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(side)) for side in sides]
            delta = statistics.median(sides[1]) - statistics.median(sides[0])
            print(f"  {t:<24} {cells[0]:<38} {cells[1]:<38} {delta:+.4g}")
        print("  baselines, per child as reported (median over a run's children):")
        for t in BASELINE_FIGURES:
            sides = [[run[t] for run in budgets[side]] for side in ("parent", "change")]
            cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(side)) for side in sides]
            delta = statistics.median(sides[1]) - statistics.median(sides[0])
            print(f"  {t:<24} {cells[0]:<38} {cells[1]:<38} {delta:+.4g}")
        print("  set-up and recovery seconds, per child as reported (median over a run's children):")
        for t in SETUP_FIGURES:
            sides = [[run[t] for run in budgets[side]] for side in ("parent", "change")]
            cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(side)) for side in sides]
            delta = statistics.median(sides[1]) - statistics.median(sides[0])
            print(f"  {t:<24} {cells[0]:<38} {cells[1]:<38} {delta:+.4g}")
    if args.record:
        head = sh(["git", "rev-parse", "HEAD"]).stdout.strip()
        dirty = sh(["git", "status", "--porcelain", "--untracked-files=no"]).stdout.strip()
        shas = {"parent": sha, "change": head + ("-dirty" if dirty else "")}
        rows = []
        for side, tree in trees.items():
            row = {
                "sha": shas[side], "side": side, "label": (args.label + " parent" * (side == "parent")).strip(),
                "date": datetime.date.today().isoformat(),
                "host_cores": os.cpu_count(), "workload": args.workload, "pairs": len(runs), "seeds": runs,
                "metrics": {name: statistics.median(v) for name, v in values[side].items()},
                "loc": loc_of(tree),
            }
            if args.budget:
                threads = BUDGET_THREADS + ["total"]
                row["budget_us_per_txn"] = {t: statistics.median(r[t] for r in budgets[side]) for t in threads}
                row["budget_figures"] = {t: statistics.median(r[t] for r in budgets[side]) for t in BUDGET_FIGURES}
                row["baseline_budget"] = {t: statistics.median(r[t] for r in budgets[side]) for t in BASELINE_FIGURES}
                row["setup_figures"] = {t: statistics.median(r[t] for r in budgets[side]) for t in SETUP_FIGURES}
            rows.append(row)
        record(rows)
        print(f"  recorded {len(rows)} rows in {TRAJECTORY}")
    print("  raw values per pair, parent/change:")
    for d in defs:
        pairs = " ".join(
            f"{p:.6g}/{c:.6g}" for p, c in zip(values["parent"][d["name"]], values["change"][d["name"]])
        )
        print(f"    {d['name']}: {pairs}")


if __name__ == "__main__":
    main()
