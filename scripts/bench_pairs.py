#!/usr/bin/env python3
"""Compare two source checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload NAME \\
        [--pairs 10] [--seed-base 1]

Pair i runs `perfbench/run.py --trace 0` once in each checkout, with seed
seed-base + i and the run length BENCHMARK.json fixes; even pairs run the
parent first, odd pairs the change. For every end-to-end metric the
report gives each side's median and quartiles, the pairs the change won
(ties count for neither), and the change of the median against the
metric's bound, with a verdict:

    gain          the change won at least 9/10 of the pairs and its median
                  beats the parent's by more than the parent's quartile
                  spread
    unresolved    the parent's quartile spread exceeds the bound, and not
                  every run of the change beats every run of the parent
    over bound    the median is worse than the parent's by more than the
                  bound
    within bound  otherwise

Exits 1 when a run reports "correct": false or a failed op, or when a
quality metric differs between the two runs of a pair; 2 when a run
produces no result line. BENCHMARK.json and perfbench/ are only read.
"""

import argparse
import json
import os
import subprocess
import sys

QUALITY = ("pass_ratio", "stored_total_ratio", "stored_max_ratio",
           "at_speed_vectors", "t0_coverage")


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    s = sorted(xs)

    def at(p):
        k = p * (len(s) - 1)
        lo = int(k)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(out.stderr)
        print("bench_pairs: no result line from %s (exit %d)"
              % (checkout, out.returncode), file=sys.stderr)
        sys.exit(2)
    return result


def verdict(metric, parent, change, wins, pairs):
    q1, pmed, q3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    lower = metric["better"] == "lower"
    better = cmed < pmed if lower else cmed > pmed
    if wins * 10 >= 9 * pairs and better and abs(cmed - pmed) > q3 - q1:
        return "gain"
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if pmed != 0 and (q3 - q1) / abs(pmed) > metric["bound"] and not all_better:
        return "unresolved"
    worse = (cmed - pmed) if lower else (pmed - cmed)
    if pmed != 0 and worse / abs(pmed) > metric["bound"]:
        return "over bound"
    return "within bound"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    status = 0

    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            r = run_once(sides[side], args.workload, seed, seconds)
            pair[side] = r
            runs[side].append(r["metrics"])
            m = r["metrics"]
            print("pair %2d seed %d %-6s wall_s %.4g  correct %s  failed %d/%d"
                  % (i, seed, side, m["wall_s"]["value"], r["correct"],
                     r["failed"], r["attempted"]), file=sys.stderr, flush=True)
            if not r["correct"] or r["failed"] > 0:
                print("pair %d: %s run is not correct or failed an op" % (i, side))
                status = 1
        for q in QUALITY:
            a = pair["parent"]["metrics"].get(q, {}).get("value")
            b = pair["change"]["metrics"].get(q, {}).get("value")
            if a != b:
                print("pair %d: quality metric %s differs: parent %r, change %r"
                      % (i, q, a, b))
                status = 1

    print("workload %s, %d pairs at %g s, seeds %d..%d"
          % (args.workload, args.pairs, seconds, args.seed_base,
             args.seed_base + args.pairs - 1))
    print("%-18s %-32s %-32s %6s %9s %6s  %s"
          % ("metric", "parent median (q1-q3)", "change median (q1-q3)",
             "wins", "change", "bound", "verdict"))
    for metric in metrics:
        name = metric["name"]
        if not all(name in m for m in runs["parent"] + runs["change"]):
            continue
        pv = [m[name]["value"] for m in runs["parent"]]
        cv = [m[name]["value"] for m in runs["change"]]
        lower = metric["better"] == "lower"
        wins = sum(1 for a, b in zip(pv, cv) if (b < a if lower else b > a))
        pq1, pmed, pq3 = quartiles(pv)
        cq1, cmed, cq3 = quartiles(cv)
        rel = "%+8.1f%%" % (100 * (cmed - pmed) / pmed) if pmed else "     n/a"
        print("%-18s %-32s %-32s %6s %9s %5.0f%%  %s"
              % (name, "%.4g (%.4g-%.4g)" % (pmed, pq1, pq3),
                 "%.4g (%.4g-%.4g)" % (cmed, cq1, cq3),
                 "%d/%d" % (wins, args.pairs), rel, 100 * metric["bound"],
                 verdict(metric, pv, cv, wins, args.pairs)))
    sys.exit(status)


if __name__ == "__main__":
    main()
