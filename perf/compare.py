#!/usr/bin/env python3
"""Summaries of benchmark runs, and parent-vs-change comparisons.

    python3 perf/compare.py summary RUNS.jsonl...
    python3 perf/compare.py pairs PARENT_DIR CHANGE_DIR [--pairs 10]
                            [--seconds S] [--workload NAME ...] [--out FILE]
    python3 perf/compare.py report PAIRS.jsonl

A runs file holds, per run, the two lines perf/bench.py prints last: the
ssq_perf report and the result line (perf/run.sh writes such files).
`summary` prints every metric as median [q1, q3] with its unit and sample
count, per workload, and flags runs of one seed whose hashes disagree.

`pairs` runs perf/bench.py of two checkouts in alternating pairs: pair k
uses seed k, the parent runs first in even pairs and the change in odd
ones. Both checkouts must carry the same perf/ directory (copy it into a
parent older than the benchmark). It then reports, as `report` does for a
file `pairs` wrote. Verdicts follow the choosing-metrics guide, sections
6 to 8, per workload and end-to-end metric:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's IQR
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's IQR exceeds the bound, unless every change run
              beats every parent run
  same        none of these

A gain does not count when the change fails more units than the parent.
"""
import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def read_runs(paths):
    """(report, result) pairs from files of bench.py output lines."""
    runs = []
    for path in paths:
        report = None
        for line in Path(path).read_text().splitlines():
            obj = json.loads(line)
            if "workload" in obj:
                report = obj
            elif report is not None:
                runs.append((report, obj))
                report = None
    return runs


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(paths):
    groups = defaultdict(list)
    for report, result in read_runs(paths):
        groups[(report["workload"], report["trace"])].append((report, result))
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    for (workload, trace), runs in sorted(groups.items()):
        correct = sum(r["correct"] for _, r in runs)
        print(f"\n{workload}{' (traced)' if trace else ''}: {len(runs)} runs, "
              f"{correct} correct, {sum(r['failed'] for _, r in runs)} of "
              f"{sum(r['attempted'] for _, r in runs)} units failed")
        hashes = defaultdict(set)
        for report, _ in runs:
            hashes[report["seed"]].add(report["hash"])
        for seed, hs in sorted(hashes.items()):
            if len(hs) > 1:
                print(f"  HASH MISMATCH at seed {seed}: {sorted(hs)}")
        for name, first in runs[0][0]["metrics"].items():
            values = [rep["metrics"][name]["value"] for rep, _ in runs]
            q1, med, q3 = quartiles(values)
            unit = first["unit"]
            line = (f"  {name:38s} {med:14.6g} [{q1:.6g}, {q3:.6g}] "
                    f"{unit} (n={len(values)})")
            if name in bounds and med and len(values) > 1:
                line += (f"  spread {(q3 - q1) / abs(med):.1%} "
                         f"of bound {bounds[name]:.0%}")
            print(line)


def run_pairs(args):
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or [w["name"] for w in spec()["workloads"]]
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    with out.open("a") as f:
        for k in range(1, args.pairs + 1):
            order = ["parent", "change"] if k % 2 == 0 else ["change",
                                                             "parent"]
            for workload in workloads:
                for side in order:
                    cmd = [sys.executable,
                           str(sides[side] / "perf" / "bench.py"),
                           "--workload", workload, "--seed", str(k),
                           "--seconds", str(args.seconds), "--trace", "0"]
                    res = subprocess.run(cmd, cwd=sides[side], text=True,
                                         stdout=subprocess.PIPE)
                    lines = res.stdout.strip().splitlines()
                    if res.returncode == 2 or len(lines) < 2:
                        sys.exit(f"compare.py: {side} run failed: {cmd}")
                    report = json.loads(lines[-2])
                    report.update(side=side, pair=k)
                    f.write(json.dumps(report) + "\n" + lines[-1] + "\n")
                    f.flush()
                    print(f"pair {k} {workload} {side} done", file=sys.stderr)
    report_pairs([out])


def verdict(parent, change, better, bound):
    """Verdict for paired samples of one metric (lists indexed by pair)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    iqr = q3 - q1
    gain = sign * (med_c - med_p)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gain > iqr:
        word = "gain"
    elif -gain > bound * abs(med_p):
        word = "regression"
    elif iqr > bound * abs(med_p) and not all_better:
        word = "unresolved"
    else:
        word = "same"
    delta = (med_c - med_p) / abs(med_p) if med_p else 0.0
    return word, delta, wins


def report_pairs(paths):
    runs = defaultdict(dict)  # (workload, pair) -> side -> (report, result)
    for report, result in read_runs(paths):
        runs[(report["workload"], report["pair"])][report["side"]] = (
            report, result)
    metrics = spec()["end_to_end"]
    for workload in sorted({w for w, _ in runs}):
        pairs = [v for (w, _), v in sorted(runs.items())
                 if w == workload and len(v) == 2]
        failed = {s: sum(p[s][1]["failed"] for p in pairs)
                  for s in ("parent", "change")}
        incorrect = sum(not p[s][1]["correct"] for p in pairs
                        for s in ("parent", "change"))
        cells = []
        for m in metrics:
            par = [p["parent"][1]["metrics"][m["name"]]["value"] for p in pairs]
            chg = [p["change"][1]["metrics"][m["name"]]["value"] for p in pairs]
            word, delta, wins = verdict(par, chg, m["better"], m["bound"])
            if word == "gain" and failed["change"] > failed["parent"]:
                word = "gain (void: more failures)"
            cells.append(f"{m['name']} {word} {delta:+.1%} "
                         f"({wins}/{len(pairs)} wins)")
        print(f"{workload} [{len(pairs)} pairs, failed parent "
              f"{failed['parent']} change {failed['change']}, "
              f"{incorrect} incorrect runs]")
        for c in cells:
            print(f"  {c}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--workload", action="append")
    p.add_argument("--out", default=str(ROOT / "perf" / "out" / "pairs.jsonl"))
    r = sub.add_parser("report")
    r.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.cmd == "summary":
        summary(args.files)
    elif args.cmd == "pairs":
        run_pairs(args)
    else:
        report_pairs(args.files)


if __name__ == "__main__":
    main()
