#!/usr/bin/env python3
"""One benchmark run: build ssq_perf if needed, run one workload, check
its outputs and print the result as the last line of stdout.

    python3 perf/bench.py --workload NAME --seed N --seconds S --trace 0|1
                          [--plant BUG]

Run from anywhere inside a checkout; paths are taken from this file. The
program, perf/ssq_perf.cpp, is built Release into perf/build with CMake on
first use and brought up to date on every later run (outside the measured
time). Its own report (prefix hash, counts, failed in-process checks, every
metric) is printed on the line before the result.

The result line holds exactly `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json untraced, its per-layer
metrics with --trace 1. It is correct when no unit failed, every in-process
check held, and the prefix hash equals perf/expected.json for this workload
and seed (when that seed is recorded there). Exit status: 0 when correct,
1 when not, 2 on a build or ssq_perf error (no result line then).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = PERF / "build"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(PERF), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "ssq_perf",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", help="planted reference bug (campaigns)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"bench.py: unknown workload '{args.workload}'",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
        cmd = [str(BUILD / "ssq_perf"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}"]
        if args.trace:
            cmd.append("--trace")
        if args.plant:
            cmd.append(f"--plant={args.plant}")
        out = subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
        report = json.loads(out.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        print(f"bench.py: {e}", file=sys.stderr)
        return 2

    errors = list(report["errors"])
    pins = PERF / "expected.json"
    expected = json.loads(pins.read_text()) if pins.exists() else {}
    pinned = expected.get(args.workload, {}).get(str(args.seed))
    if pinned is not None and pinned != report["hash"]:
        errors.append(f"prefix hash {report['hash']} != expected {pinned}")
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"bench.py: ssq_perf did not report {m['name']} "
                  f"in {m['unit']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = got
    correct = not errors and report["failed"] == 0
    for e in errors:
        print(f"bench.py: check failed: {e}", file=sys.stderr)

    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
