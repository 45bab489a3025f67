#!/usr/bin/env bash
# Runs the benchmark in sets and prints every metric as median [q1, q3]
# with its unit and sample count.
#
#   perf/run.sh [--sets N] [--seconds S]   N sets (default 5) of every
#                                          workload, S seconds each
#   perf/run.sh --trace [--seconds S]      one traced run per workload
#                                          (seed 1): the per-layer table
#   perf/run.sh --smoke                    1-second runs, default-seed
#                                          hashes and the planted-bug check
#   perf/run.sh --record                   rewrite perf/expected.json with
#                                          the prefix hashes of seeds 1-10
#
# Every run is its own process (perf/bench.py, which builds Release into
# perf/build first). Set k uses seed k and starts at workload k of the
# rotation, so no workload always runs first. Runs are appended to
# perf/out/runs-<time>.jsonl and summarised by perf/compare.py. Exits
# nonzero if any run is incorrect or the planted bug goes unnoticed.
set -euo pipefail
cd "$(dirname "$0")/.."

sets=5
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mode=sets
while [ $# -gt 0 ]; do
  case "$1" in
    --sets) sets=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace|--smoke|--record) mode=${1#--}; shift ;;
    *) sed -n '2,17p' "$0" >&2; exit 2 ;;
  esac
done

read -r -a workloads <<< "$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
mkdir -p perf/out
out=perf/out/runs-$(date +%Y%m%d-%H%M%S).jsonl
status=0

# run WORKLOAD SEED SECONDS TRACE [extra bench.py args]: one run, appended
# to $out; a nonzero exit marks the whole invocation as failed.
run() {
  local rc=0
  python3 perf/bench.py --workload "$1" --seed "$2" --seconds "$3" \
    --trace "$4" "${@:5}" > "$out.tmp" || rc=$?
  if [ "$rc" -eq 2 ]; then echo "run.sh: $1 seed $2 did not run" >&2; exit 2; fi
  tail -n 2 "$out.tmp" >> "$out"
  [ "$rc" -eq 0 ] || status=1
  rm -f "$out.tmp"
}

case "$mode" in
  sets)
    for ((k = 1; k <= sets; k++)); do
      for ((j = 0; j < ${#workloads[@]}; j++)); do
        run "${workloads[(k + j) % ${#workloads[@]}]}" "$k" "$seconds" 0
      done
    done
    python3 perf/compare.py summary "$out"
    ;;
  trace)
    for w in "${workloads[@]}"; do run "$w" 1 "$seconds" 1; done
    python3 perf/compare.py summary "$out"
    ;;
  smoke)
    for w in "${workloads[@]}"; do run "$w" 1 1 0; done
    python3 perf/compare.py summary "$out"
    # The planted reference bug must fail scenarios and change the hash;
    # bench.py then reports the run incorrect, which is the pass here.
    plant=0
    python3 perf/bench.py --workload campaign-default --seed 1 --seconds 1 \
      --trace 0 --plant gb_vtick_off_by_one > "$out.plant" || plant=$?
    if [ "$plant" -eq 1 ] && python3 - "$out.plant" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
report, result = json.loads(lines[-2]), json.loads(lines[-1])
pinned = json.load(open("perf/expected.json"))["campaign-default"]["1"]
sys.exit(0 if result["failed"] > 0 and report["hash"] != pinned else 1)
EOF
    then
      echo "planted gb_vtick_off_by_one: flagged (failed units, hash changed)"
    else
      echo "planted gb_vtick_off_by_one: NOT flagged" >&2
      status=1
    fi
    rm -f "$out.plant"
    ;;
  record)
    for w in "${workloads[@]}"; do
      for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perf/bench.py --workload "$w" --seed "$seed" --seconds 0 \
          --trace 0 | tail -n 2 >> "$out" || true
      done
    done
    python3 - "$out" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
pins = {}
for line in lines[::2]:
    r = json.loads(line)
    pins.setdefault(r["workload"], {})[str(r["seed"])] = r["hash"]
with open("perf/expected.json", "w") as f:
    json.dump(pins, f, indent=2, sort_keys=True)
    f.write("\n")
EOF
    echo "wrote perf/expected.json"
    ;;
esac
exit "$status"
