#!/bin/sh
# Strict option parsing (tools/cli.hpp), end to end through ssq_fuzz: every
# malformed --seed value must exit 2 (bad usage) instead of running with a
# wrapped or truncated seed, and so must --scenarios=0 (a green run that
# judged nothing), --trace without --replay, --write without --emit, and
# any option the emit or replay mode does not read (none of them may write
# a file). Then through ssq_sim: every option error exits 2 with one
# `ssq_sim:` line naming the option and its value, while workload-file and
# configuration errors keep exit 1.
#
# Usage: cli_strict_test.sh <ssq_fuzz> <ssq_sim>
set -u

BIN=$1
SIM=$2
status=0

expect_exit2() {
  "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: exit $rc, expected 2: $*" >&2
    status=1
  fi
}

for v in -1 +5 ' 5' 5x '' 18446744073709551616; do
  expect_exit2 "$BIN" "--seed=$v" --scenarios=1 --quiet
done
expect_exit2 "$BIN" --scenarios=0 --quiet
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ssq_cli_strict.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM
expect_exit2 "$BIN" "--trace=$TMP/x.trace" --scenarios=2 --quiet
expect_exit2 "$BIN" "--write=$TMP/x.scenario" --scenarios=2 --quiet
# Each mode refuses the options it does not read.
expect_exit2 "$BIN" --emit=0 "--write=$TMP/y.scenario" \
  --replay=/nonexistent.scenario
expect_exit2 "$BIN" --emit=0 "--write=$TMP/y.scenario" --monitor
"$BIN" --emit=0 "--write=$TMP/ok.scenario" >/dev/null 2>&1 || {
  echo "FAIL: --emit=0 --write could not write a scenario" >&2
  status=1
}
for extra in --jobs=3 --heartbeat=1 --time-budget=5 --sparse \
  --scenarios=5 --seed=2 --engine=islip --repro-dir="$TMP" --no-shrink; do
  expect_exit2 "$BIN" "--replay=$TMP/ok.scenario" "$extra" --quiet
done
expect_exit2 "$BIN" "--replay=$TMP/ok.scenario" "--trace=$TMP/z.trace" \
  --monitor
for f in x.trace x.scenario y.scenario z.trace; do
  if [ -e "$TMP/$f" ]; then
    echo "FAIL: refused run still wrote $f" >&2
    status=1
  fi
done

printf 'radix 4\nflow src=0 dst=1 load=0.1\n' > "$TMP/ok.workload"
# sim_exit <rc> <args...>: ssq_sim on the small workload must exit <rc>.
sim_exit() {
  want=$1
  shift
  "$SIM" "$TMP/ok.workload" --warmup=0 --measure=50 "$@" \
    >/dev/null 2>"$TMP/err.txt"
  rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: exit $rc, expected $want: ssq_sim $*" >&2
    status=1
  fi
}
# sim_usage <option> <value> <args...>: exit 2, and exactly one `ssq_sim:`
# line, naming <option> and '<value>'.
sim_usage() {
  opt=$1
  val=$2
  shift 2
  sim_exit 2 "$@"
  line=$(grep '^ssq_sim:' "$TMP/err.txt")
  if [ "$(printf '%s\n' "$line" | grep -c .)" -ne 1 ] ||
    ! printf '%s' "$line" | grep -qF -- "$opt" ||
    ! printf '%s' "$line" | grep -qF -- "'$val'"; then
    echo "FAIL: ssq_sim $* must print one ssq_sim: line naming $opt" \
      "and '$val', got: $line" >&2
    status=1
  fi
}
sim_exit 0
sim_usage --seed -1 --seed=-1
sim_usage --level-bits x --level-bits=x
sim_usage --measure 0 --measure=0
sim_usage --bogus --bogus --bogus
sim_usage --trace '' --trace=
sim_usage --policy bogus --policy=bogus
sim_usage --mode bogus --mode=bogus
sim_usage --trace-format xml --trace-format=xml
sim_usage --monitor-gb-tol 2 --monitor-gb-tol=2
sim_usage --fault-kill-port 1,5,3 --fault-kill-port=1,5,3
sim_usage --fault-stuck-lane 1 --fault-stuck-lane=1
# Workload-file and configuration errors are not usage errors.
"$SIM" "$TMP/missing.workload" >/dev/null 2>&1
rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: exit $rc, expected 1: ssq_sim on a missing workload" >&2
  status=1
fi
sim_exit 1 --chaining --mode=lrg
exit $status
