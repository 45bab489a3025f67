#!/bin/sh
# Strict option parsing (tools/cli.hpp), end to end through the real tools:
#
#   fuzz  <ssq_fuzz>   every malformed --seed value must exit 2 (bad usage)
#                      instead of running with a wrapped or truncated seed,
#                      and so must --scenarios=0 (a green run that judged
#                      nothing), --trace without --replay, --write
#                      without --emit, and any option the emit or replay
#                      mode does not read (none of them may write a file);
#   bench <ssq_bench>  --check against a baseline whose metric value does not
#                      parse must exit 2 before measuring anything, instead
#                      of reading the value as 0 and disarming that gate.
#
# Usage: cli_strict_test.sh fuzz|bench <binary>
set -u

MODE=$1
BIN=$2
status=0

expect_exit2() {
  "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: exit $rc, expected 2: $*" >&2
    status=1
  fi
}

case $MODE in
  fuzz)
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
    ;;
  bench)
    TMP=$(mktemp -d "${TMPDIR:-/tmp}/ssq_cli_strict.XXXXXX")
    trap 'rm -rf "$TMP"' EXIT INT TERM
    printf '%s\n' '{"schema":"ssq.bench.v1","bench":"hotpath","host":{},"metrics":{"cycles_per_sec_radix8":fast,"allocs_per_step_radix64":0},"tables":[]}' \
      > "$TMP/malformed.json"
    expect_exit2 "$BIN" "--check=$TMP/malformed.json" --cycles=1000 \
      --scenarios=1 "--json=$TMP/report.json"
    ;;
  *)
    echo "usage: cli_strict_test.sh fuzz|bench <binary>" >&2
    exit 2
    ;;
esac
exit $status
