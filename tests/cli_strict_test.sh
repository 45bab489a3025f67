#!/bin/sh
# Strict option parsing (tools/cli.hpp), end to end through the real tools:
#
#   fuzz  <ssq_fuzz>   every malformed --seed value must exit 2 (bad usage)
#                      instead of running with a wrapped or truncated seed;
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
