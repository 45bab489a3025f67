#!/bin/sh
# Strict option parsing (tools/cli.hpp), end to end through ssq_fuzz: every
# malformed --seed value must exit 2 (bad usage) instead of running with a
# wrapped or truncated seed, and so must --scenarios=0 (a green run that
# judged nothing), --trace without --replay, --write without --emit, and
# any option the emit or replay mode does not read (none of them may write
# a file).
#
# Usage: cli_strict_test.sh <ssq_fuzz>
set -u

BIN=$1
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
exit $status
