#!/bin/sh
# ssq_fuzz progress and cancel paths (docs/OBSERVABILITY.md, docs/TESTING.md):
#
#   1. SIGINT cancels an unbounded time-budget run cooperatively: exit 130,
#      one "interrupted after N scenarios (no failures found)" line, and no
#      repro file;
#   2. the heartbeat's last line on stderr is the final ssq.fuzz.heartbeat.v1
#      record: valid JSON, every scenario counted, and grants/delivered equal
#      to the totals of the stdout summary line.
#
# Usage: fuzz_progress_test.sh <path-to-ssq_fuzz>
set -eu

BIN=$1
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ssq_fuzz_progress.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

# --- SIGINT -----------------------------------------------------------------
mkdir "$TMP/cancel"
"$BIN" --time-budget=60 --seed=1 --quiet --repro-dir="$TMP/cancel" \
  > "$TMP/cancel.out" 2> "$TMP/cancel.err" &
PID=$!
sleep 1
kill -INT "$PID"
set +e
wait "$PID"
CODE=$?
set -e
[ "$CODE" -eq 130 ] || fail "SIGINT: exit $CODE, expected 130"
LINES=$(grep -c '^interrupted after [0-9][0-9]* scenarios (no failures found): ' \
  "$TMP/cancel.out" || true)
[ "$LINES" -eq 1 ] || fail "SIGINT: $LINES 'interrupted after N scenarios' lines, expected 1"
[ -z "$(ls "$TMP/cancel")" ] || fail "SIGINT: files written: $(ls "$TMP/cancel")"
echo "ok: SIGINT -> exit 130, $(cat "$TMP/cancel.out")"

# --- heartbeat --------------------------------------------------------------
"$BIN" --scenarios=40 --seed=3 --heartbeat=1 --quiet \
  > "$TMP/hb.out" 2> "$TMP/hb.err" || fail "heartbeat run exited nonzero"
TOTALS=$(sed -n 's/^all 40 scenarios passed: \([0-9]*\) grants checked, \([0-9]*\) packets delivered.*/\1 \2/p' "$TMP/hb.out")
[ -n "$TOTALS" ] || fail "heartbeat run: no 'all 40 scenarios passed' line"
BEAT=$(tail -n 1 "$TMP/hb.err" | python3 -c '
import json, sys
h = json.loads(sys.stdin.read())
assert h["schema"] == "ssq.fuzz.heartbeat.v1", h["schema"]
assert h["scenarios"] == 40, h["scenarios"]
print(h["grants"], h["delivered"])
') || fail "heartbeat: last stderr line is not a final ssq.fuzz.heartbeat.v1 record"
[ "$BEAT" = "$TOTALS" ] \
  || fail "heartbeat says '$BEAT', summary says '$TOTALS' (grants delivered)"
echo "ok: final heartbeat matches the summary: $TOTALS (grants delivered)"
