#!/bin/sh
# Cross-tool agreement: ssq_fuzz and ssq_campaign run the same work unit
# (docs/CAMPAIGN.md, "Relation to ssq_fuzz"), so a fuzz run and a campaign
# over the grid token each fuzz flag maps to must check the same grants and
# deliver the same packets. Also: a grid point the fuzzer refuses
# (engine=starve) must be refused by the campaign too, as bad usage.
#
# Usage: fuzz_campaign_agree_test.sh <path-to-ssq_fuzz> <path-to-ssq_campaign>
set -eu

FUZZ=$1
CAMP=$2
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ssq_agree.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

# agree NAME GRID FUZZ_FLAGS...: grants/delivered of the fuzz run's final
# line must equal report.json's totals for the campaign over GRID.
agree() {
  name=$1
  grid=$2
  shift 2
  "$FUZZ" --scenarios=30 --seed=3 --quiet "$@" > "$TMP/$name.fuzz" \
    || fail "$name: ssq_fuzz $* exited nonzero"
  fuzz_totals=$(sed -n 's/^all [0-9]* scenarios passed: \([0-9]*\) grants checked, \([0-9]*\) packets delivered.*/\1 \2/p' "$TMP/$name.fuzz")
  [ -n "$fuzz_totals" ] || fail "$name: no summary line from ssq_fuzz"
  "$CAMP" --new="$TMP/$name" --scenarios=30 --seed=3 --shards=3 \
    --grid="$grid" --quiet > /dev/null \
    || fail "$name: ssq_campaign --grid=$grid exited nonzero"
  camp_totals=$(sed -n 's/.*"totals":{"grants":\([0-9]*\),"delivered":\([0-9]*\),.*/\1 \2/p' "$TMP/$name/report.json")
  [ "$fuzz_totals" = "$camp_totals" ] \
    || fail "$name: ssq_fuzz $* gives '$fuzz_totals', ssq_campaign --grid=$grid gives '$camp_totals' (grants delivered)"
  echo "ok: $name: $fuzz_totals (grants delivered)"
}

agree sparse-monitor sparse+monitor --sparse --monitor
agree islip engine=islip --engine=islip

set +e
"$CAMP" --new="$TMP/starve" --scenarios=2 --grid=engine=starve --quiet \
  2> "$TMP/starve.err"
CODE=$?
set -e
[ "$CODE" -eq 2 ] || fail "--grid=engine=starve exited $CODE, expected 2 (bad usage)"
echo "ok: --grid=engine=starve rejected as bad usage"
