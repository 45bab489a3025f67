#!/bin/sh
# ssq_fuzz --time-budget without --scenarios runs until the budget ends it,
# not until the default scenario count does: the run must report
# "time budget reached after N scenarios" and then pass those same N.
# The check does not depend on host speed: an unbounded run can only end on
# the budget, however many scenarios fit in it. (A bounded default of 200
# finishes well inside one second in an optimised build, so there the
# budget line would be missing.)
#
# Usage: fuzz_time_budget_test.sh <ssq_fuzz>
set -u

BIN=$1
out=$("$BIN" --time-budget=1 --seed=1)
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: exit $rc, expected 0" >&2
  exit 1
fi
n=$(printf '%s\n' "$out" |
  sed -n 's/^time budget reached after \([0-9][0-9]*\) scenarios$/\1/p')
if [ -z "$n" ]; then
  echo "FAIL: no 'time budget reached after N scenarios' line" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -q "^all $n scenarios passed: "; then
  echo "FAIL: no 'all $n scenarios passed' line after the budget" >&2
  exit 1
fi
echo "time budget reached after $n scenarios"
