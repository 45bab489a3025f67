#!/usr/bin/env bash
# Runs an ssq_fuzz command that carries a planted bug and succeeds only if it
# exits 1, ssq_fuzz's "divergence found". Exit 0 means the bug went
# undetected. Any other status is no catch either: 2 is bad usage (say, a
# misspelt --plant name), and a crash or a signal ends with another code.
#
#   usage: scripts/expect_divergence.sh build/tools/ssq_fuzz --plant=BUG ...
set -u
"$@"
rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 (divergence found), got $rc from: $*" >&2
  exit 1
fi
