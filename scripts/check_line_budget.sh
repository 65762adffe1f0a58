#!/usr/bin/env bash
# Line-budget ratchet: the .cpp/.hpp lines under src/ and tests/ must not
# exceed the ceiling committed below. It tracks code size the way
# BENCH_alloc_baseline.json tracks steady-state allocations: a change that
# deletes code lowers CEILING to its new count in the same commit, and a
# change that has to grow the code raises it and says why.
#
#   scripts/check_line_budget.sh <repo-root>
set -euo pipefail

readonly CEILING=30529

root="${1:?usage: check_line_budget.sh <repo-root>}"
count=$(find "$root/src" "$root/tests" -type f \
          \( -name '*.cpp' -o -name '*.hpp' \) -exec cat {} + | wc -l)
slack=$((CEILING - count))
echo "line budget: ${count} .cpp/.hpp lines in src/ + tests/," \
     "ceiling ${CEILING}, slack ${slack}"
if (( count > CEILING )); then
  echo "FAIL: ${count} lines exceed the ceiling by $((-slack))" >&2
  exit 1
fi
