#!/usr/bin/env bash
# CLI contract test for trace_tool and obs_diff:
#  - --help exits 0 and documents the modes/flags,
#  - unknown flags exit 2 and NAME the offending flag,
#  - obs_diff passes on identical inputs and fails (exit 1) on a
#    deliberate 2x slowdown fixture — the regression-gate acceptance case —
#    and on a candidate missing a baseline row.
#
# Usage: test_cli_flags.sh <trace_tool> <obs_diff>
set -u

trace_tool="${1:?usage: test_cli_flags.sh <trace_tool> <obs_diff>}"
obs_diff="${2:?usage: test_cli_flags.sh <trace_tool> <obs_diff>}"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0

check() {
  local desc="$1"
  local want_rc="$2"
  shift 2
  local out rc
  out=$("$@" 2>&1)
  rc=$?
  if [[ $rc -ne $want_rc ]]; then
    echo "FAIL: $desc — expected exit $want_rc, got $rc"
    echo "$out" | head -5
    fail=1
  else
    echo "ok: $desc"
  fi
  last_output="$out"
}

expect_in_output() {
  local desc="$1"
  local needle="$2"
  if [[ "$last_output" != *"$needle"* ]]; then
    echo "FAIL: $desc — output does not mention '$needle'"
    echo "$last_output" | head -5
    fail=1
  else
    echo "ok: $desc"
  fi
}

# ---- trace_tool ----
check "trace_tool --help exits 0" 0 "$trace_tool" --help
expect_in_output "help lists campaign mode" "campaign"
expect_in_output "help lists record mode" "record"
expect_in_output "help lists --metrics-out" "--metrics-out"
expect_in_output "help lists --trace-out" "--trace-out"
expect_in_output "help lists --profile-out" "--profile-out"
expect_in_output "help lists --serve" "--serve"

check "trace_tool unknown flag exits 2" 2 "$trace_tool" demo --frobnicate
expect_in_output "error names the flag" "--frobnicate"

# The kernel has one precision, so --precision is an unknown flag.
check "trace_tool --precision is not a flag (exit 2)" 2 \
  "$trace_tool" demo --precision float32
expect_in_output "error names the flag" "--precision"

check "trace_tool --metrics-out without value exits 2" 2 \
  "$trace_tool" demo --metrics-out
check "trace_tool --profile-out without value exits 2" 2 \
  "$trace_tool" demo --profile-out
check "trace_tool --serve without port exits 2" 2 "$trace_tool" demo --serve
check "trace_tool --serve rejects a bad port (exit 2)" 2 \
  "$trace_tool" demo --serve 70000
expect_in_output "error names the bad port" "70000"

# Functional: a short campaign with the sampling profiler running and the
# /metrics exporter on an ephemeral port must exit clean and leave the
# folded-stack artefact behind (it may be empty if no tick landed in a
# span, so only existence is asserted).
check "trace_tool campaign --profile-out --serve 0 exits 0" 0 \
  "$trace_tool" campaign 3 --profile-out "$work/prof.folded" --serve 0
expect_in_output "announces the exporter endpoint" "serving /metrics"
expect_in_output "reports the profile artefact" "profile written to"
if [[ ! -e "$work/prof.folded" ]]; then
  echo "FAIL: campaign --profile-out did not create prof.folded"
  fail=1
else
  echo "ok: campaign --profile-out created the folded-stack file"
fi

# ---- obs_diff ----
check "obs_diff --help exits 0" 0 "$obs_diff" --help
expect_in_output "help lists --section" "--section"
expect_in_output "help lists --counter-tol" "--counter-tol"
expect_in_output "help lists --bench-tol" "--bench-tol"

check "obs_diff unknown flag exits 2" 2 "$obs_diff" --wibble a.json b.json
expect_in_output "error names the flag" "--wibble"

check "obs_diff without inputs exits 2" 2 "$obs_diff"
check "obs_diff with missing file exits 2" 2 \
  "$obs_diff" "$work/nope.json" "$work/nope2.json"

# Identical snapshots: exit 0.
cat > "$work/base.json" <<'JSON'
{
  "counters": [{"name": "syn.seeks", "value": 100}],
  "gauges": [{"name": "campaign.last_availability", "value": 0.9}],
  "benchmarks": [{"name": "BM_SynSearch", "cpu_time_ns": 1000000.0}]
}
JSON
cp "$work/base.json" "$work/same.json"
check "obs_diff identical inputs exits 0" 0 \
  "$obs_diff" "$work/base.json" "$work/same.json"

# Deliberate 2x slowdown of the timed benchmark: must trip the gate.
cat > "$work/slow.json" <<'JSON'
{
  "counters": [{"name": "syn.seeks", "value": 100}],
  "gauges": [{"name": "campaign.last_availability", "value": 0.9}],
  "benchmarks": [{"name": "BM_SynSearch", "cpu_time_ns": 2000000.0}]
}
JSON
check "obs_diff flags a 2x slowdown (exit 1)" 1 \
  "$obs_diff" "$work/base.json" "$work/slow.json"
expect_in_output "slowdown verdict is FAIL" "FAIL"

# Every baseline row is required: a candidate that lacks one fails.
cat > "$work/missing.json" <<'JSON'
{
  "counters": [{"name": "syn.seeks", "value": 100}],
  "benchmarks": [{"name": "BM_SynSearch", "cpu_time_ns": 1000000.0}]
}
JSON
check "obs_diff fails on a baseline row missing from the candidate (exit 1)" \
  1 "$obs_diff" "$work/base.json" "$work/missing.json"
expect_in_output "the missing row is named" "missing from candidate"

# Row selection lives in the baseline, not in flags.
check "obs_diff removed --skip-histograms is unknown (exit 2)" 2 \
  "$obs_diff" --skip-histograms "$work/base.json" "$work/same.json"
expect_in_output "error names the flag" "--skip-histograms"

# --section falls back per file; a bogus section in both inputs errors.
check "obs_diff bogus --section exits 2" 2 \
  "$obs_diff" --section no_such_section_anywhere \
  "$work/base.json" "$work/same.json"

if [[ $fail -ne 0 ]]; then
  echo "cli flags test: FAIL"
  exit 1
fi
echo "cli flags test: PASS"
exit 0
