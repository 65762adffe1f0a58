#!/usr/bin/env bash
# Bench regression gate: run nine quick, seeded bench passes and diff each
# pass's output against its section of BENCH_obs_baseline.json with
# obs_diff. The baseline lists exactly the rows the gate compares; a row
# the candidate no longer emits fails its pass.
#
# Why each tolerance:
#  - Counters of fixed-size seeded runs (comm, fleet, kernel sweep shape,
#    fault delivery, telemetry, profile, service, stream) are exact
#    functions of the seeds: 2%, two-sided. Any drift means the
#    byte path, cache, protocol or estimator actually changed.
#  - Gauges from the same seeded runs (per-profile errors, efficiency,
#    admission and queue levels): 5%. The per-stage allocation-census
#    gauges of the profile pass (alloc.count{stage}, alloc.bytes{stage}):
#    10%. fleet's hit-rate and neighbour gauges: 25%.
#  - Timings depend on the host and its load (small containers show
#    +-10-25% noise): compute cpu times and the paper-point ns-per-position
#    gauges of the kernel pass are one-sided at 100%, so only a >2x
#    slowdown fails. The wall-clock series quantile columns
#    (#p50/#p95/#p99) of the telemetry pass are one-sided at 400%.
#  - Not in the baseline at all: histograms, speedup gauges (their floor
#    is kernel_speedup_gate), profiler ticks, wall-clock-fed
#    health.latency_p99_us, health.alerts and log.suppressed, and the
#    per-round allocation totals alloc.round_allocs_* (steady_alloc_gate
#    ratchets those, one-sided, against BENCH_alloc_baseline.json).
#
# To regenerate a section: run its row's command in an empty directory
# with <build-dir>/bench on PATH, then copy into the section the new value
# of every row it lists (series: the column's values; compute: the
# google-benchmark cpu_time in ns). Adding a row to the gate means adding
# it to the section.
#
# Usage: bench_regression.sh <build-dir>
set -eu

if [[ $# -ne 1 ]]; then
  echo "usage: bench_regression.sh <build-dir>" >&2
  exit 2
fi
build=$(realpath "$1")
baseline=$(realpath "$(dirname "$0")/../BENCH_obs_baseline.json")
obs_diff="$build/examples/obs_diff"
work="$build/bench_regression_work"

# name | command (env, bench binary, args) | output file | section | tolerances
passes=(
  "comm|bench_comm_cost|bench_out/comm_cost_metrics.json|comm_metrics|\
--counter-tol 0.02"
  "compute|RUPS_BENCH_SCALE=0.3 bench_compute_cost --benchmark_min_time=0.05 \
--benchmark_out=compute_bench.json --benchmark_out_format=json|\
compute_bench.json|compute_metrics|--bench-tol 1.0"
  "fleet|bench_fleet_scaling|bench_out/fleet_scaling_metrics.json|\
fleet_metrics|--counter-tol 0.02 --gauge-tol 0.25"
  "kernel|RUPS_BENCH_SCALE=0.3 bench_syn_kernel --benchmark_min_time=0.05 \
--benchmark_filter=w:100/k:45|bench_out/syn_kernel_metrics.json|\
kernel_metrics|--counter-tol 0.02 --gauge-tol 1.0 --gauge-one-sided"
  "fault|bench_fault_sweep|bench_out/fault_sweep_metrics.json|fault_metrics|\
--counter-tol 0.02 --gauge-tol 0.05"
  "telemetry|bench_telemetry --report-only|bench_out/telemetry_metrics.json|\
telemetry_metrics|--counter-tol 0.02 --gauge-tol 0.05 --series-tol 0.05 \
--series-timing-tol 4.0"
  "profile|bench_profile --report-only|bench_out/profile_metrics.json|\
profile_metrics|--counter-tol 0.02 --gauge-tol 0.10"
  "service|bench_service_scaling --report-only|\
bench_out/service_scaling_metrics.json|service_metrics|\
--counter-tol 0.02 --gauge-tol 0.05"
  "stream|bench_stream|bench_out/stream_metrics.json|stream_metrics|\
--counter-tol 0.02 --gauge-tol 0.05"
)

failed=""
n=0
for row in "${passes[@]}"; do
  IFS='|' read -r name command output section tolerances <<< "$row"
  n=$((n + 1))
  echo "== pass $n/${#passes[@]}: $name =="
  dir="$work/$name"
  rm -rf "$dir"
  mkdir -p "$dir"
  read -r -a argv <<< "$command"
  read -r -a tols <<< "$tolerances"
  if ! (cd "$dir" && PATH="$build/bench:$PATH" env "${argv[@]}" \
          > "$name.log" 2>&1); then
    echo "FAIL: $command exited non-zero (log: $dir/$name.log)"
    failed="$failed $name"
  elif ! "$obs_diff" --section "$section" "${tols[@]}" \
          "$baseline" "$dir/$output"; then
    failed="$failed $name"
  fi
  echo ""
done

if [[ -n "$failed" ]]; then
  echo "bench regression gate: FAIL (passes:$failed)"
  exit 1
fi
echo "bench regression gate: PASS"
