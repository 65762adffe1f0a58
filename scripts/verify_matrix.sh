#!/usr/bin/env bash
# Build-and-test matrix for the two non-default configurations:
#
#  1. obs-disabled — RUPS_OBS_DISABLED=ON compiles rups::obs to no-ops
#     behind the same headers. Full ctest must pass (recorder/health
#     instrumentation statements evaluate nothing; the bench regression
#     gate is excluded by CMake in this config).
#  2. asan-ubsan  — Address + UB sanitizers over the observability test
#     binaries (sharded atomics, labeled-family churn under the shared
#     lock, windowed series collection, cross-thread span/flow parenting,
#     recorder ring concurrency, JSON parser),
#     the codec fuzz tests (decoder fed random/truncated/bit-flipped
#     buffers must fail by exception, never by out-of-bounds reads),
#     the lag-batched kernel bit-identity tests (overlapped tail blocks
#     and strided lanes are exactly the kind of indexing asan vets),
#     the SYN seek suites (the one seek core's pass wiring, the
#     SubsetPack fallback's index arithmetic, pack reuse and the
#     engine's query path),
#     the quantized-kernel differential suite and its pack-builder fuzz
#     (random/NaN/±inf/out-of-range dBm through one-shot builds and
#     eviction-heavy sync cycles must clamp or mask, never UB — the
#     byte-staggered integer lag passes are prime asan territory),
#     the fault-injection suites (FaultyChannel truncation/bit-flip paths
#     and the salvage decoder index arithmetic), the ops-plane surfaces
#     (sampling profiler seqlock reads, Prometheus exporter socket loop,
#     shutdown ordering), plus a small end-to-end campaign smoke.
#     Allocation accounting auto-disables under ASAN (the sanitizer owns
#     malloc; interposing operator new would bypass redzone poisoning) —
#     alloc.cpp logs the reason once and test_alloc GTEST_SKIPs its
#     accounting assertions in this lane. The sharded matcher service
#     suites (arena slot recycling, ticket-table indexing, bounded-ring
#     queue arithmetic) run here too, as do the fleet and streaming
#     tracking suites (V2V rigs sit by value in a growing vector and
#     borrow their link and channel pointers).
#  3. tsan — ThreadSanitizer over the shard-concurrency suite, the
#     thread-pool tests and the pooled streaming-determinism suite:
#     pooled drains slice shards (and streaming updates slice
#     neighbours) across workers every round, so any cross-shard or
#     cross-neighbour sharing that is not actually private (arena
#     slots, ticket table, metric handles, queue internals) surfaces
#     as a data race.
#
# Usage: scripts/verify_matrix.sh [jobs]   (default: 2)
set -eu

jobs="${1:-2}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

echo "== obs-disabled: configure + build + ctest =="
cmake --preset obs-disabled
cmake --build --preset obs-disabled -j"$jobs"
ctest --preset obs-disabled -j"$jobs"

echo ""
echo "== asan-ubsan: configure + build obs/json/campaign surfaces =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$jobs" --target \
  test_obs test_obs_disabled test_obs_recorder test_obs_health \
  test_obs_family test_obs_series test_obs_spans \
  test_obs_pipeline test_json test_codec_fuzz test_packed_batch \
  test_syn_seeker test_packed_windows test_engine \
  test_quant_kernel test_quant_fuzz \
  test_wsm_faults test_exchange_degraded \
  test_profiler test_alloc test_expo test_ops_shutdown \
  test_service test_service_concurrency \
  test_service_churn test_stream_recovery test_stream_determinism \
  test_packed_stream test_fleet_sim test_stream_tracking \
  trace_tool rups_exporterd

echo ""
echo "== asan-ubsan: run sanitized binaries =="
# test_alloc self-skips here: alloc accounting is compiled out under ASAN
# (with a logged reason), and the test asserts the inert surface instead.
for bin in test_obs test_obs_disabled test_obs_recorder test_obs_health \
           test_obs_family test_obs_series test_obs_spans \
           test_obs_pipeline test_json test_codec_fuzz test_packed_batch \
           test_syn_seeker test_packed_windows test_engine \
           test_quant_kernel test_quant_fuzz \
           test_wsm_faults test_exchange_degraded \
           test_profiler test_alloc test_expo test_ops_shutdown \
           test_service test_service_concurrency \
           test_service_churn test_stream_recovery test_stream_determinism \
           test_packed_stream test_fleet_sim test_stream_tracking; do
  echo "-- $bin"
  "build-asan/tests/$bin"
done

echo "-- trace_tool campaign smoke"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
build-asan/examples/trace_tool campaign 5 \
  --metrics-out "$smoke_dir/metrics.json" \
  --trace-out "$smoke_dir/trace.json" \
  --series-out "$smoke_dir/series.json" \
  --profile-out "$smoke_dir/profile.folded"
test -s "$smoke_dir/metrics.json"
test -s "$smoke_dir/trace.json"
test -s "$smoke_dir/series.json"
test -e "$smoke_dir/profile.folded"

echo "-- rups_exporterd selfcheck (live scrape under sanitizers)"
build-asan/examples/rups_exporterd --selfcheck

echo ""
echo "== tsan: configure + build shard-concurrency surfaces =="
cmake --preset tsan
cmake --build --preset tsan -j"$jobs" --target \
  test_service_concurrency test_thread_pool test_stream_determinism

echo ""
echo "== tsan: run sanitized binaries =="
for bin in test_thread_pool test_service_concurrency \
           test_stream_determinism; do
  echo "-- $bin"
  "build-tsan/tests/$bin"
done

echo ""
echo "verify matrix: PASS"
