#!/usr/bin/env bash
# Build-and-test matrix: two sanitizer configurations and one warnings
# gate.
#
#  1. asan-ubsan  — Address + UB sanitizers over the observability test
#     binaries (sharded atomics, labeled-family churn under the shared
#     lock, windowed series collection, cross-thread span/flow parenting,
#     recorder ring concurrency, JSON parser),
#     the codec fuzz tests (decoder fed random/truncated/bit-flipped
#     buffers must fail by exception, never by out-of-bounds reads; the
#     encoder fed NaN/±inf readings, headings and times must never
#     convert one to an integer, which UBSan reports) and the V2V suite
#     (codec round trips after eviction, WSM fragment reassembly with
#     missing, duplicate and out-of-order fragments, link timing),
#     the lag-batched kernel bit-identity tests (overlapped tail blocks,
#     sub-block remainders and the usable-row loop's read-range check
#     are exactly the kind of indexing asan vets),
#     the SYN seek suites (the one seek core's pass wiring, the
#     SubsetPack fallback's index arithmetic, SynCache's lock arithmetic
#     on any u64 first metre, pack reuse, the engine's query path and its
#     ingest rejections),
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
#     borrow their link and channel pointers), and so do the channel
#     ranking differential suite (blocked accumulation, nth_element and
#     the emit flags index by channel; the coverage count reads pack
#     columns) and the trajectory identity suite, plus the fleet
#     determinism suite (pack-counted and means-ranked plans side by
#     side).
#  2. tsan — ThreadSanitizer over the service and shard-concurrency
#     suites, the thread-pool tests and the pooled streaming-determinism
#     suite: pooled drains slice shards (and streaming updates slice
#     neighbours) across workers every round, so any cross-shard or
#     cross-neighbour sharing that is not actually private (arena
#     slots, ticket table, metric handles, queue internals) surfaces
#     as a data race. test_service's pooled ShardRouting replay has
#     several shard workers reading the same per-vehicle packs, and
#     test_service_concurrency's shared-ranking replay has them read the
#     same per-vehicle window rankings, as ego and as neighbour, in both
#     drains; only the preparation pass before each drain, itself sliced
#     across the pool with one writer per vehicle, may write either.
#     test_fleet_determinism's pooled batches have every worker read one
#     ego pack and one ego ranking. test_obs has eight live threads take
#     their counter shard slots from one atomic, and test_syn_seeker holds
#     the randomized pruned-versus-plain scan comparison
#     (PrunedScanMatchesFullScan), which also runs in the asan-ubsan lane.
#  3. werror — configures build-werror/ with -DRUPS_WERROR=ON and builds
#     every target (library, tests, benches, examples), so any compiler
#     warning in the default configuration fails the matrix.
#
# Usage: scripts/verify_matrix.sh [jobs]   (default: 2)
set -eu

jobs="${1:-2}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

# Each lane's test binaries, listed once for both the build and the run.
asan_tests=(
  test_obs test_obs_recorder test_obs_health
  test_obs_family test_obs_series test_obs_spans
  test_obs_pipeline test_json test_codec_fuzz test_v2v test_packed_batch
  test_syn_seeker test_packed_windows test_engine
  test_wsm_faults test_exchange_degraded
  test_profiler test_alloc test_expo test_ops_shutdown
  test_service test_service_concurrency
  test_service_churn test_stream_recovery test_stream_determinism
  test_packed_stream test_fleet_sim test_stream_tracking
  test_channel_select test_core_types test_fleet_determinism
)
tsan_tests=(
  test_thread_pool test_service test_service_concurrency
  test_stream_determinism test_fleet_determinism test_obs test_syn_seeker
)

echo "== asan-ubsan: configure + build obs/json/campaign surfaces =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$jobs" --target \
  "${asan_tests[@]}" trace_tool rups_exporterd

echo ""
echo "== asan-ubsan: run sanitized binaries =="
# UBSan prints a report and carries on by default; halting makes any
# report (signed overflow, a non-finite float-to-int conversion) fail
# the lane.
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
# test_alloc self-skips here: alloc accounting is compiled out under ASAN
# (with a logged reason), and the test asserts the inert surface instead.
for bin in "${asan_tests[@]}"; do
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
cmake --build --preset tsan -j"$jobs" --target "${tsan_tests[@]}"

echo ""
echo "== tsan: run sanitized binaries =="
for bin in "${tsan_tests[@]}"; do
  echo "-- $bin"
  "build-tsan/tests/$bin"
done

echo ""
echo "== werror: configure + build every target with warnings as errors =="
cmake -S . -B build-werror -DRUPS_WERROR=ON
cmake --build build-werror -j"$jobs"

echo ""
echo "verify matrix: PASS"
