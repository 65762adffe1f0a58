#pragma once

// Sampling span-stack profiler.
//
// A background thread wakes on a fixed, seeded cadence and snapshots every
// registered thread's active span stack (obs::sample_span_stacks — the
// PR-6 parent chains: campaign → fleet round → fleet.task → syncache →
// syn.kernel / v2v.arq_round), folding each observed stack into an
// aggregate keyed by "outer;inner;..." — the flamegraph *folded* format.
//
//   obs::SpanProfiler profiler;           // ~1 kHz default cadence
//   profiler.start();
//   ... workload ...
//   profiler.stop();                      // joins the sampler thread
//   std::ofstream("out.folded") << profiler.profile().to_folded();
//
// The folded output loads directly in speedscope.app or flamegraph.pl;
// attribution_table() renders per-stage self/total sample shares for
// terminal reports. Sample cadence is deterministic (seeded jitter
// sequence, steady-clock deadlines), so two runs of the same workload
// produce the same *stage set* even though sample counts vary with
// machine speed.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rups::obs {

/// Aggregated folded-stack profile. Plain data.
struct FoldedProfile {
  struct Row {
    std::string stack;          ///< "outer;inner;..." span names
    std::uint64_t samples = 0;  ///< times this exact stack was observed

    friend bool operator==(const Row&, const Row&) = default;
  };

  std::vector<Row> rows;            ///< sorted by stack
  std::uint64_t total_samples = 0;  ///< sum of row samples
  std::uint64_t ticks = 0;          ///< sampler wakeups (incl. idle ones)

  /// Flamegraph folded format: one "stack count" line per row.
  [[nodiscard]] std::string to_folded() const;

  /// Per-stage attribution: for every span name, `total` counts samples
  /// where the stage appears anywhere in the stack, `self` samples where
  /// it is the innermost frame. Rows sorted by self descending, then name.
  struct Attribution {
    std::string stage;
    std::uint64_t self = 0;
    std::uint64_t total = 0;

    friend bool operator==(const Attribution&, const Attribution&) = default;
  };
  [[nodiscard]] std::vector<Attribution> attribution() const;
  /// The attribution as an aligned text table (header + one row per stage,
  /// with self/total percentages of total_samples).
  [[nodiscard]] std::string attribution_table() const;
};

class SpanProfiler {
 public:
  struct Options {
    double period_us = 997.0;   ///< sample cadence (~1 kHz; off-harmonic)
    double jitter_frac = 0.1;   ///< +- fraction of period per tick
    std::uint64_t seed = 1;     ///< jitter sequence seed (deterministic)
  };

  SpanProfiler() : SpanProfiler(Options{}) {}
  explicit SpanProfiler(Options options);
  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;
  ~SpanProfiler();  ///< stops (joins) if still running

  /// Spawn the sampler thread; no-op when already running.
  void start();
  /// Join the sampler thread; idempotent. After stop() the profile is
  /// final — shutdown ordering is profiler first, then exporters, then
  /// trace sinks (see trace_tool).
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Aggregate of everything sampled so far (safe while running).
  [[nodiscard]] FoldedProfile profile() const;

 private:
  void run();

  Options options_;
  bool running_ = false;
  std::thread thread_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  ///< guarded by mutex_
  std::map<std::string, std::uint64_t> folded_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace rups::obs
