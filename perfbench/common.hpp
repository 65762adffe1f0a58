#pragma once

// Shared plumbing of the repository benchmark: options, wall clocks,
// sample statistics, the estimate digest, the host block and the result
// line. Every workload prints free-form report lines ("# ...") first and
// exactly one JSON result line last.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/resolver.hpp"
#include "core/types.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall seconds of measurement (passes repeat until they are used up).
  double seconds = 10.0;
  /// false: end-to-end metrics; true: per-layer metrics.
  bool trace = false;
  /// Smoke-test size: every workload shrinks to a fraction of a second.
  bool tiny = false;
};

/// Seconds on the steady clock.
[[nodiscard]] inline double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);
[[nodiscard]] double total(const std::vector<double>& values);

/// Bytes the allocator holds for live objects, over every arena.
[[nodiscard]] double heap_in_use_bytes();

/// Odometer metre one past the newest entry (0 when empty).
[[nodiscard]] inline std::uint64_t end_metre(
    const rups::core::ContextTrajectory& t) noexcept {
  return t.empty() ? 0 : t.first_metre() + t.size();
}

using Estimate = std::optional<rups::core::RelativeDistanceEstimate>;

/// Config-echo name of a kernel precision.
[[nodiscard]] inline const char* precision_name(
    rups::core::KernelPrecision p) noexcept {
  switch (p) {
    case rups::core::KernelPrecision::kFloat32:
      return "float32";
    case rups::core::KernelPrecision::kInt16:
      return "int16";
    case rups::core::KernelPrecision::kInt8:
      return "int8";
  }
  return "unknown";
}

/// Bit-for-bit equality of two estimates.
[[nodiscard]] bool same_estimate(const Estimate& a, const Estimate& b) noexcept;

/// FNV-1a digest over a sequence of estimates (bit patterns, not values):
/// two paths agree exactly iff their digests do.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(const Estimate& e) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

class Report;

/// What one pass contributes to the end-to-end metrics.
struct PassTimes {
  std::vector<double> latency_s;
  double busy_s = 0.0;
  std::size_t estimates = 0;
  double setup_s = 0.0;
};

/// Sets the four timed end-to-end metrics of a run from its passes. The
/// shared host this benchmark was tuned on alternates, for seconds to
/// minutes at a time, between a fast mode and one ~45% slower in
/// memory-bound code (other tenants); a median over all samples then lands
/// in whichever mode held most of the run, and a single descheduled
/// operation lands in the tail. Every pass repeats the same operations, so
/// each timed figure keeps the fastest tenth (at least four) of its
/// repeats: latency percentiles over the pooled fastest repeats of every
/// latency sample, estimates per second over the fastest pass busy times,
/// and the median of the fastest set-up times. Quantiles over every pass
/// are printed. Passes must agree in sample and estimate counts.
void report_end_to_end(Report& report, const std::vector<PassTimes>& passes);

/// The metric names of BENCHMARK.json, with units, in file order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// What one run reports. Metrics not set by a workload print as 0 (a layer
/// the workload does not use).
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Set a metric of the list this run prints (end-to-end or per-layer by
  /// mode); a name from the other list is printed as a report line only.
  void metric(const std::string& name, double value);
  /// A check that fails the run (correct = false) when `ok` is false.
  void check(bool ok, const std::string& what);
  /// One free-form report line, printed immediately.
  void line(const std::string& text) const;
  /// "# name = value unit" report line.
  void value(const std::string& name, double v, const std::string& unit) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The JSON result line (last line of standard output).
  void print_result() const;

 private:
  bool trace_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> failures_;
};

/// CPUs this process may run on.
[[nodiscard]] std::size_t host_cpus();

/// Host block: CPU count, model, compiler, build type, the ISA level the
/// target_clones kernels resolve to, and a spin-loop parallelism probe.
void report_host(const Report& report, std::size_t probe_threads);

/// Yardstick: one SYN search at the paper's point (m = 1000, w = 100,
/// k = 45 of 115 channels) against the paper's ~1.2 ms (Sec. V-A).
void report_paper_point(const Report& report, std::uint64_t seed);

/// "p5 ... p99 (n)" quantile line of a sample, for report lines.
[[nodiscard]] std::string summary_quantiles(const std::vector<double>& v);

/// "p50/p95/max (n)" summary of microsecond samples for report lines.
[[nodiscard]] std::string summary_us(const std::vector<double>& us);

}  // namespace perfbench
