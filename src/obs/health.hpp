#pragma once

// Health/SLO monitor: rolling-window gauges plus declarative alert rules
// evaluated in-process, mirroring the paper's evaluation axes (Sec. VI):
// SYN/estimate availability (Fig. 10), estimate-error p95 (Figs. 11–12)
// and per-query latency p99 (Sec. V-A). A violated rule fires once per
// excursion — a FlightRecorder anomaly (which may dump a diagnostics
// bundle) and a RUPS_LOG warning — then re-arms after recovery.
//
// The monitor is feed-based rather than ambient: a driver with ground
// truth (sim::run_campaign, ConvoySimulation::query) reports each query's
// hit/miss, absolute error and latency.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/ring_buffer.hpp"

namespace rups::obs {

/// Alert thresholds. A rule is disabled when its threshold is <= 0 (or 0
/// for the streak rule); no rule fires before `min_samples` queries.
struct HealthConfig {
  std::size_t window = 64;           ///< rolling window (queries)
  std::size_t min_samples = 8;       ///< warm-up before rules evaluate
  double min_availability = 0.25;    ///< alert when hit rate drops below
  double max_error_p95_m = 50.0;     ///< alert when |error| p95 exceeds
  double max_latency_p99_us = 0.0;   ///< alert when latency p99 exceeds
                                     ///< (machine-dependent; off by default)
  std::size_t max_miss_streak = 32;  ///< alert on consecutive misses
  /// V2V delivery rule (fed by on_exchange): alert when the fraction of
  /// exchanges with NO usable trajectory (kFailed) over the rolling window
  /// exceeds this. Degraded-but-usable deliveries do not count as failures.
  double max_delivery_failure_rate = 0.5;
  std::size_t min_exchanges = 8;     ///< warm-up before the delivery rule
  /// Service admission rule (fed by on_admission): alert when the fraction
  /// of requests rejected by admission control (queue full, arena
  /// exhausted) over the rolling window exceeds this.
  double max_admission_reject_rate = 0.5;
  std::size_t min_admissions = 16;   ///< warm-up before the admission rule
};

struct HealthAlert {
  std::string rule;             ///< "availability", "error_p95", ...
  double value = 0.0;           ///< observed value at firing time
  double threshold = 0.0;
  double ts_us = 0.0;           ///< microseconds since process start
  std::uint64_t sample_index = 0;  ///< queries seen when the rule fired

  friend bool operator==(const HealthAlert&, const HealthAlert&) = default;
};

/// Point-in-time health summary. Plain data; the two telemetry-loss fields
/// read the process-wide logger/recorder.
struct HealthReport {
  std::uint64_t samples = 0;      ///< queries observed in total
  double availability = 0.0;      ///< hit rate over the rolling window
  double error_p95_m = 0.0;       ///< |error| p95 over the window (0 = none)
  double latency_p99_us = 0.0;    ///< latency p99 over the window
  std::size_t miss_streak = 0;    ///< current consecutive-miss run
  std::uint64_t exchanges = 0;    ///< V2V exchanges observed in total
  double delivery_failure_rate = 0.0;  ///< kFailed rate over the window
  double degraded_rate = 0.0;     ///< degraded-delivery rate over the window
  std::uint64_t admissions = 0;   ///< admission decisions observed in total
  double admission_reject_rate = 0.0;  ///< reject rate over the window
  /// Telemetry self-loss at report time (process-wide, cumulative): log
  /// lines suppressed by the rate limiter and flight-recorder ring
  /// overwrites. Non-zero means bundles/logs are missing history.
  std::uint64_t log_suppressed = 0;
  std::uint64_t recorder_overwritten = 0;
  std::vector<HealthAlert> alerts;

  [[nodiscard]] bool healthy() const noexcept { return alerts.empty(); }
  [[nodiscard]] std::string to_json() const;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = {});

  /// Observe one query: whether RUPS produced an estimate, its absolute
  /// error versus ground truth when known, and end-to-end latency.
  /// Evaluates every rule; not thread-safe (one driver feeds one monitor).
  void on_query(bool hit, std::optional<double> abs_error_m,
                double latency_us);

  /// Observe one V2V exchange outcome: `usable` when a trajectory (possibly
  /// degraded) reached the receiver, `degraded` when it was partial. The
  /// feed is plain bools so obs stays independent of the v2v layer.
  void on_exchange(bool usable, bool degraded);

  /// Observe one service admission decision: `accepted` when the request
  /// entered a shard queue, false when admission control rejected it. Plain
  /// bool feed so obs stays independent of the service layer.
  void on_admission(bool accepted);

  [[nodiscard]] HealthReport report() const;
  [[nodiscard]] const HealthConfig& config() const noexcept {
    return config_;
  }

 private:
  void evaluate();
  /// `anomaly_label` must be a literal: the recorder retains the pointer.
  void fire(const char* rule, const char* anomaly_label, bool& armed,
            bool violated, double value, double threshold);

  HealthConfig config_;
  util::RingBuffer<unsigned char> hits_;  ///< not bool: vector<bool> proxies
  util::RingBuffer<double> errors_;     ///< only queries with known error
  util::RingBuffer<double> latencies_;
  /// Exchange outcomes: 0 = delivered, 1 = degraded, 2 = failed.
  util::RingBuffer<unsigned char> deliveries_;
  /// Admission outcomes: 1 = accepted, 0 = rejected.
  util::RingBuffer<unsigned char> admitted_;
  std::uint64_t samples_ = 0;
  std::uint64_t exchanges_ = 0;
  std::uint64_t admissions_ = 0;
  std::size_t miss_streak_ = 0;
  std::vector<HealthAlert> alerts_;
  bool armed_availability_ = true;
  bool armed_error_ = true;
  bool armed_latency_ = true;
  bool armed_streak_ = true;
  bool armed_delivery_ = true;
  bool armed_admission_ = true;
};

}  // namespace rups::obs
