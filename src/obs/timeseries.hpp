#pragma once

// Sim-time windowed telemetry series.
//
// A campaign driver owns a TimeSeriesCollector and feeds it simulation
// time; on each window boundary the collector snapshots the registry and
// turns the delta against the previous snapshot into one columnar window:
//
//   counters   -> "<name>" kind "rate"   (increments per sim-second)
//   gauges     -> "<name>" kind "last"   (value at window close)
//   histograms -> "<name>" kind "count"  (records in the window)
//                 "<name>" kind "p50"/"p95"/"p99" (quantiles of the
//                 window's bucket delta)
//
// plus first-class estimate staleness: for every tracked neighbour, a
// "estimate.staleness_s{neighbour=\"<id>\"}" column of kind "staleness"
// holding the sim-time since that neighbour's last accepted estimate at
// window close. Windows are sim-time (deterministic under fixed seeds),
// not wall-clock; only histogram quantiles of timing metrics carry
// machine-dependent values.
//
// TimeSeriesConfig and TimeSeriesData are plain data, embedded in campaign
// results.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace rups::util {
class CsvWriter;
}

namespace rups::obs {

struct TimeSeriesConfig {
  bool enabled = true;
  double window_s = 30.0;  ///< sim-time window cadence
  /// Collect only metrics whose name starts with one of these prefixes
  /// (empty = every metric). Staleness columns are always collected.
  std::vector<std::string> prefixes;
};

struct SeriesColumn {
  std::string name;  ///< source metric (family cells keep their {key="v"})
  std::string kind;  ///< "rate" | "last" | "count" | "p50" | "p95" | "p99"
                     ///< | "staleness"
  std::vector<double> values;  ///< one entry per window

  friend bool operator==(const SeriesColumn&, const SeriesColumn&) = default;
};

/// The collected windows, columnar. Columns are (name, kind)-sorted and
/// all share windows() entries; metrics that first appear mid-run are
/// zero-backfilled for earlier windows.
struct TimeSeriesData {
  double window_s = 0.0;
  std::vector<double> window_begin_s;
  std::vector<double> window_end_s;
  std::vector<SeriesColumn> columns;

  [[nodiscard]] std::size_t windows() const { return window_end_s.size(); }
  [[nodiscard]] bool empty() const { return window_end_s.empty(); }
  [[nodiscard]] const SeriesColumn* column(const std::string& name,
                                           const std::string& kind) const;

  [[nodiscard]] std::string to_json() const;
  /// Parse a document produced by to_json(); throws std::runtime_error on
  /// malformed input.
  [[nodiscard]] static TimeSeriesData from_json(const std::string& text);
  /// Wide plot-ready CSV: one row per window, one column per series
  /// column (headed "<name>#<kind>").
  void write_csv(util::CsvWriter& out) const;

  friend bool operator==(const TimeSeriesData&,
                         const TimeSeriesData&) = default;
};

/// Quantile of one window's bucket-count delta. Unlike
/// histogram_quantile() there is no per-window min/max to clamp against,
/// so the unbounded last bucket resolves to the largest finite bound.
[[nodiscard]] double window_quantile(const std::vector<double>& bounds,
                                     const std::vector<std::uint64_t>& buckets,
                                     double q);

/// One collector per campaign run. Not thread-safe: the single campaign
/// driver thread calls it between rounds (worker threads only touch
/// metrics, which snapshot atomically).
class TimeSeriesCollector {
 public:
  explicit TimeSeriesCollector(TimeSeriesConfig config = {});

  /// Start collecting: takes the baseline snapshot at sim-time `t`.
  void begin(double sim_time_s);
  /// Register a neighbour for the staleness series. Staleness counts from
  /// begin() until the first accepted estimate.
  void track(std::uint64_t neighbour_id);
  /// Feed: an estimate for `neighbour_id` was accepted at sim-time `t`.
  void note_estimate(std::uint64_t neighbour_id, double sim_time_s);
  /// Advance sim time; closes a window when a boundary was crossed (a
  /// window stretches when the driver observes less often than window_s).
  void observe(double sim_time_s);
  /// Close the final partial window and return everything collected.
  [[nodiscard]] TimeSeriesData finish(double sim_time_s);

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] const TimeSeriesConfig& config() const noexcept {
    return config_;
  }

 private:
  void close_window(double sim_time_s);
  [[nodiscard]] bool selected(const std::string& name) const;
  void set_value(const std::string& name, const char* kind, double value);

  TimeSeriesConfig config_;
  bool active_ = false;
  double begin_s_ = 0.0;
  double window_start_s_ = 0.0;
  MetricsSnapshot prev_;
  std::map<std::uint64_t, double> last_estimate_s_;
  TimeSeriesData data_;
  /// (name, kind) -> index into data_.columns.
  std::map<std::pair<std::string, std::string>, std::size_t> column_index_;
};

}  // namespace rups::obs
