#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rups::util {
class CsvWriter;
}

namespace rups::obs {

/// Point-in-time samples of the metrics registry. Plain data, safe to
/// embed in public result structs (e.g. sim::CampaignResult).
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;

  friend bool operator==(const CounterSample&, const CounterSample&) = default;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;

  friend bool operator==(const GaugeSample&, const GaugeSample&) = default;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
  /// Upper bounds of the first bounds.size() buckets; the last bucket is
  /// unbounded, so buckets.size() == bounds.size() + 1.
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  friend bool operator==(const HistogramSample&,
                         const HistogramSample&) = default;
};

/// Prometheus-style quantile estimate from a histogram sample: finds the
/// bucket containing rank q*count and linearly interpolates within its
/// inclusive [lower, upper] edge range. q is clamped to [0, 1]; an empty
/// histogram yields 0. The result is clamped to the recorded [min, max],
/// which also resolves the unbounded +Inf bucket to the observed max.
[[nodiscard]] double histogram_quantile(const HistogramSample& h, double q);

/// A deterministic (name-sorted) snapshot of every metric in a registry.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Serialize to a stable, human-diffable JSON document.
  [[nodiscard]] std::string to_json() const;

  /// Parse a document produced by to_json(), read through
  /// util::JsonValue. Throws std::runtime_error on malformed JSON, an
  /// unknown section or field, a value of the wrong kind or a negative
  /// count.
  [[nodiscard]] static MetricsSnapshot from_json(const std::string& text);

  /// Flat name,kind,value rows (histograms expand to count/sum/min/max and
  /// one row per bucket) — plot-ready via util::CsvWriter.
  void write_csv(util::CsvWriter& out) const;

  /// Lookup helpers (nullptr when absent).
  [[nodiscard]] const CounterSample* counter(const std::string& name) const;
  [[nodiscard]] const GaugeSample* gauge(const std::string& name) const;
  [[nodiscard]] const HistogramSample* histogram(const std::string& name) const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

}  // namespace rups::obs
