#pragma once

// Lock-cheap metrics for the RUPS pipeline: counters (per-thread sharded
// atomics), gauges, and fixed-bucket histograms, owned by a Registry that
// can snapshot everything into an obs::MetricsSnapshot.
//
// Usage at an instrumentation site (handles are resolved once, increments
// are wait-free relaxed atomics):
//
//   static obs::Counter& evals =
//       obs::Registry::global().counter("gsm.field_evals");
//   evals.inc();

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/snapshot.hpp"

namespace rups::obs {

/// Default histogram bucketing for microsecond latencies: 1 us .. ~8.4 s in
/// x2 steps.
[[nodiscard]] std::vector<double> exponential_bounds(double start,
                                                     double factor,
                                                     std::size_t count);
[[nodiscard]] std::vector<double> default_latency_bounds_us();

/// Snapshot name of one labeled-family cell: `family{key="value"}`
/// (Prometheus text-format style; tooling splits on the first '{').
[[nodiscard]] std::string family_cell_name(std::string_view family,
                                           std::string_view label_key,
                                           std::string_view label_value);
/// Decimal label value for integer-keyed cells (neighbour ids etc.).
[[nodiscard]] std::string label_of(std::uint64_t id);

/// Default per-family cardinality cap. Labels are meant to be small bounded
/// sets (outcome, stage, neighbour id); the cap bounds memory when one
/// turns out not to be.
inline constexpr std::size_t kDefaultMaxCells = 64;
/// Label value of the shared overflow cell past the cardinality cap.
inline constexpr const char* kOverflowLabel = "__overflow__";
/// Registry counter tallying label values routed into overflow cells.
inline constexpr const char* kLabelsDroppedCounter = "obs.labels.dropped";

namespace detail {
inline constexpr std::size_t kCounterShards = 8;
/// Stable per-thread shard slot, handed out round-robin on each thread's
/// first call: kCounterShards threads that first count one after another
/// write distinct shards.
[[nodiscard]] std::size_t shard_index() noexcept;
}  // namespace detail

/// Monotonic event counter. inc() is wait-free: one relaxed fetch_add on a
/// cache-line-private shard, so concurrent writers do not contend.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[detail::kCounterShards];
};

/// Last-write-wins instantaneous value (plus relaxed add()).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bounds are upper edges, the final bucket is
/// unbounded. record() is lock-free (atomic bucket increment + atomic
/// sum/min/max); concurrent snapshots are approximate but never torn per
/// field.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] HistogramSample sample(std::string name) const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Bounded labeled family of metrics: one `Metric` cell per distinct value
/// of a single label key, snapshot as `name{key="value"}`. Looking up an
/// existing cell is a shared-lock map find; creating one takes the
/// exclusive lock once per new label. The returned reference is stable for
/// the registry's lifetime, so hot sites may cache per-label handles and
/// keep the existing sharded-atomic fast path.
///
/// Cardinality is hard-capped: once `max_cells` distinct labels exist,
/// every call with a NEW label routes to one shared `__overflow__` cell
/// and counts into the registry-wide `obs.labels.dropped` counter (one
/// count per routed call — the drop rate stays visible, memory stays
/// bounded).
template <typename Metric>
class MetricFamily {
 public:
  MetricFamily(std::string name, std::string label_key,
               std::size_t max_cells, Counter* dropped,
               std::vector<double> bounds = {})
      : name_(std::move(name)),
        label_key_(std::move(label_key)),
        max_cells_(max_cells == 0 ? 1 : max_cells),
        dropped_(dropped),
        bounds_(std::move(bounds)) {}
  MetricFamily(const MetricFamily&) = delete;
  MetricFamily& operator=(const MetricFamily&) = delete;

  [[nodiscard]] Metric& with(std::string_view label_value) {
    {
      std::shared_lock lock(mutex_);
      if (auto it = cells_.find(label_value); it != cells_.end()) {
        return *it->second;
      }
    }
    std::unique_lock lock(mutex_);
    if (auto it = cells_.find(label_value); it != cells_.end()) {
      return *it->second;
    }
    if (cells_.size() >= max_cells_ &&
        label_value != std::string_view(kOverflowLabel)) {
      if (dropped_ != nullptr) dropped_->inc();
      lock.unlock();
      return with(kOverflowLabel);
    }
    auto it =
        cells_.emplace(std::string(label_value), make_cell()).first;
    return *it->second;
  }
  [[nodiscard]] Metric& with(std::uint64_t id) { return with(label_of(id)); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& label_key() const noexcept {
    return label_key_;
  }
  [[nodiscard]] std::size_t max_cells() const noexcept { return max_cells_; }
  [[nodiscard]] std::size_t cells() const {
    std::shared_lock lock(mutex_);
    return cells_.size();
  }

  /// Append one sample per cell (used by Registry::snapshot under its own
  /// lock; families never call back into the registry).
  void snapshot_into(MetricsSnapshot& snap) const {
    std::shared_lock lock(mutex_);
    for (const auto& [value, cell] : cells_) {
      std::string cell_name = family_cell_name(name_, label_key_, value);
      if constexpr (std::is_same_v<Metric, Counter>) {
        snap.counters.push_back({std::move(cell_name), cell->value()});
      } else if constexpr (std::is_same_v<Metric, Gauge>) {
        snap.gauges.push_back({std::move(cell_name), cell->value()});
      } else {
        snap.histograms.push_back(cell->sample(std::move(cell_name)));
      }
    }
  }

  void reset() {
    std::shared_lock lock(mutex_);
    for (auto& [value, cell] : cells_) cell->reset();
  }

 private:
  [[nodiscard]] std::unique_ptr<Metric> make_cell() const {
    if constexpr (std::is_same_v<Metric, Histogram>) {
      return std::make_unique<Histogram>(
          bounds_.empty() ? default_latency_bounds_us() : bounds_);
    } else {
      return std::make_unique<Metric>();
    }
  }

  std::string name_;
  std::string label_key_;
  std::size_t max_cells_;
  Counter* dropped_;
  std::vector<double> bounds_;
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Metric>, std::less<>> cells_;
};

using CounterFamily = MetricFamily<Counter>;
using GaugeFamily = MetricFamily<Gauge>;
using HistogramFamily = MetricFamily<Histogram>;

/// Owner and namespace of all metrics. Lookup/creation takes a mutex once
/// per instrumentation site (cache the returned reference); the handles
/// themselves are stable for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry used by the built-in instrumentation.
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Bounds are fixed on first creation; later calls with the same name
  /// return the existing histogram regardless of `bounds`.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> bounds = {});

  /// Labeled families; like the flat handles, `label_key` / `max_cells` /
  /// `bounds` are fixed on first creation.
  [[nodiscard]] CounterFamily& counter_family(
      std::string_view name, std::string_view label_key,
      std::size_t max_cells = kDefaultMaxCells);
  [[nodiscard]] GaugeFamily& gauge_family(
      std::string_view name, std::string_view label_key,
      std::size_t max_cells = kDefaultMaxCells);
  [[nodiscard]] HistogramFamily& histogram_family(
      std::string_view name, std::string_view label_key,
      std::vector<double> bounds = {},
      std::size_t max_cells = kDefaultMaxCells);

  /// Deterministic (name-sorted) copy of every metric, family cells
  /// included.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every metric (registration survives; handles stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<CounterFamily>, std::less<>>
      counter_families_;
  std::map<std::string, std::unique_ptr<GaugeFamily>, std::less<>>
      gauge_families_;
  std::map<std::string, std::unique_ptr<HistogramFamily>, std::less<>>
      histogram_families_;
};

}  // namespace rups::obs
