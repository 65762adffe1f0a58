#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace rups::obs {

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> default_latency_bounds_us() {
  // 1 us .. ~8.4 s in x2 steps: covers per-sample ingest (sub-us..us),
  // SYN seeks (~ms) and whole campaigns.
  return exponential_bounds(1.0, 2.0, 24);
}

std::string family_cell_name(std::string_view family,
                             std::string_view label_key,
                             std::string_view label_value) {
  std::string out;
  out.reserve(family.size() + label_key.size() + label_value.size() + 5);
  out += family;
  out += '{';
  out += label_key;
  out += "=\"";
  out += label_value;
  out += "\"}";
  return out;
}

std::string label_of(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(id));
  return buf;
}

namespace detail {

std::size_t shard_index() noexcept {
  // A hashed thread id can put several live threads on one shard.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return slot;
}

}  // namespace detail

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      min_(0.0),
      max_(0.0) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::record(double value) noexcept {
  // Inclusive upper edges (Prometheus "le"): bucket i counts value <=
  // bounds[i]; lower_bound yields the first bound >= value.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // First record seeds min/max; afterwards classic CAS narrowing.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
    return;
  }
  double cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramSample Histogram::sample(std::string name) const {
  HistogramSample s;
  s.name = std::move(name);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  s.max = s.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  s.bounds = bounds_;
  s.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static dtor order
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = default_latency_bounds_us();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

CounterFamily& Registry::counter_family(std::string_view name,
                                        std::string_view label_key,
                                        std::size_t max_cells) {
  // Resolve the drop counter before taking the registry lock: counter()
  // locks the same mutex.
  Counter& dropped = counter(kLabelsDroppedCounter);
  std::lock_guard lock(mutex_);
  auto it = counter_families_.find(name);
  if (it == counter_families_.end()) {
    it = counter_families_
             .emplace(std::string(name),
                      std::make_unique<CounterFamily>(
                          std::string(name), std::string(label_key),
                          max_cells, &dropped))
             .first;
  }
  return *it->second;
}

GaugeFamily& Registry::gauge_family(std::string_view name,
                                    std::string_view label_key,
                                    std::size_t max_cells) {
  Counter& dropped = counter(kLabelsDroppedCounter);
  std::lock_guard lock(mutex_);
  auto it = gauge_families_.find(name);
  if (it == gauge_families_.end()) {
    it = gauge_families_
             .emplace(std::string(name),
                      std::make_unique<GaugeFamily>(
                          std::string(name), std::string(label_key),
                          max_cells, &dropped))
             .first;
  }
  return *it->second;
}

HistogramFamily& Registry::histogram_family(std::string_view name,
                                            std::string_view label_key,
                                            std::vector<double> bounds,
                                            std::size_t max_cells) {
  Counter& dropped = counter(kLabelsDroppedCounter);
  std::lock_guard lock(mutex_);
  auto it = histogram_families_.find(name);
  if (it == histogram_families_.end()) {
    it = histogram_families_
             .emplace(std::string(name),
                      std::make_unique<HistogramFamily>(
                          std::string(name), std::string(label_key),
                          max_cells, &dropped, std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(h->sample(name));
  }
  for (const auto& [name, f] : counter_families_) f->snapshot_into(snap);
  for (const auto& [name, f] : gauge_families_) f->snapshot_into(snap);
  for (const auto& [name, f] : histogram_families_) f->snapshot_into(snap);
  // Family cells append after the flat metrics, so restore the name-sorted
  // order MetricsSnapshot promises ('{' sorts after alphanumerics, keeping
  // a family's cells right after its own prefix).
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, f] : counter_families_) f->reset();
  for (auto& [name, f] : gauge_families_) f->reset();
  for (auto& [name, f] : histogram_families_) f->reset();
}

}  // namespace rups::obs
