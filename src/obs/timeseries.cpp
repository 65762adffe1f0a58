#include "obs/timeseries.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace rups::obs {

using util::json_number;

namespace {

std::string escaped(const std::string& s) { return util::json_quote(s); }

std::string num_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  out += "]";
  return out;
}

std::vector<double> parse_num_array(const util::JsonValue* v,
                                    const char* what) {
  if (v == nullptr || !v->is_array()) {
    throw std::runtime_error(std::string("time series JSON: missing ") +
                             what);
  }
  std::vector<double> out;
  out.reserve(v->as_array().size());
  for (const util::JsonValue& e : v->as_array()) out.push_back(e.as_number());
  return out;
}

}  // namespace

const SeriesColumn* TimeSeriesData::column(const std::string& name,
                                           const std::string& kind) const {
  for (const SeriesColumn& col : columns) {
    if (col.name == name && col.kind == kind) return &col;
  }
  return nullptr;
}

std::string TimeSeriesData::to_json() const {
  std::string out = "{\n";
  out += "  \"kind\": \"rups_time_series\",\n";
  out += "  \"window_s\": " + json_number(window_s) + ",\n";
  out += "  \"window_begin_s\": " + num_array(window_begin_s) + ",\n";
  out += "  \"window_end_s\": " + num_array(window_end_s) + ",\n";
  out += "  \"columns\": [";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const SeriesColumn& col = columns[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + escaped(col.name) +
           ", \"kind\": " + escaped(col.kind) +
           ", \"values\": " + num_array(col.values) + "}";
  }
  out += columns.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

TimeSeriesData TimeSeriesData::from_json(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  if (!doc.is_object()) {
    throw std::runtime_error("time series JSON: not an object");
  }
  TimeSeriesData data;
  data.window_s = doc.number_or("window_s", 0.0);
  data.window_begin_s =
      parse_num_array(doc.find("window_begin_s"), "window_begin_s");
  data.window_end_s = parse_num_array(doc.find("window_end_s"), "window_end_s");
  const util::JsonValue* cols = doc.find("columns");
  if (cols == nullptr || !cols->is_array()) {
    throw std::runtime_error("time series JSON: missing columns");
  }
  for (const util::JsonValue& c : cols->as_array()) {
    SeriesColumn col;
    col.name = c.string_or("name", "");
    col.kind = c.string_or("kind", "");
    col.values = parse_num_array(c.find("values"), "column values");
    if (col.values.size() != data.window_end_s.size()) {
      throw std::runtime_error("time series JSON: column '" + col.name +
                               "' length mismatch");
    }
    data.columns.push_back(std::move(col));
  }
  return data;
}

void TimeSeriesData::write_csv(util::CsvWriter& out) const {
  std::vector<std::string> header{"window_begin_s", "window_end_s"};
  header.reserve(columns.size() + 2);
  for (const SeriesColumn& col : columns) {
    header.push_back(col.name + "#" + col.kind);
  }
  out.row(header);
  for (std::size_t w = 0; w < windows(); ++w) {
    std::vector<double> row{window_begin_s[w], window_end_s[w]};
    row.reserve(columns.size() + 2);
    for (const SeriesColumn& col : columns) row.push_back(col.values[w]);
    out.row(row);
  }
}

double window_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      if (i >= bounds.size()) {
        // Unbounded overflow bucket: the largest finite edge is the best
        // statement the window delta can make.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double frac = (rank - cumulative) / in_bucket;
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

TimeSeriesCollector::TimeSeriesCollector(TimeSeriesConfig config)
    : config_(std::move(config)) {
  if (config_.window_s <= 0.0) config_.window_s = 30.0;
}

void TimeSeriesCollector::begin(double sim_time_s) {
  if (!config_.enabled) return;
  active_ = true;
  window_start_s_ = sim_time_s;
  begin_s_ = sim_time_s;
  for (auto& [id, last] : last_estimate_s_) last = sim_time_s;
  data_ = {};
  data_.window_s = config_.window_s;
  column_index_.clear();
  prev_ = Registry::global().snapshot();
}

void TimeSeriesCollector::track(std::uint64_t neighbour_id) {
  last_estimate_s_.emplace(neighbour_id, begin_s_);
}

void TimeSeriesCollector::note_estimate(std::uint64_t neighbour_id,
                                        double sim_time_s) {
  if (!active_) return;
  last_estimate_s_[neighbour_id] = sim_time_s;
}

void TimeSeriesCollector::observe(double sim_time_s) {
  if (!active_) return;
  Registry::global().counter("obs.series.samples").inc();
  if (sim_time_s - window_start_s_ >= config_.window_s) {
    close_window(sim_time_s);
  }
}

TimeSeriesData TimeSeriesCollector::finish(double sim_time_s) {
  if (!active_) return {};
  close_window(sim_time_s);
  active_ = false;
  column_index_.clear();
  std::sort(data_.columns.begin(), data_.columns.end(),
            [](const SeriesColumn& a, const SeriesColumn& b) {
              return a.name != b.name ? a.name < b.name : a.kind < b.kind;
            });
  TimeSeriesData out = std::move(data_);
  data_ = {};
  return out;
}

void TimeSeriesCollector::close_window(double sim_time_s) {
  const double duration = sim_time_s - window_start_s_;
  if (duration <= 0.0) return;
  Registry& registry = Registry::global();
  registry.counter("obs.series.windows").inc();
  MetricsSnapshot snap = registry.snapshot();
  data_.window_begin_s.push_back(window_start_s_);
  data_.window_end_s.push_back(sim_time_s);

  for (const CounterSample& c : snap.counters) {
    if (!selected(c.name)) continue;
    const CounterSample* p = prev_.counter(c.name);
    const std::uint64_t before = p == nullptr ? 0 : p->value;
    const double delta =
        c.value >= before ? static_cast<double>(c.value - before) : 0.0;
    set_value(c.name, "rate", delta / duration);
  }
  for (const GaugeSample& g : snap.gauges) {
    if (!selected(g.name)) continue;
    set_value(g.name, "last", g.value);
  }
  for (const HistogramSample& h : snap.histograms) {
    if (!selected(h.name)) continue;
    const HistogramSample* p = prev_.histogram(h.name);
    std::vector<std::uint64_t> delta = h.buckets;
    std::uint64_t count = h.count;
    if (p != nullptr && p->buckets.size() == delta.size()) {
      for (std::size_t i = 0; i < delta.size(); ++i) {
        delta[i] -= std::min(delta[i], p->buckets[i]);
      }
      count -= std::min(count, p->count);
    }
    set_value(h.name, "count", static_cast<double>(count));
    set_value(h.name, "p50",
              count == 0 ? 0.0 : window_quantile(h.bounds, delta, 0.50));
    set_value(h.name, "p95",
              count == 0 ? 0.0 : window_quantile(h.bounds, delta, 0.95));
    set_value(h.name, "p99",
              count == 0 ? 0.0 : window_quantile(h.bounds, delta, 0.99));
  }
  for (const auto& [id, last] : last_estimate_s_) {
    set_value(family_cell_name("estimate.staleness_s", "neighbour",
                               label_of(id)),
              "staleness", sim_time_s - last);
  }
  // Columns not touched this window (none today, but a filtered registry
  // reset could cause it) stay rectangular.
  for (SeriesColumn& col : data_.columns) {
    col.values.resize(data_.windows(), 0.0);
  }
  prev_ = std::move(snap);
  window_start_s_ = sim_time_s;
}

bool TimeSeriesCollector::selected(const std::string& name) const {
  if (config_.prefixes.empty()) return true;
  for (const std::string& prefix : config_.prefixes) {
    if (name.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

void TimeSeriesCollector::set_value(const std::string& name, const char* kind,
                                    double value) {
  auto key = std::make_pair(name, std::string(kind));
  auto it = column_index_.find(key);
  if (it == column_index_.end()) {
    SeriesColumn col;
    col.name = name;
    col.kind = kind;
    col.values.assign(data_.windows() - 1, 0.0);  // backfill earlier windows
    it = column_index_.emplace(std::move(key), data_.columns.size()).first;
    data_.columns.push_back(std::move(col));
  }
  SeriesColumn& col = data_.columns[it->second];
  if (col.values.size() < data_.windows()) {
    col.values.resize(data_.windows() - 1, 0.0);
    col.values.push_back(value);
  } else {
    col.values.back() = value;
  }
}

}  // namespace rups::obs
