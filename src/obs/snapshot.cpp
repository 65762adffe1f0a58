#include "obs/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace rups::obs {

namespace {

/// A gauge or histogram value: round-trips exactly through from_json, and
/// NaN (never in a snapshot) prints as 0.
std::string num(double v) { return std::isnan(v) ? "0" : util::json_number(v); }

void append_escaped(std::string& out, const std::string& s) {
  out += util::json_quote(s);
}

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("MetricsSnapshot::from_json: " + what);
}

std::uint64_t count_of(const util::JsonValue& v) {
  const double d = v.as_number();
  if (d < 0) reject("negative count");
  return static_cast<std::uint64_t>(d);
}

}  // namespace

double histogram_quantile(const HistogramSample& h, double q) {
  if (h.count == 0 || h.buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(h.count);

  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    cumulative += h.buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;

    // The unbounded final bucket has no upper edge; the observed max is
    // the tightest honest answer there.
    if (i >= h.bounds.size()) return h.max;

    const double upper = h.bounds[i];
    const double lower = i == 0 ? std::min(h.min, upper) : h.bounds[i - 1];
    const std::uint64_t in_bucket = h.buckets[i];
    double value = upper;
    if (in_bucket > 0) {
      const double below =
          static_cast<double>(cumulative) - static_cast<double>(in_bucket);
      const double frac = (rank - below) / static_cast<double>(in_bucket);
      value = lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    return std::clamp(value, h.min, h.max);
  }
  return h.max;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out += "{\n  \"counters\": [";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_escaped(out, counters[i].name);
    out += ", \"value\": " + std::to_string(counters[i].value) + "}";
  }
  out += counters.empty() ? "],\n" : "\n  ],\n";
  out += "  \"gauges\": [";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_escaped(out, gauges[i].name);
    out += ", \"value\": " + num(gauges[i].value) + "}";
  }
  out += gauges.empty() ? "],\n" : "\n  ],\n";
  out += "  \"histograms\": [";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_escaped(out, h.name);
    out += ", \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + num(h.sum);
    out += ", \"min\": " + num(h.min);
    out += ", \"max\": " + num(h.max);
    out += ", \"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ", ";
      out += num(h.bounds[b]);
    }
    out += "], \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  out += histograms.empty() ? "]\n}" : "\n  ]\n}";
  return out;
}

MetricsSnapshot MetricsSnapshot::from_json(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  MetricsSnapshot snap;
  for (const auto& [section, rows] : doc.as_object()) {
    if (section == "counters") {
      for (const util::JsonValue& row : rows.as_array()) {
        CounterSample& c = snap.counters.emplace_back();
        for (const auto& [key, v] : row.as_object()) {
          if (key == "name") {
            c.name = v.as_string();
          } else if (key == "value") {
            c.value = count_of(v);
          } else {
            reject("unknown counter field '" + key + "'");
          }
        }
      }
    } else if (section == "gauges") {
      for (const util::JsonValue& row : rows.as_array()) {
        GaugeSample& g = snap.gauges.emplace_back();
        for (const auto& [key, v] : row.as_object()) {
          if (key == "name") {
            g.name = v.as_string();
          } else if (key == "value") {
            g.value = v.as_number();
          } else {
            reject("unknown gauge field '" + key + "'");
          }
        }
      }
    } else if (section == "histograms") {
      for (const util::JsonValue& row : rows.as_array()) {
        HistogramSample& h = snap.histograms.emplace_back();
        for (const auto& [key, v] : row.as_object()) {
          if (key == "name") {
            h.name = v.as_string();
          } else if (key == "count") {
            h.count = count_of(v);
          } else if (key == "sum") {
            h.sum = v.as_number();
          } else if (key == "min") {
            h.min = v.as_number();
          } else if (key == "max") {
            h.max = v.as_number();
          } else if (key == "bounds") {
            for (const util::JsonValue& b : v.as_array()) {
              h.bounds.push_back(b.as_number());
            }
          } else if (key == "buckets") {
            for (const util::JsonValue& b : v.as_array()) {
              h.buckets.push_back(count_of(b));
            }
          } else {
            reject("unknown histogram field '" + key + "'");
          }
        }
      }
    } else {
      reject("unknown section '" + section + "'");
    }
  }
  return snap;
}

void MetricsSnapshot::write_csv(util::CsvWriter& out) const {
  out.row(std::vector<std::string>{"name", "kind", "value"});
  for (const CounterSample& c : counters) {
    out.row(std::vector<std::string>{c.name, "counter",
                                     std::to_string(c.value)});
  }
  for (const GaugeSample& g : gauges) {
    out.row(std::vector<std::string>{g.name, "gauge", num(g.value)});
  }
  for (const HistogramSample& h : histograms) {
    out.row(std::vector<std::string>{h.name + ".count", "histogram",
                                     std::to_string(h.count)});
    out.row(std::vector<std::string>{h.name + ".sum", "histogram", num(h.sum)});
    out.row(std::vector<std::string>{h.name + ".min", "histogram", num(h.min)});
    out.row(std::vector<std::string>{h.name + ".max", "histogram", num(h.max)});
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const std::string le =
          b < h.bounds.size() ? num(h.bounds[b]) : std::string("inf");
      out.row(std::vector<std::string>{h.name + ".le_" + le, "histogram",
                                       std::to_string(h.buckets[b])});
    }
  }
}

const CounterSample* MetricsSnapshot::counter(const std::string& name) const {
  const auto it = std::find_if(
      counters.begin(), counters.end(),
      [&](const CounterSample& c) { return c.name == name; });
  return it == counters.end() ? nullptr : &*it;
}

const GaugeSample* MetricsSnapshot::gauge(const std::string& name) const {
  const auto it =
      std::find_if(gauges.begin(), gauges.end(),
                   [&](const GaugeSample& g) { return g.name == name; });
  return it == gauges.end() ? nullptr : &*it;
}

const HistogramSample* MetricsSnapshot::histogram(
    const std::string& name) const {
  const auto it = std::find_if(
      histograms.begin(), histograms.end(),
      [&](const HistogramSample& h) { return h.name == name; });
  return it == histograms.end() ? nullptr : &*it;
}

}  // namespace rups::obs
