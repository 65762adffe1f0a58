#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "workloads.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double total(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

bool same_estimate(const Estimate& a, const Estimate& b) noexcept {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return std::memcmp(&a->distance_m, &b->distance_m, sizeof(double)) == 0 &&
         std::memcmp(&a->confidence, &b->confidence, sizeof(double)) == 0 &&
         a->syn_count == b->syn_count;
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(const Estimate& e) noexcept {
  add(std::uint64_t{e.has_value() ? 1u : 0u});
  if (!e.has_value()) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &e->distance_m, sizeof bits);
  add(bits);
  std::memcpy(&bits, &e->confidence, sizeof bits);
  add(bits);
  add(static_cast<std::uint64_t>(e->syn_count));
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"latency_p50_ms", "ms"},  {"latency_p95_ms", "ms"},
      {"throughput_per_s", "1/s"}, {"mem_mb", "MB"},
      {"setup_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.ingest.busy_ms", "ms"},
      {"core.ingest.us_per_metre", "us"},
      {"core.pack.sync_us_p50", "us"},
      {"core.pack.sync_us_p95", "us"},
      {"core.seek.full_us_p50", "us"},
      {"core.seek.full_us_p95", "us"},
      {"core.seek.full_searches", "count"},
      {"core.seek.windows_scanned", "count"},
      {"core.seek.ns_per_window", "ns"},
      {"core.cache.queries", "count"},
      {"core.cache.track_hits", "count"},
      {"core.cache.track_misses", "count"},
      {"core.cache.hit_ratio", "ratio"},
      {"core.cache.track_us_p50", "us"},
      {"core.cache.miss_us_p50", "us"},
      {"core.resolve.us_p50", "us"},
      {"core.fleet.batch_us_p50", "us"},
      {"core.fleet.batch_us_p95", "us"},
      {"v2v.exchange_us_p50", "us"},
      {"v2v.exchange_us_p95", "us"},
      {"v2v.bytes", "bytes"},
      {"v2v.packets", "count"},
      {"v2v.arq_rounds", "count"},
      {"v2v.degraded", "count"},
      {"v2v.failed", "count"},
      {"v2v.codec_encode_us_p50", "us"},
      {"v2v.codec_decode_us_p50", "us"},
      {"stream.beacon_us_p50", "us"},
      {"stream.beacon_us_p95", "us"},
      {"stream.estimate_us_p50", "us"},
      {"stream.estimate_us_p95", "us"},
      {"stream.diffs", "count"},
      {"stream.no_news", "count"},
      {"stream.rerequests", "count"},
      {"stream.resyncs", "count"},
      {"service.observe_ms_p50", "ms"},
      {"service.submit_us_p50", "us"},
      {"service.drain_ms_p50", "ms"},
      {"service.drain_ms_p95", "ms"},
      {"service.stream_drain_ms_p50", "ms"},
      {"service.admission_rejected", "count"},
      {"service.shard_skew", "ratio"},
      {"service.parallel_efficiency", "ratio"},
      {"service.round_lateness_ms_p95", "ms"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"rde_p50_m", "m"},
      {"rde_p95_m", "m"},
      {"availability", "ratio"},
      {"bytes_per_estimate", "bytes"},
  };
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::vector<MetricSpec>& specs,
                            const std::string& name) {
  for (const MetricSpec& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Round-trip decimal form of a double (JSON has no inf/NaN: those print
/// as 0 and fail the run's finiteness check instead).
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The `keep` smallest of `values`, ascending.
std::vector<double> fastest(std::vector<double> values, std::size_t keep) {
  keep = std::min(keep, values.size());
  std::partial_sort(values.begin(), values.begin() + keep, values.end());
  values.resize(keep);
  return values;
}

}  // namespace

void Report::metric(const std::string& name, double v) {
  const auto& own = trace_ ? per_layer_metrics() : end_to_end_metrics();
  if (find_spec(own, name) != nullptr) {
    values_.emplace_back(name, v);
    check(std::isfinite(v), name + " is finite");
    return;
  }
  const auto& other = trace_ ? end_to_end_metrics() : per_layer_metrics();
  const MetricSpec* spec = find_spec(other, name);
  value(name, v, spec != nullptr ? spec->unit : "");
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::printf("# CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

void Report::line(const std::string& text) const {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

void Report::value(const std::string& name, double v,
                   const std::string& unit) const {
  std::printf("# %s = %s %s\n", name.c_str(), number(v).c_str(), unit.c_str());
  std::fflush(stdout);
}

void Report::print_result() const {
  const auto& specs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{\"correct\": ";
  json += failures_.empty() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double v = 0.0;
    for (const auto& [name, value] : values_) {
      if (name == specs[i].name) v = value;
    }
    if (i > 0) json += ", ";
    json += "\"" + std::string(specs[i].name) + "\": {\"value\": " + number(v) +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  for (const std::string& f : failures_) {
    std::printf("# failed check: %s\n", f.c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void report_end_to_end(Report& report, const std::vector<PassTimes>& passes) {
  const std::size_t keep = std::max<std::size_t>(4, (passes.size() + 9) / 10);
  const std::size_t samples = passes.front().latency_s.size();
  bool aligned = true;
  std::vector<double> all_ms, setup_s, busy_s;
  for (const PassTimes& p : passes) {
    aligned = aligned && p.latency_s.size() == samples &&
              p.estimates == passes.front().estimates;
    for (double s : p.latency_s) all_ms.push_back(s * 1e3);
    setup_s.push_back(p.setup_s);
    busy_s.push_back(p.busy_s);
  }
  report.check(aligned, "every pass yields the same samples and estimates");
  if (!aligned) return;

  // Latency sample i is the same operation in every pass: pool its fastest
  // repeats.
  std::vector<double> latency_ms;
  std::vector<double> repeats(passes.size());
  for (std::size_t i = 0; i < samples; ++i) {
    for (std::size_t k = 0; k < passes.size(); ++k) {
      repeats[k] = passes[k].latency_s[i] * 1e3;
    }
    const std::vector<double> best = fastest(repeats, keep);
    latency_ms.insert(latency_ms.end(), best.begin(), best.end());
  }
  const std::vector<double> best_busy_s = fastest(busy_s, keep);
  const std::vector<double> best_setup_s = fastest(setup_s, keep);

  char text[160];
  std::snprintf(text, sizeof text,
                "end-to-end figures pool the fastest %zu of %zu repeats "
                "(%zu latency samples a pass, %zu pooled)",
                best_busy_s.size(), passes.size(), samples, latency_ms.size());
  report.line(text);
  report.line("latency_ms, pooled: " + summary_quantiles(latency_ms));
  report.line("latency_ms, all passes: " + summary_quantiles(all_ms));
  std::vector<double> all_setup_ms;
  for (double s : setup_s) all_setup_ms.push_back(s * 1e3);
  report.line("setup_ms, all passes: " + summary_quantiles(all_setup_ms));
  report.metric("setup_s", median(best_setup_s));
  report.metric("latency_p50_ms", quantile(latency_ms, 0.50));
  report.metric("latency_p95_ms", quantile(latency_ms, 0.95));
  const double best_busy = total(best_busy_s);
  report.metric("throughput_per_s",
                best_busy > 0.0
                    ? static_cast<double>(passes.front().estimates *
                                          best_busy_s.size()) /
                          best_busy
                    : 0.0);
}

void reconcile(Report& report, const char* what, double end_to_end_s,
               const std::vector<std::pair<const char*, double>>& layers_s) {
  std::string text = std::string("reconcile ") + what + ":";
  char part[160];
  double layer_sum = 0.0;
  for (const auto& [name, s] : layers_s) {
    layer_sum += s;
    std::snprintf(part, sizeof part, " %s=%.1fms(%.1f%%)", name, s * 1e3,
                  end_to_end_s > 0.0 ? 100.0 * s / end_to_end_s : 0.0);
    text += part;
  }
  const double residual = end_to_end_s - layer_sum;
  std::snprintf(part, sizeof part,
                " | layer_sum=%.1fms end_to_end=%.1fms unattributed=%.1fms",
                layer_sum * 1e3, end_to_end_s * 1e3, residual * 1e3);
  text += part;
  report.line(text);
  report.metric("trace.unattributed_share",
                end_to_end_s > 0.0 ? residual / end_to_end_s : 0.0);
}

std::string summary_quantiles(const std::vector<double>& v) {
  char text[200];
  std::snprintf(text, sizeof text,
                "p5=%.4g p25=%.4g p50=%.4g p75=%.4g p95=%.4g p99=%.4g (n=%zu)",
                quantile(v, 0.05), quantile(v, 0.25), quantile(v, 0.50),
                quantile(v, 0.75), quantile(v, 0.95), quantile(v, 0.99),
                v.size());
  return text;
}

std::string summary_us(const std::vector<double>& us) {
  if (us.empty()) return "n=0";
  char text[160];
  std::snprintf(text, sizeof text, "p50=%.1f p95=%.1f max=%.1f us (n=%zu)",
                quantile(us, 0.5), quantile(us, 0.95),
                *std::max_element(us.begin(), us.end()), us.size());
  return text;
}

}  // namespace perfbench
