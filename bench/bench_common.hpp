#pragma once

// Shared helpers for the figure-reproduction bench binaries. Each binary
// regenerates one artefact of the paper's evaluation (see DESIGN.md) and
// prints the series plus a paper-vs-measured comparison; the raw series is
// also written to bench_out/<name>.csv for plotting.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/csv.hpp"

namespace rups::bench {

/// Query/sample count scale factor: RUPS_BENCH_SCALE=2 doubles every
/// campaign; 0.25 quarters it for smoke runs. Default 1.
inline double scale() {
  if (const char* env = std::getenv("RUPS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

inline std::size_t scaled(std::size_t n) {
  const double s = scale() * static_cast<double>(n);
  return s < 1.0 ? 1 : static_cast<std::size_t>(s);
}

/// CSV sink under bench_out/.
inline rups::util::CsvWriter csv_out(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return rups::util::CsvWriter(std::filesystem::path("bench_out") /
                               (name + ".csv"));
}

inline void header(const char* figure, const char* title) {
  std::printf("================================================================\n");
  std::printf("RUPS reproduction | %s: %s\n", figure, title);
  std::printf("================================================================\n");
}

inline void paper_vs_measured(const char* what, double paper, double measured,
                              const char* unit) {
  std::printf("  %-46s paper %7.2f %-4s | measured %7.2f %-4s\n", what, paper,
              unit, measured, unit);
}

inline void note(const char* text) { std::printf("  note: %s\n", text); }

/// Dump the global metrics registry as JSON under
/// bench_out/<name>_metrics.json (plus a flat CSV next to it). Returns the
/// JSON path.
inline std::filesystem::path write_metrics_json(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  const auto snap = rups::obs::Registry::global().snapshot();
  const auto json_path =
      std::filesystem::path("bench_out") / (name + "_metrics.json");
  std::ofstream out(json_path);
  out << snap.to_json() << "\n";
  rups::util::CsvWriter csv(std::filesystem::path("bench_out") /
                            (name + "_metrics.csv"));
  snap.write_csv(csv);
  return json_path;
}

/// Per-stage observability breakdown: every counter, gauge and histogram
/// accumulated so far, grouped by name prefix (engine. / syn. / gsm. /
/// v2v. / campaign.). Histograms print count, mean, and the interpolated
/// p50/p95/p99 (obs::histogram_quantile) bracketed by min/max.
inline void print_stage_breakdown() {
  const auto snap = rups::obs::Registry::global().snapshot();
  if (snap.counters.empty() && snap.gauges.empty() &&
      snap.histograms.empty()) {
    std::printf("  (no metrics recorded)\n");
    return;
  }
  std::printf("----------------------------------------------------------------\n");
  std::printf("per-stage observability breakdown (rups::obs)\n");
  std::printf("----------------------------------------------------------------\n");
  for (const auto& c : snap.counters) {
    std::printf("  %-36s %16llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  }
  for (const auto& g : snap.gauges) {
    std::printf("  %-36s %16.4f\n", g.name.c_str(), g.value);
  }
  for (const auto& h : snap.histograms) {
    std::printf(
        "  %-36s n=%-8llu mean=%-10.2f p50=%-10.2f p95=%-10.2f "
        "p99=%-10.2f min=%-8.2f max=%.2f\n",
        h.name.c_str(), static_cast<unsigned long long>(h.count), h.mean(),
        rups::obs::histogram_quantile(h, 0.50),
        rups::obs::histogram_quantile(h, 0.95),
        rups::obs::histogram_quantile(h, 0.99), h.min, h.max);
  }
}

}  // namespace rups::bench
