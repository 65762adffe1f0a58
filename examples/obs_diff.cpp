// obs_diff: the metrics-diff regression gate. Compares a committed baseline
// section against a candidate — a bare obs::MetricsSnapshot dump
// (trace_tool --metrics-out, bench_out/*_metrics.json) or a google-benchmark
// --benchmark_out file — row by row against per-kind relative tolerances,
// prints a pass/fail table and exits non-zero when the candidate regressed.
// Every baseline row must be present in the candidate: a missing row fails.
//
//   $ ./obs_diff --section comm_metrics --counter-tol 0.02 base.json new.json
//
// Exit codes: 0 = within tolerance, 1 = regression(s), 2 = usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

using rups::util::JsonValue;

namespace {

struct Options {
  std::string section;          // dotted path to the metrics object
  double counter_tol = 0.25;    // two-sided relative
  double gauge_tol = 0.25;      // two-sided, relative with abs floor 1.0
  double bench_tol = 0.50;      // one-sided on benchmark cpu times
  double series_tol = 0.25;     // series columns, per-column mean
  double series_timing_tol = 1.0;  // one-sided, p50/p95/p99 series columns
  bool gauge_one_sided = false;  // only increases beyond gauge_tol fail
};

void print_help() {
  std::printf(
      "usage: obs_diff [flags] <baseline.json> <candidate.json>\n"
      "\n"
      "Compares every row of a baseline (counters, gauges, benchmark cpu\n"
      "times, time-series column means) against the candidate and fails on\n"
      "out-of-tolerance differences or on rows the candidate lacks.\n"
      "Accepted candidates: obs::MetricsSnapshot dumps and google-benchmark\n"
      "--benchmark_out files.\n"
      "\n"
      "flags:\n"
      "  --section PATH      read the metrics object at this dotted path\n"
      "                      when a file has it (e.g. comm_metrics); files\n"
      "                      without the path use the document itself\n"
      "  --counter-tol F     relative tolerance for counters, two-sided\n"
      "                      (default 0.25)\n"
      "  --gauge-tol F       tolerance for gauges: |diff| <= F*max(|base|,1)\n"
      "                      (default 0.25)\n"
      "  --gauge-one-sided   gauges fail only on INCREASES beyond the\n"
      "                      tolerance (for timing-style gauges where\n"
      "                      smaller is better)\n"
      "  --bench-tol F       one-sided tolerance for benchmark cpu-time\n"
      "                      regressions (default 0.5)\n"
      "  --series-tol F      per-column tolerance for time-series sections,\n"
      "                      compared on the column mean (default 0.25)\n"
      "  --series-timing-tol F\n"
      "                      one-sided tolerance for p50/p95/p99 series\n"
      "                      columns (wall-clock quantiles; default 1.0)\n"
      "  --help              this text\n");
}

std::optional<JsonValue> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return JsonValue::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

/// The metrics object inside a document: the --section path when that
/// path exists in this document, else the document itself. The per-file
/// fallback lets a sectioned baseline be diffed against a bare dump.
const JsonValue& metrics_of(const JsonValue& doc, const Options& opt) {
  if (!opt.section.empty()) {
    if (const JsonValue* v = doc.find_path(opt.section)) return *v;
  }
  return doc;
}

using Values = std::map<std::string, double>;

/// name -> value maps for one snapshot section ("counters"/"gauges").
Values scalar_section(const JsonValue& metrics, const char* section) {
  Values out;
  const JsonValue* arr = metrics.find(section);
  if (arr == nullptr || !arr->is_array()) return out;
  for (const JsonValue& entry : arr->as_array()) {
    const JsonValue* name = entry.find("name");
    const JsonValue* value = entry.find("value");
    if (name != nullptr && name->is_string() && value != nullptr &&
        value->is_number()) {
      out[name->as_string()] = value->as_number();
    }
  }
  return out;
}

/// "name#kind" -> mean over the column's windows, from the metrics
/// object's "series" member or from a bare TimeSeriesData dump
/// (trace_tool --series-out). Window boundaries are sim-time-deterministic,
/// so the column mean is the stable scalar to regress on.
Values series_columns(const JsonValue& metrics) {
  Values out;
  const JsonValue* series = metrics.find("series");
  if (series == nullptr && metrics.find("window_end_s") != nullptr) {
    series = &metrics;
  }
  const JsonValue* cols = series != nullptr ? series->find("columns") : nullptr;
  if (cols == nullptr || !cols->is_array()) return out;
  for (const JsonValue& col : cols->as_array()) {
    const JsonValue* values = col.find("values");
    if (values == nullptr || !values->is_array()) continue;
    double sum = 0.0;
    for (const JsonValue& v : values->as_array()) sum += v.as_number();
    const std::size_t n = values->as_array().size();
    out[col.string_or("name", "") + "#" + col.string_or("kind", "")] =
        n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
  return out;
}

/// Benchmark cpu time in ns: committed baselines store cpu_time_ns,
/// google-benchmark stores cpu_time + time_unit.
Values benchmark_times(const JsonValue& metrics) {
  Values out;
  const JsonValue* arr = metrics.find("benchmarks");
  if (arr == nullptr || !arr->is_array()) return out;
  for (const JsonValue& entry : arr->as_array()) {
    const JsonValue* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    double ns = entry.number_or("cpu_time_ns", std::nan(""));
    if (std::isnan(ns)) {
      const double t = entry.number_or("cpu_time", std::nan(""));
      if (std::isnan(t)) continue;
      const std::string unit = entry.string_or("time_unit", "ns");
      double scale = 1.0;
      if (unit == "us") scale = 1e3;
      else if (unit == "ms") scale = 1e6;
      else if (unit == "s") scale = 1e9;
      ns = t * scale;
    }
    out[name->as_string()] = ns;
  }
  return out;
}

/// How one row is judged. one_sided: only candidate > baseline counts.
/// abs_floor: |diff| is allowed tol * max(|base|, 1) (gauges, so near-zero
/// values such as an availability of 0.0 vs 0.01 do not explode the ratio);
/// otherwise the relative change is compared against tol.
struct Rule {
  double tol;
  bool one_sided;
  bool abs_floor = false;
};

class DiffTable {
 public:
  /// Compare every baseline row; a row the candidate lacks fails.
  void compare_all(const char* kind, const Values& base, const Values& cand,
                   const std::function<Rule(const std::string&)>& rule_of) {
    for (const auto& [name, value] : base) {
      const auto it = cand.find(name);
      if (it == cand.end()) {
        std::printf("FAIL  %-9s %-36s %14.6g %14s  missing from candidate\n",
                    kind, name.c_str(), value, "-");
        ++failures_;
        ++compared_;
      } else {
        compare(kind, name, value, it->second, rule_of(name));
      }
    }
  }

  [[nodiscard]] int failures() const noexcept { return failures_; }
  [[nodiscard]] int compared() const noexcept { return compared_; }

 private:
  void compare(const char* kind, const std::string& name, double base,
               double cand, Rule rule) {
    const double diff = cand - base;
    double delta;
    bool fail;
    if (rule.abs_floor) {
      const double allowed = rule.tol * std::max(std::abs(base), 1.0);
      delta = base != 0.0 ? diff / std::abs(base) : diff;
      fail = rule.one_sided ? diff > allowed : std::abs(diff) > allowed;
    } else {
      if (base == 0.0) {
        delta = cand == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
      } else {
        delta = diff / std::abs(base);
      }
      fail = rule.one_sided ? delta > rule.tol : std::abs(delta) > rule.tol;
    }
    ++compared_;
    if (fail) ++failures_;
    // The full table is the point: one glance shows what moved.
    std::printf("%s  %-9s %-36s %14.6g %14.6g %+8.1f%% (tol %.0f%%)\n",
                fail ? "FAIL" : " ok ", kind, name.c_str(), base, cand,
                delta * 100.0, rule.tol * 100.0);
  }

  int failures_ = 0;
  int compared_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const std::map<std::string, double*> value_flags = {
      {"--counter-tol", &opt.counter_tol},
      {"--gauge-tol", &opt.gauge_tol},
      {"--bench-tol", &opt.bench_tol},
      {"--series-tol", &opt.series_tol},
      {"--series-timing-tol", &opt.series_timing_tol},
  };
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = value_flags.find(arg);
    const bool takes_value = flag != value_flags.end() || arg == "--section";
    if (takes_value && i + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
      return 2;
    }
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--section") {
      opt.section = argv[++i];
    } else if (flag != value_flags.end()) {
      *flag->second = std::strtod(argv[++i], nullptr);
    } else if (arg == "--gauge-one-sided") {
      opt.gauge_one_sided = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "error: unknown flag %s (see obs_diff --help)\n",
                   arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "error: expected <baseline.json> <candidate.json> "
                 "(see obs_diff --help)\n");
    return 2;
  }

  const auto baseline = load_json(positional[0]);
  const auto candidate = load_json(positional[1]);
  if (!baseline.has_value() || !candidate.has_value()) return 2;
  if (!opt.section.empty() && baseline->find_path(opt.section) == nullptr &&
      candidate->find_path(opt.section) == nullptr) {
    std::fprintf(stderr, "error: section '%s' not found in either input\n",
                 opt.section.c_str());
    return 2;
  }

  std::printf("obs_diff: %s vs %s\n", positional[0].c_str(),
              positional[1].c_str());

  const JsonValue& base = metrics_of(*baseline, opt);
  const JsonValue& cand = metrics_of(*candidate, opt);
  DiffTable table;
  table.compare_all("counter", scalar_section(base, "counters"),
                    scalar_section(cand, "counters"), [&](const auto&) {
                      return Rule{opt.counter_tol, false};
                    });
  table.compare_all("gauge", scalar_section(base, "gauges"),
                    scalar_section(cand, "gauges"), [&](const auto&) {
                      return Rule{opt.gauge_tol, opt.gauge_one_sided, true};
                    });
  table.compare_all("bench_ns", benchmark_times(base), benchmark_times(cand),
                    [&](const auto&) { return Rule{opt.bench_tol, true}; });
  // Wall-clock quantile columns regress one-sided against the looser timing
  // tolerance; sim-time-deterministic kinds (rate, count, last, staleness)
  // use --series-tol.
  table.compare_all(
      "series", series_columns(base), series_columns(cand),
      [&](const std::string& key) {
        const std::string kind = key.substr(key.rfind('#') + 1);
        const bool timing = kind == "p50" || kind == "p95" || kind == "p99";
        return timing ? Rule{opt.series_timing_tol, true}
                      : Rule{opt.series_tol, false};
      });

  if (table.compared() == 0) {
    std::fprintf(stderr,
                 "error: nothing to compare (no baseline rows — wrong "
                 "--section or input shape?)\n");
    return 2;
  }
  std::printf("obs_diff: %d compared, %d regression(s) -> %s\n",
              table.compared(), table.failures(),
              table.failures() == 0 ? "PASS" : "FAIL");
  return table.failures() == 0 ? 0 : 1;
}
