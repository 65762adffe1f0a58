// telemetry_report: turns the dimensional telemetry of one fleet campaign
// into the operator's view — per-window latency quantiles and delivery
// rates from the sim-time windowed series, plus a per-neighbour breakdown
// (task latency from the fleet.task_us{neighbour=...} histogram family,
// estimate staleness from the first-class staleness series).
//
//   $ ./telemetry_report                       # stock urban-profile fleet run
//   $ ./telemetry_report --vehicles 9 --rounds 80
//   $ ./telemetry_report --series-in run.json  # report a saved series instead
//
// Exit codes: 0 = report produced, 1 = campaign yielded no telemetry,
// 2 = usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/fleet_sim.hpp"
#include "util/csv.hpp"

using namespace rups;

namespace {

struct Options {
  std::size_t vehicles = 5;     // ego + 4 neighbours
  std::size_t rounds = 60;      // beacon rounds after warm-up
  double window_s = 30.0;       // series window cadence
  std::uint64_t seed = 7;
  std::string series_in;        // report a saved series instead of running
  std::string json_out;         // save the collected series
  std::string csv_out;          // save the collected series as wide CSV
};

void print_help() {
  std::printf(
      "usage: telemetry_report [flags]\n"
      "\n"
      "Runs an urban-profile fleet campaign (every exchange crosses the\n"
      "faulty DSRC channel) and prints the windowed telemetry: per-window\n"
      "query-latency p50/p95/p99, delivery-outcome rates, and per-neighbour\n"
      "task latency + estimate staleness.\n"
      "\n"
      "flags:\n"
      "  --vehicles N       convoy size, ego included (default 5, min 2)\n"
      "  --rounds N         beacon rounds after warm-up (default 60)\n"
      "  --window S         series window length in sim-seconds (default 30)\n"
      "  --seed N           scenario seed (default 7)\n"
      "  --series-in FILE   skip the campaign; report a saved series JSON\n"
      "  --json-out FILE    save the collected series JSON\n"
      "  --csv-out FILE     save the collected series as wide CSV\n"
      "  --help             this text\n");
}

/// Series column value or 0 when the column is absent.
double at(const obs::TimeSeriesData& series, const std::string& name,
          const char* kind, std::size_t w) {
  const obs::SeriesColumn* col = series.column(name, kind);
  return col == nullptr ? 0.0 : col->values[w];
}

/// Neighbour ids present in the staleness columns, in label order.
std::vector<std::string> staleness_neighbours(
    const obs::TimeSeriesData& series) {
  const std::string prefix = "estimate.staleness_s{neighbour=\"";
  std::vector<std::string> out;
  for (const obs::SeriesColumn& col : series.columns) {
    if (col.kind != "staleness") continue;
    if (col.name.rfind(prefix, 0) != 0) continue;
    const std::size_t end = col.name.find('"', prefix.size());
    if (end == std::string::npos) continue;
    out.push_back(col.name.substr(prefix.size(), end - prefix.size()));
  }
  return out;
}

void print_windows(const obs::TimeSeriesData& series,
                   const std::string& latency_metric) {
  std::printf("\nper-window (%zu windows of %.0f sim-s):\n", series.windows(),
              series.window_s);
  std::printf("  %-16s %8s %9s %9s %9s %10s %9s %7s\n", "window", "queries",
              "p50_us", "p95_us", "p99_us", "delivered", "degraded", "failed");
  for (std::size_t w = 0; w < series.windows(); ++w) {
    const double dur = series.window_end_s[w] - series.window_begin_s[w];
    char label[32];
    std::snprintf(label, sizeof(label), "[%.0f, %.0f)", series.window_begin_s[w],
                  series.window_end_s[w]);
    std::printf(
        "  %-16s %8.0f %9.0f %9.0f %9.0f %10.2f %9.2f %7.2f\n", label,
        at(series, latency_metric, "count", w),
        at(series, latency_metric, "p50", w),
        at(series, latency_metric, "p95", w),
        at(series, latency_metric, "p99", w),
        at(series, "v2v.delivery_outcome{outcome=\"delivered\"}", "rate", w) *
            dur,
        at(series, "v2v.delivery_outcome{outcome=\"degraded\"}", "rate", w) *
            dur,
        at(series, "v2v.delivery_outcome{outcome=\"failed\"}", "rate", w) *
            dur);
  }
}

void print_neighbours(const obs::TimeSeriesData& series,
                      const obs::MetricsSnapshot& metrics) {
  const auto ids = staleness_neighbours(series);
  if (ids.empty()) return;
  std::printf("\nper-neighbour:\n");
  std::printf("  %-10s %8s %10s %10s %12s %12s\n", "neighbour", "tasks",
              "task_p50", "task_p95", "stale_mean_s", "stale_max_s");
  for (const std::string& id : ids) {
    const std::string col =
        "estimate.staleness_s{neighbour=\"" + id + "\"}";
    double mean = 0.0;
    double max = 0.0;
    if (const obs::SeriesColumn* c = series.column(col, "staleness")) {
      for (double v : c->values) {
        mean += v;
        if (v > max) max = v;
      }
      if (!c->values.empty()) mean /= static_cast<double>(c->values.size());
    }
    const obs::HistogramSample* h =
        metrics.histogram("fleet.task_us{neighbour=\"" + id + "\"}");
    std::printf("  %-10s %8llu %10.0f %10.0f %12.2f %12.2f\n", id.c_str(),
                static_cast<unsigned long long>(h == nullptr ? 0 : h->count),
                h == nullptr ? 0.0 : obs::histogram_quantile(*h, 0.50),
                h == nullptr ? 0.0 : obs::histogram_quantile(*h, 0.95), mean,
                max);
  }
}

void print_delivery_totals(const obs::MetricsSnapshot& metrics) {
  std::printf("\ndelivery totals:\n");
  for (const char* outcome : {"delivered", "degraded", "failed"}) {
    const std::string name =
        std::string("v2v.delivery_outcome{outcome=\"") + outcome + "\"}";
    const obs::CounterSample* c = metrics.counter(name);
    std::printf("  %-10s %10llu\n", outcome,
                static_cast<unsigned long long>(c == nullptr ? 0 : c->value));
  }
}

int report_saved_series(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::TimeSeriesData series;
  try {
    series = obs::TimeSeriesData::from_json(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  if (series.empty()) {
    std::fprintf(stderr, "error: %s holds no windows\n", path.c_str());
    return 1;
  }
  std::printf("telemetry_report: %s (%zu windows, %zu columns)\n",
              path.c_str(), series.windows(), series.columns.size());
  // A saved series may come from either campaign shape; prefer the fleet
  // round histogram and fall back to the two-car query latency.
  const char* latency = series.column("fleetcampaign.round_us", "count")
                            ? "fleetcampaign.round_us"
                            : "campaign.query_latency_us";
  print_windows(series, latency);
  print_neighbours(series, obs::MetricsSnapshot{});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--vehicles") {
      opt.vehicles = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--rounds") {
      opt.rounds = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--window") {
      opt.window_s = std::strtod(value(), nullptr);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--series-in") {
      opt.series_in = value();
    } else if (arg == "--json-out") {
      opt.json_out = value();
    } else if (arg == "--csv-out") {
      opt.csv_out = value();
    } else {
      std::fprintf(stderr,
                   "error: unknown flag %s (see telemetry_report --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!opt.series_in.empty()) return report_saved_series(opt.series_in);
  if (opt.vehicles < 2) {
    std::fprintf(stderr, "error: --vehicles must be at least 2\n");
    return 2;
  }

  // Stock urban profile: the paper's four-lane urban environment with the
  // urban packet-fault mix on every V2V exchange.
  sim::Scenario scenario = sim::Scenario::fleet(
      opt.seed, road::EnvironmentType::kFourLaneUrban, opt.vehicles);
  sim::FleetCampaignConfig cfg;
  cfg.base.max_queries = opt.rounds;
  cfg.base.fault = v2v::FaultConfig::urban();
  cfg.base.series.window_s = opt.window_s;
  sim::FleetSimulation fleet(scenario, cfg);

  std::printf(
      "telemetry_report: %zu vehicles (ego + %zu neighbours), %zu rounds, "
      "urban fault profile, %.0f s windows\n",
      opt.vehicles, opt.vehicles - 1, opt.rounds, opt.window_s);
  const sim::FleetCampaignResult result = sim::run_fleet_campaign(fleet, cfg);

  std::printf("campaign: %zu rounds, availability %.2f, v2v bytes %zu\n",
              result.rounds.size(), result.availability(), result.v2v_bytes);
  if (result.rounds.empty() || result.series.empty()) {
    std::fprintf(stderr,
                 "error: campaign produced no telemetry windows\n");
    return 1;
  }

  print_windows(result.series, "fleetcampaign.round_us");
  print_neighbours(result.series, result.metrics);
  print_delivery_totals(result.metrics);

  if (!opt.json_out.empty()) {
    std::ofstream out(opt.json_out);
    out << result.series.to_json();
    std::printf("\nseries written to %s\n", opt.json_out.c_str());
  }
  if (!opt.csv_out.empty()) {
    util::CsvWriter csv(opt.csv_out);
    result.series.write_csv(csv);
    std::printf("series CSV written to %s\n", opt.csv_out.c_str());
  }
  return 0;
}
