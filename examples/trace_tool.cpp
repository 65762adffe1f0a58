// Trace tool: the paper's trace-driven methodology as a workflow. Records
// an instrumented drive to CSV, then replays the recorded sensor streams
// through a FRESH RUPS engine — demonstrating that evaluation can run
// offline, repeatedly, on captured data (exactly how the paper evaluates
// its three months of Shanghai traces).
//
//   $ ./trace_tool record <trace.csv> [seed]    # drive & record
//   $ ./trace_tool replay <trace.csv>           # rebuild context offline
//   $ ./trace_tool demo                         # record + replay + verify
//   $ ./trace_tool campaign [queries]           # instrumented query campaign
//
// Observability flags (any mode):
//   --metrics-out <out.json>   dump the rups::obs metrics snapshot on exit
//   --trace-out <trace.json>   record Chrome trace_event spans; open the
//                              file in chrome://tracing or ui.perfetto.dev

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/campaign.hpp"
#include "sim/convoy_sim.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

using namespace rups;

namespace {

sim::Scenario make_scenario(std::uint64_t seed) {
  sim::Scenario s =
      sim::Scenario::two_car(seed, road::EnvironmentType::kFourLaneUrban);
  s.route_length_m = 6'000.0;
  return s;
}

sim::VehicleTrace record(std::uint64_t seed, double duration_s) {
  sim::ConvoySimulation sim(make_scenario(seed));
  sim::TraceRecorder recorder;
  sim.mutable_rig(1).set_trace_sink(&recorder);
  sim.run_until(duration_s);
  // Ground truth per emitted metre, for offline error analysis.
  auto& trace = recorder.trace();
  const auto& rig = sim.rig(1);
  const std::uint64_t metres =
      rig.engine().context().first_metre() + rig.engine().context().size();
  for (std::uint64_t m = 0; m < metres; ++m) {
    trace.true_pos_of_metre.push_back(rig.true_position_of_metre(m));
  }
  return trace;
}

core::RupsEngine replay(const sim::VehicleTrace& trace) {
  core::RupsEngine engine;  // paper defaults, 115 channels
  sim::replay_trace(trace, engine);
  return engine;
}

void summarize(const char* label, const sim::VehicleTrace& trace) {
  std::printf("%s: %zu IMU, %zu OBD, %zu RSSI, %zu GPS samples, %zu truth metres\n",
              label, trace.imu.size(), trace.obd.size(), trace.rssi.size(),
              trace.gps.size(), trace.true_pos_of_metre.size());
}

/// Instrumented query campaign: the observability showcase. Produces
/// non-zero SYN-search, V2V-bytes and query-latency metrics, a windowed
/// telemetry series (--series-out), and (with --trace-out) a span per
/// seek/query for chrome://tracing.
int run_campaign_mode(std::uint64_t seed, std::size_t max_queries,
                      const std::string& series_out) {
  sim::ConvoySimulation sim(make_scenario(seed));
  sim::CampaignConfig cfg;
  cfg.max_queries = max_queries;
  cfg.model_v2v_cost = true;
  const auto result = sim::run_campaign(sim, cfg);
  if (!series_out.empty()) {
    std::ofstream out(series_out);
    out << result.series.to_json();
    if (out) {
      std::printf("series written to %s (%zu windows)\n", series_out.c_str(),
                  result.series.windows());
    } else {
      std::fprintf(stderr, "error: failed to write %s\n", series_out.c_str());
      return 2;
    }
  }

  const auto errors = result.rups_errors();
  std::printf("campaign: %zu queries, availability %.2f, mean |error| %.2f m\n",
              result.queries.size(), result.rups_availability(),
              errors.empty() ? 0.0 : util::mean(errors));
  std::printf("key metrics:\n");
  for (const char* name :
       {"syn.windows_scanned", "syn.seeks", "v2v.payload_bytes",
        "v2v.messages", "gsm.field_evals", "campaign.queries"}) {
    if (const auto* c = result.metrics.counter(name)) {
      std::printf("  %-24s %12llu\n", name,
                  static_cast<unsigned long long>(c->value));
    }
  }
  if (const auto* h = result.metrics.histogram("campaign.query_latency_us")) {
    std::printf("  %-24s n=%llu mean=%.0f us max=%.0f us\n",
                "query_latency_us", static_cast<unsigned long long>(h->count),
                h->mean(), h->max);
  }
  return result.queries.empty() ? 1 : 0;
}

void print_help() {
  std::printf(
      "usage: trace_tool [mode] [args] [flags]\n"
      "\n"
      "modes:\n"
      "  demo                 record + CSV round trip + replay + verify\n"
      "                       (default when no mode is given)\n"
      "  record <trace.csv> [seed]\n"
      "                       drive the simulated convoy and save the rear\n"
      "                       vehicle's raw sensor streams\n"
      "  replay <trace.csv>   rebuild journey context offline from a trace\n"
      "  campaign [queries]   instrumented query campaign (default 25)\n"
      "\n"
      "flags (any mode):\n"
      "  --metrics-out FILE   dump the rups::obs metrics snapshot on exit\n"
      "  --trace-out FILE     record Chrome trace_event spans (open in\n"
      "                       chrome://tracing or ui.perfetto.dev)\n"
      "  --series-out FILE    save the campaign's windowed telemetry series\n"
      "                       JSON (campaign mode only; feed it to\n"
      "                       telemetry_report --series-in)\n"
      "  --profile-out FILE   run the sampling span-stack profiler and save\n"
      "                       folded stacks (speedscope.app / flamegraph.pl)\n"
      "  --serve PORT         serve live /metrics (Prometheus text) and\n"
      "                       /healthz on 127.0.0.1:PORT while running\n"
      "                       (0 picks an ephemeral port)\n"
      "  --help               this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off observability flags; what remains is mode + positionals.
  std::string metrics_out;
  std::string trace_out;
  std::string series_out;
  std::string profile_out;
  int serve_port = -1;  // -1 = no exporter
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--metrics-out" || arg == "--trace-out" ||
               arg == "--series-out" || arg == "--profile-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a file path\n", arg.c_str());
        return 2;
      }
      (arg == "--metrics-out"   ? metrics_out
       : arg == "--trace-out"   ? trace_out
       : arg == "--series-out"  ? series_out
                                : profile_out) = argv[++i];
    } else if (arg == "--serve") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --serve requires a port (0 = any)\n");
        return 2;
      }
      char* end = nullptr;
      const long port = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr, "error: --serve: bad port %s\n", argv[i]);
        return 2;
      }
      serve_port = static_cast<int>(port);
    } else if (i > 0 && arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "error: unknown flag %s (see trace_tool --help)\n",
                   arg.c_str());
      return 2;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  std::unique_ptr<obs::ChromeTraceSink> trace_sink;
  if (!trace_out.empty()) {
    trace_sink = std::make_unique<obs::ChromeTraceSink>(trace_out);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   trace_out.c_str());
      return 2;
    }
    obs::set_trace_sink(trace_sink.get());
  }
  obs::SpanProfiler profiler;
  if (!profile_out.empty()) profiler.start();
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (serve_port >= 0) {
    exporter = std::make_unique<obs::MetricsExporter>(
        obs::MetricsExporter::Options{
            "127.0.0.1", static_cast<std::uint16_t>(serve_port)},
        [] { return obs::Registry::global().snapshot(); });
    if (!exporter->start()) {
      std::fprintf(stderr, "error: cannot serve on 127.0.0.1:%d\n",
                   serve_port);
      return 2;
    }
    std::printf("serving /metrics and /healthz on 127.0.0.1:%u\n",
                exporter->port());
  }
  // Write the requested artefacts no matter how a mode exits. Background
  // machinery stops in dependency order — profiler (samples spans) first,
  // then the exporter (reads the registry), then the trace sink (closes
  // the JSON array the profiler's spans were still feeding).
  const auto finish = [&](int rc) {
    profiler.stop();
    if (!profile_out.empty()) {
      const obs::FoldedProfile profile = profiler.profile();
      std::ofstream out(profile_out);
      out << profile.to_folded();
      if (out) {
        std::printf("profile written to %s (%llu samples, %llu ticks)\n",
                    profile_out.c_str(),
                    static_cast<unsigned long long>(profile.total_samples),
                    static_cast<unsigned long long>(profile.ticks));
        const std::string table = profile.attribution_table();
        std::fputs(table.c_str(), stdout);
      } else {
        std::fprintf(stderr, "error: failed to write %s\n",
                     profile_out.c_str());
        rc = rc == 0 ? 2 : rc;
      }
    }
    if (exporter != nullptr) {
      std::printf("exporter served %llu requests\n",
                  static_cast<unsigned long long>(exporter->requests()));
      exporter->stop();
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      out << obs::Registry::global().snapshot().to_json() << "\n";
      if (out) {
        std::printf("metrics written to %s\n", metrics_out.c_str());
      } else {
        std::fprintf(stderr, "error: failed to write %s\n",
                     metrics_out.c_str());
        rc = rc == 0 ? 2 : rc;
      }
    }
    if (trace_sink != nullptr) {
      obs::set_trace_sink(nullptr);
      const auto events = trace_sink->events_written();
      trace_sink.reset();  // closes the JSON array
      std::printf("trace written to %s (%llu spans)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(events));
    }
    return rc;
  };

  const std::string mode = argc > 1 ? argv[1] : "demo";

  if (mode == "campaign") {
    const std::size_t queries =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 25;
    return finish(run_campaign_mode(3, queries, series_out));
  }
  if (!series_out.empty()) {
    std::fprintf(stderr, "error: --series-out only applies to campaign mode\n");
    return 2;
  }

  if (mode == "record") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: trace_tool record <trace.csv> [seed]\n");
      return finish(2);
    }
    const std::uint64_t seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 3;
    std::printf("recording a 300 s drive (seed %llu)...\n",
                static_cast<unsigned long long>(seed));
    const auto trace = record(seed, 300.0);
    trace.save_csv(argv[2]);
    summarize("recorded", trace);
    std::printf("saved to %s\n", argv[2]);
    return finish(0);
  }

  if (mode == "replay") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: trace_tool replay <trace.csv>\n");
      return finish(2);
    }
    const auto trace = sim::VehicleTrace::load_csv(argv[2]);
    summarize("loaded", trace);
    const auto engine = replay(trace);
    std::printf("replayed: odometer %.1f m, context %zu m, coverage %.1f%%\n",
                engine.odometer_m(), engine.context().size(),
                100.0 * engine.context().measured_fraction());
    return finish(0);
  }

  // demo: record, round-trip through CSV, replay, verify equivalence.
  const auto path = std::filesystem::temp_directory_path() / "rups_demo.csv";
  std::printf("1) recording a 300 s drive...\n");
  const auto trace = record(3, 300.0);
  summarize("   recorded", trace);

  std::printf("2) CSV round trip via %s...\n", path.c_str());
  trace.save_csv(path);
  const auto loaded = sim::VehicleTrace::load_csv(path);
  summarize("   reloaded", loaded);

  std::printf("3) replaying through a fresh engine...\n");
  const auto engine = replay(loaded);
  std::printf("   odometer %.1f m, context %zu m\n", engine.odometer_m(),
              engine.context().size());

  const bool ok = loaded.rssi.size() == trace.rssi.size() &&
                  engine.context().size() > 100;
  std::printf("\ntrace-driven workflow %s: the captured streams rebuild the\n"
              "same journey context offline — evaluation never needs the\n"
              "original drive again.\n",
              ok ? "VERIFIED" : "FAILED");
  std::filesystem::remove(path);
  return finish(ok ? 0 : 1);
}
