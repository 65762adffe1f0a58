// Telemetry overhead gate: the full dimensional-telemetry stack (labeled
// families + windowed series collection + span tracing into a Chrome
// trace sink) must be effectively free at fleet scale, and must never
// change results. Runs the warm N=16 fleet campaign twice per mode on
// fresh, identically-seeded simulations:
//
//   off: series collection disabled, no trace sink (families and timers
//        still run)
//   on:  series collector on the round cadence + every span written to a
//        Chrome trace file
//
// and fails when estimates differ in any bit, or when the best-of-runs
// telemetry-on wall-clock exceeds the telemetry-off one by more than the
// ceiling (generous vs the 5% target because this container's timing is
// noisy; the printed ratio is the number to watch).
//
// Also emits the telemetry baseline candidate: the final metrics snapshot
// with the collected series spliced in as a "series" member
// (bench_out/telemetry_metrics.json, replayed by bench_regression.sh).
//
// Round count is fixed (RUPS_BENCH_SCALE is ignored) so every counter and
// series rate in the baseline section is deterministic. --report-only
// skips the off runs and the gate: one telemetry-on campaign, artefacts
// only (what the regression gate uses).

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "sim/fleet_sim.hpp"

namespace {

using namespace rups;

constexpr std::size_t kVehicles = 17;  // ego + 16 neighbours
constexpr std::size_t kRounds = 16;
constexpr std::uint64_t kSeed = 7;
constexpr double kOverheadCeiling = 1.25;

sim::FleetCampaignConfig make_config(bool telemetry) {
  sim::FleetCampaignConfig cfg;
  cfg.base.max_queries = kRounds;  // fixed: deterministic baseline counters
  cfg.base.interval_s = 3.0;
  cfg.base.series.enabled = telemetry;
  cfg.base.series.window_s = 15.0;
  return cfg;
}

struct RunResult {
  double seconds = 0.0;
  sim::FleetCampaignResult campaign;
};

RunResult run_once(bool telemetry) {
  sim::Scenario scenario = sim::Scenario::fleet(
      kSeed, road::EnvironmentType::kFourLaneUrban, kVehicles, /*gap_m=*/25.0);
  scenario.route_length_m = 9'000.0;
  const sim::FleetCampaignConfig cfg = make_config(telemetry);
  sim::FleetSimulation fleet(scenario, cfg);

  RunResult out;
  const auto started = std::chrono::steady_clock::now();
  out.campaign = sim::run_fleet_campaign(fleet, cfg);
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              started)
                    .count();
  return out;
}

/// Estimates (and the SYN points they came from) must match bit for bit:
/// telemetry may cost time, never accuracy.
bool same_estimates(const sim::FleetCampaignResult& a,
                    const sim::FleetCampaignResult& b) {
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const auto& xs = a.rounds[r].outcomes;
    const auto& ys = b.rounds[r].outcomes;
    if (xs.size() != ys.size()) return false;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto& x = xs[i].result;
      const auto& y = ys[i].result;
      if (xs[i].neighbour_index != ys[i].neighbour_index) return false;
      if (x.estimate.has_value() != y.estimate.has_value()) return false;
      if (x.estimate.has_value() &&
          (x.estimate->distance_m != y.estimate->distance_m ||
           x.estimate->confidence != y.estimate->confidence ||
           x.estimate->syn_count != y.estimate->syn_count)) {
        return false;
      }
      if (x.syn_points.size() != y.syn_points.size()) return false;
      for (std::size_t s = 0; s < x.syn_points.size(); ++s) {
        if (x.syn_points[s].index_a != y.syn_points[s].index_a ||
            x.syn_points[s].index_b != y.syn_points[s].index_b ||
            x.syn_points[s].correlation != y.syn_points[s].correlation) {
          return false;
        }
      }
    }
  }
  return true;
}

/// The committed baseline shape: one snapshot object with the windowed
/// series spliced in as a "series" member, so obs_diff reads counters and
/// series columns from the same --section.
void write_telemetry_json(const sim::FleetCampaignResult& result) {
  std::filesystem::create_directories("bench_out");
  std::string json = result.metrics.to_json();
  const std::size_t brace = json.rfind('}');
  std::string out = json.substr(0, brace);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  out += ",\n  \"series\": ";
  std::string series = result.series.to_json();
  while (!series.empty() && series.back() == '\n') series.pop_back();
  out += series;
  out += "\n}\n";
  std::ofstream file("bench_out/telemetry_metrics.json");
  file << out;
  std::printf("  metrics json: bench_out/telemetry_metrics.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool report_only =
      argc > 1 && std::strcmp(argv[1], "--report-only") == 0;
  bench::header("telemetry",
                "dimensional telemetry overhead (warm fleet, N=16)");
  std::printf("  %zu vehicles, %zu rounds, clean channel, serial batches\n",
              kVehicles, kRounds);

  // One trace sink for every telemetry-on run; detached during off runs so
  // spans are dropped at the emit check (the off configuration).
  auto sink = std::make_unique<obs::ChromeTraceSink>(
      "bench_out/telemetry_trace.json");
  std::filesystem::create_directories("bench_out");

  if (report_only) {
    obs::set_trace_sink(sink->ok() ? sink.get() : nullptr);
    const RunResult on = run_once(/*telemetry=*/true);
    obs::set_trace_sink(nullptr);
    std::printf("  report-only: %zu rounds, %zu series windows, %.2f s\n",
                on.campaign.rounds.size(), on.campaign.series.windows(),
                on.seconds);
    write_telemetry_json(on.campaign);
    return on.campaign.rounds.empty() || on.campaign.series.empty() ? 1 : 0;
  }

  // Interleaved best-of-2 per mode: alternating absorbs slow drift in
  // container load better than back-to-back pairs.
  double best_off = 0.0;
  double best_on = 0.0;
  std::optional<RunResult> last_off;
  std::optional<RunResult> last_on;
  for (int rep = 0; rep < 2; ++rep) {
    RunResult off = run_once(/*telemetry=*/false);
    obs::set_trace_sink(sink->ok() ? sink.get() : nullptr);
    RunResult on = run_once(/*telemetry=*/true);
    obs::set_trace_sink(nullptr);
    std::printf("  rep %d: off %.3f s | on %.3f s (%zu windows)\n", rep,
                off.seconds, on.seconds, on.campaign.series.windows());
    best_off = best_off == 0.0 ? off.seconds : std::min(best_off, off.seconds);
    best_on = best_on == 0.0 ? on.seconds : std::min(best_on, on.seconds);
    last_off = std::move(off);
    last_on = std::move(on);
  }

  const bool identical = same_estimates(last_off->campaign, last_on->campaign);
  const double ratio = best_off > 0.0 ? best_on / best_off : 0.0;
  std::printf("\n");
  bench::paper_vs_measured("telemetry-on / telemetry-off wall clock", 1.05,
                           ratio, "x");
  std::printf("  estimates bit-identical on vs off: %s\n",
              identical ? "PASS" : "FAIL");
  std::printf("  overhead ceiling (noise-tolerant): %.2fx -> %s\n",
              kOverheadCeiling, ratio <= kOverheadCeiling ? "PASS" : "FAIL");

  write_telemetry_json(last_on->campaign);
  const bool ok = identical && ratio <= kOverheadCeiling &&
                  !last_on->campaign.series.empty();
  std::printf("telemetry overhead: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
