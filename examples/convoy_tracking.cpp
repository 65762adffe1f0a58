// Convoy tracking: the intro's motivating safety application. The rear car
// continuously tracks the front car at 2 Hz using the Sec. V-B strategy —
// one full context exchange to lock a SYN point, then cheap incremental
// tail updates — and raises an alert when the gap closes fast (front car
// braking hard). The rear car runs a StreamingEngine with the front car as
// its one beacon neighbour: each beacon ships only the metres past the
// receiver's watermark, and SynCache re-verifies the lock in a narrow band
// instead of re-running the full search.
//
//   $ ./convoy_tracking [seed]

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/convoy_sim.hpp"
#include "stream/stream_engine.hpp"
#include "v2v/link.hpp"

using namespace rups;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  sim::Scenario scenario = sim::Scenario::two_car(
      seed, road::EnvironmentType::kEightLaneUrban, /*gap_m=*/45.0);
  scenario.route_length_m = 10'000.0;
  scenario.traffic = vehicle::TrafficDensity::kModerate;

  sim::ConvoySimulation sim(scenario);
  std::printf("warming up (sensor calibration + context build)...\n");
  sim.run_until(400.0);

  const auto& front = sim.rig(0);
  const auto& rear = sim.rig(1);

  // The first beacon transfers the full context and locks the SYN point.
  constexpr std::uint64_t kFrontId = 0;
  stream::StreamConfig stream_cfg;
  stream_cfg.fleet.rups = rear.engine().config();
  stream::StreamingEngine engine(stream_cfg);
  v2v::DsrcLink link(seed);
  engine.add_neighbour(kFrontId, &link, /*channel=*/nullptr);
  const std::array<const core::ContextTrajectory*, 1> senders{
      &front.engine().context()};

  const auto& first = engine.update(rear.engine().context(), senders);
  if (first.results.empty() || !first.results[0].estimate.has_value()) {
    std::printf("could not lock a SYN point — aborting\n");
    return 1;
  }
  const std::size_t full_bytes = engine.total_beacon_bytes();
  std::printf("SYN lock acquired (full exchange: %zu B)\n\n", full_bytes);
  std::printf("%8s %10s %10s %8s %9s %s\n", "t(s)", "est(m)", "truth(m)",
              "err(m)", "bytes", "event");

  double prev_gap = 0.0;
  bool have_prev = false;
  int alerts = 0;

  for (double t = 400.5; t <= 520.0; t += 0.5) {
    sim.run_until(t);

    // One beacon round: the front car's newest metres only (a full
    // re-sync only when the gap bound trips), then a tracking estimate.
    const std::size_t bytes_before = engine.total_beacon_bytes();
    const auto& update = engine.update(rear.engine().context(), senders);
    const std::size_t bytes = engine.total_beacon_bytes() - bytes_before;
    if (update.results.empty() || !update.results[0].estimate.has_value()) {
      continue;
    }
    const core::RelativeDistanceEstimate& est = *update.results[0].estimate;
    const double truth =
        rear.state().position_m - front.state().position_m;
    const double gap = -est.distance_m;  // distance to the car ahead

    const char* event = "";
    if (have_prev) {
      const double closing_mps = (prev_gap - gap) / 0.5;
      if (closing_mps > 3.0 && gap < 40.0) {
        event = "!! CLOSING FAST — front car braking";
        ++alerts;
      }
    }
    prev_gap = gap;
    have_prev = true;

    // Print every 5 s (queries run at 2 Hz) and on every alert.
    if (std::fmod(t, 5.0) < 0.25 || event[0] != '\0') {
      std::printf("%8.1f %10.2f %10.2f %8.2f %9zu %s\n", t, est.distance_m,
                  truth, std::abs(est.distance_m - truth), bytes, event);
    }
  }

  const stream::BeaconStats& beacons = *engine.beacon_stats(kFrontId);
  const core::SynCache::Stats cache = engine.fleet().cache_stats();
  std::printf("\ntracked 120 s at 2 Hz: %llu full re-syncs, %zu B incremental"
              " (vs %zu B per full exchange), %llu/%llu tracked SYN offsets,"
              " %d hard-brake alerts\n",
              static_cast<unsigned long long>(beacons.resyncs - 1),
              engine.total_beacon_bytes() - full_bytes, full_bytes,
              static_cast<unsigned long long>(cache.tracking_hits),
              static_cast<unsigned long long>(cache.tracking_hits +
                                              cache.tracking_misses),
              alerts);
  return 0;
}
