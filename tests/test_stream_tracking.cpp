// System test: the Sec. V-B continuous-tracking strategy through the
// production streaming stack on realistic sensor data. One StreamingEngine
// follows one BeaconSession neighbour: the first beacon transfers the full
// context and locks a SYN point, later beacons ship only tail deltas and
// SynCache re-verifies the lock in a narrow band. Covers accuracy and the
// bandwidth claim (tail updates are far cheaper than full exchanges).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>

#include "sim/convoy_sim.hpp"
#include "stream/stream_engine.hpp"
#include "util/stats.hpp"
#include "v2v/link.hpp"

namespace rups {
namespace {

TEST(StreamingEngineTracking, LockFollowAndStayAccurate) {
  sim::Scenario scenario = sim::Scenario::two_car(
      42, road::EnvironmentType::kFourLaneUrban, 40.0);
  scenario.route_length_m = 8'000.0;
  sim::ConvoySimulation sim(scenario);
  sim.run_until(400.0);

  const core::RupsEngine& front = sim.rig(0).engine();
  const core::RupsEngine& rear = sim.rig(1).engine();
  stream::StreamConfig cfg;
  cfg.fleet.rups = rear.config();
  stream::StreamingEngine engine(cfg);
  v2v::DsrcLink link(1);
  engine.add_neighbour(0, &link, nullptr);
  const std::array<const core::ContextTrajectory*, 1> senders{
      &front.context()};

  engine.update(rear.context(), senders);
  const stream::BeaconStats* stats = engine.beacon_stats(0);
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->resyncs, 1u);
  const std::size_t full_bytes = engine.total_beacon_bytes();

  util::RunningStats err;
  for (double t = 400.5; t <= 460.0; t += 0.5) {
    sim.run_until(t);
    const auto& update = engine.update(rear.context(), senders);
    for (const auto& r : update.results) {
      if (!r.estimate.has_value()) continue;
      const double truth =
          sim.rig(1).state().position_m - sim.rig(0).state().position_m;
      err.add(std::abs(r.estimate->distance_m - truth));
    }
  }

  ASSERT_GT(err.count(), 80u);
  EXPECT_LT(err.mean(), 5.0);
  EXPECT_LT(err.max(), 20.0);
  // Full re-syncs past the initial one are the gap fallback of last
  // resort; a handful per minute is the intended ceiling.
  EXPECT_LE(stats->resyncs - 1, 10u);
  // 120 beacons must cost far less than one full exchange each.
  EXPECT_LT(engine.total_beacon_bytes() - full_bytes, full_bytes * 3);
}

TEST(StreamingEngineTracking, DuplicateNeighbourIdIsRejected) {
  v2v::DsrcLink link(1);
  stream::StreamingEngine engine;
  engine.add_neighbour(7);
  EXPECT_THROW(engine.add_neighbour(7, &link, nullptr), std::invalid_argument);
  EXPECT_THROW(engine.add_neighbour(7), std::invalid_argument);
  EXPECT_EQ(engine.neighbour_count(), 1u);
  EXPECT_EQ(engine.beacon_stats(7), nullptr);  // still the ideal neighbour
}

}  // namespace
}  // namespace rups
