// System test: the Sec. V-B continuous-tracking strategy through the
// production streaming stack on realistic sensor data. One StreamingEngine
// follows one BeaconSession neighbour: the first beacon transfers the full
// context and locks a SYN point, later beacons ship only tail deltas and
// SynCache re-verifies the lock in a narrow band. Covers accuracy and the
// bandwidth claim (tail updates are far cheaper than full exchanges).
// Also covers neighbour removal mid-drive and the senders size contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/convoy_sim.hpp"
#include "sim/service_sim.hpp"
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

TEST(StreamingEngineTracking, RemovedNeighbourLeavesUpdatesAndItsCacheShard) {
  constexpr std::size_t kNeighbours = 3;
  sim::CityFleetConfig ccfg;
  ccfg.vehicles = kNeighbours + 1;
  ccfg.channels = 24;
  ccfg.context_capacity_m = 200;
  ccfg.spacing_m = 18.0;
  ccfg.seed = 11;
  sim::CityFleet city(ccfg);

  stream::StreamConfig scfg;
  scfg.fleet.rups.channels = ccfg.channels;
  scfg.fleet.rups.context_capacity_m = ccfg.context_capacity_m;
  stream::StreamingEngine engine(scfg);
  for (std::size_t i = 1; i <= kNeighbours; ++i) {
    engine.add_neighbour(city.vehicle_id(i));
  }
  std::vector<core::ContextTrajectory> trajs;
  for (std::size_t i = 0; i <= kNeighbours; ++i) {
    trajs.emplace_back(ccfg.channels, ccfg.context_capacity_m);
  }
  std::vector<const core::ContextTrajectory*> all;
  for (std::size_t i = 1; i <= kNeighbours; ++i) all.push_back(&trajs[i]);
  const std::uint64_t removed = city.vehicle_id(2);
  const std::vector<const core::ContextTrajectory*> remaining{&trajs[1],
                                                              &trajs[3]};

  // Appends one round per metre; returns every id the updates re-estimated.
  const auto drive_round =
      [&](const std::vector<const core::ContextTrajectory*>& senders) {
        city.advance_round();
        std::size_t steps = 0;
        for (std::size_t i = 0; i <= kNeighbours; ++i) {
          steps = std::max(steps, city.samples(i).size());
        }
        std::vector<std::uint64_t> ids;
        for (std::size_t s = 0; s < steps; ++s) {
          for (std::size_t i = 0; i <= kNeighbours; ++i) {
            const auto& batch = city.samples(i);
            if (s < batch.size()) {
              trajs[i].append(batch[s].geo, batch[s].power);
            }
          }
          const auto& update = engine.update(
              trajs[0], std::span<const core::ContextTrajectory* const>(
                            senders.data(), senders.size()));
          ids.insert(ids.end(), update.ids.begin(), update.ids.end());
        }
        return ids;
      };

  for (std::size_t r = 0; r < 3; ++r) (void)drive_round(all);
  ASSERT_EQ(engine.fleet().shard_count(), kNeighbours);

  engine.remove_neighbour(removed);
  EXPECT_EQ(engine.neighbour_count(), kNeighbours - 1);
  EXPECT_EQ(engine.fleet().shard_count(), kNeighbours - 1);
  EXPECT_EQ(engine.view(removed), nullptr);

  const std::vector<std::uint64_t> ids = drive_round(remaining);
  ASSERT_FALSE(ids.empty());
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(id == city.vehicle_id(1) || id == city.vehicle_id(3)) << id;
  }
  EXPECT_EQ(engine.fleet().shard_count(), kNeighbours - 1);

  // A span sized for the old neighbour set is refused before anything
  // changes.
  const std::uint64_t estimates = engine.estimates();
  EXPECT_THROW(engine.update(trajs[0],
                             std::span<const core::ContextTrajectory* const>(
                                 all.data(), all.size())),
               std::invalid_argument);
  EXPECT_EQ(engine.estimates(), estimates);
  EXPECT_EQ(engine.fleet().shard_count(), kNeighbours - 1);
}

}  // namespace
}  // namespace rups
