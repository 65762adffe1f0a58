#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "service/matcher_service.hpp"
#include "sim/service_sim.hpp"
#include "util/thread_pool.hpp"

// Pooled-drain stress for the sharded matcher service, written for the
// ThreadSanitizer lane: shards are sliced across pool workers every round,
// so any cross-shard data sharing (arena slots, ticket table, metric
// handles, queue internals) that is not actually private-per-shard shows
// up as a race here. The serial-vs-pooled equality assertion doubles as a
// quick determinism check in non-TSan runs.

namespace rups::service {
namespace {

struct RoundDigest {
  std::uint64_t estimates = 0;
  double distance_sum = 0.0;

  friend bool operator==(const RoundDigest&, const RoundDigest&) = default;
};

constexpr double kCellM = 60.0;

sim::CityFleetConfig city_config() {
  sim::CityFleetConfig city_cfg;
  city_cfg.vehicles = 16;
  city_cfg.channels = 24;
  city_cfg.context_capacity_m = 120;
  city_cfg.spacing_m = 22.0;
  return city_cfg;
}

ServiceConfig service_config() {
  const sim::CityFleetConfig city_cfg = city_config();
  ServiceConfig cfg;
  cfg.shard_count = 4;
  cfg.cell_m = kCellM;
  cfg.queue_capacity = 32;
  cfg.max_vehicles = city_cfg.vehicles;
  cfg.max_sessions = 64;
  cfg.fleet.rups.channels = city_cfg.channels;
  cfg.fleet.rups.context_capacity_m = city_cfg.context_capacity_m;
  return cfg;
}

void register_all(const sim::CityFleet& city, MatcherService& svc) {
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    EXPECT_TRUE(svc.register_vehicle(city.vehicle_id(v), city.position(v)));
  }
}

// Starts a round and observes every vehicle's new metres.
void feed_round(sim::CityFleet& city, MatcherService& svc) {
  city.advance_round();
  svc.begin_round();
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    for (const sim::CityFleet::Sample& s : city.samples(v)) {
      EXPECT_TRUE(
          svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power));
    }
  }
}

std::vector<RoundDigest> drive(util::ThreadPool* pool) {
  sim::CityFleet city(city_config());
  MatcherService svc(service_config());
  register_all(city, svc);
  std::vector<RoundDigest> digests;
  std::vector<MatcherService::Ticket> tickets;
  for (std::size_t round = 0; round < 12; ++round) {
    feed_round(city, svc);
    if (round < 4) continue;

    tickets.clear();
    for (const sim::CityFleet::Query& q : city.queries()) {
      tickets.push_back(
          svc.submit(city.vehicle_id(q.ego), city.vehicle_id(q.neighbour)));
    }
    svc.drain(pool);

    RoundDigest digest;
    for (const auto& t : tickets) {
      if (!t.accepted()) continue;
      const auto& r = svc.result(t);
      if (r.estimate.has_value()) {
        ++digest.estimates;
        digest.distance_sum += r.estimate->distance_m;
      }
    }
    digests.push_back(digest);
  }
  return digests;
}

TEST(ServiceConcurrency, PooledDrainsRaceFreeAndMatchSerial) {
  const std::vector<RoundDigest> serial = drive(nullptr);

  std::uint64_t total = 0;
  for (const RoundDigest& d : serial) total += d.estimates;
  ASSERT_GT(total, 0u) << "stress workload produced no estimates";

  // Several pooled passes: scheduling varies per pass, results must not.
  for (int pass = 0; pass < 3; ++pass) {
    util::ThreadPool pool(4);
    EXPECT_EQ(drive(&pool), serial) << "pass " << pass;
  }
}

// One ego submits, is observed one cell on (the next shard), and submits
// again in the same round. Its first submit pins its shard for the round,
// so both requests run on one shard and a pooled drain never drives one
// FleetEngine from two workers.
std::array<std::optional<double>, 2> split_round(util::ThreadPool* pool) {
  sim::CityFleet city(city_config());
  MatcherService svc(service_config());
  register_all(city, svc);
  for (int round = 0; round < 12; ++round) feed_round(city, svc);
  const std::uint64_t ego = city.vehicle_id(2);
  const MatcherService::Ticket first = svc.submit(ego, city.vehicle_id(1));
  const sim::CityFleet::Sample& last = city.samples(2).back();
  EXPECT_TRUE(svc.observe(ego, last.position_m + kCellM, last.geo, last.power));
  EXPECT_NE(svc.shard_of(ego), first.shard);
  const MatcherService::Ticket second = svc.submit(ego, city.vehicle_id(3));
  EXPECT_TRUE(first.accepted() && second.accepted());
  EXPECT_EQ(second.shard, first.shard);
  svc.drain(pool);
  const auto metres = [&](const MatcherService::Ticket& t) {
    const auto& estimate = svc.result(t).estimate;
    return estimate ? std::optional(estimate->distance_m) : std::nullopt;
  };
  return {metres(first), metres(second)};
}

TEST(ServiceConcurrency, EgoShardPinnedForTheRound) {
  const auto serial = split_round(nullptr);
  EXPECT_TRUE(serial[0].has_value() || serial[1].has_value());
  util::ThreadPool pool(4);
  EXPECT_EQ(split_round(&pool), serial);
}

// Every vehicle queries, and subscribes to, its two nearest neighbours in
// both directions, so each vehicle's pack and window ranking — prepared
// once by the serial pass before the drain — is read by several egos on
// different shard workers at once, as ego and as neighbour.
std::vector<RoundDigest> drive_shared(util::ThreadPool* pool) {
  sim::CityFleet city(city_config());
  MatcherService svc(service_config());
  register_all(city, svc);
  const std::size_t n = city.vehicle_count();
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_TRUE(
        svc.subscribe(city.vehicle_id(v), city.vehicle_id((v + 1) % n))
            .accepted());
  }
  std::vector<RoundDigest> digests;
  std::vector<MatcherService::Ticket> tickets;
  for (std::size_t round = 0; round < 10; ++round) {
    feed_round(city, svc);
    if (round < 4) continue;
    tickets.clear();
    for (std::size_t v = 0; v < n; ++v) {
      for (const std::size_t d : {n - 1, std::size_t{2}}) {
        tickets.push_back(svc.submit(city.vehicle_id(v),
                                     city.vehicle_id((v + d) % n)));
      }
    }
    svc.drain(pool);
    svc.drain_stream(pool);
    RoundDigest digest;
    const auto add = [&](const core::FleetEngine::NeighbourResult& r) {
      if (!r.estimate.has_value()) return;
      ++digest.estimates;
      digest.distance_sum += r.estimate->distance_m;
    };
    for (const auto& t : tickets) {
      if (t.accepted()) add(svc.result(t));
    }
    for (std::size_t v = 0; v < n; ++v) {
      add(svc.stream_result(
          svc.subscribe(city.vehicle_id(v), city.vehicle_id((v + 1) % n))));
    }
    digests.push_back(digest);
  }
  return digests;
}

TEST(ServiceConcurrency, PooledDrainsShareEachVehiclesPreparedRanking) {
  const std::vector<RoundDigest> serial = drive_shared(nullptr);
  std::uint64_t total = 0;
  for (const RoundDigest& d : serial) total += d.estimates;
  ASSERT_GT(total, 0u) << "shared-ranking workload produced no estimates";
  util::ThreadPool pool(4);
  EXPECT_EQ(drive_shared(&pool), serial);
}

}  // namespace
}  // namespace rups::service
