#include "service/matcher_service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sim/service_sim.hpp"
#include "stream/stream_engine.hpp"
#include "util/thread_pool.hpp"

// The sharded matcher service contract:
//   * shard-routing determinism — any shard count, serial or pooled drain,
//     must reproduce exactly what bare per-vehicle FleetEngines compute on
//     the same replayed workload (estimates AND cache-decision counters);
//   * bounded arenas — exhaustion yields reasoned admission rejections,
//     never blocking, growth, or UB, and freed slots are reusable;
//   * the HealthMonitor admission rule fires on sustained rejection.

namespace rups::service {
namespace {

sim::CityFleetConfig small_city(std::uint64_t seed) {
  sim::CityFleetConfig city;
  city.vehicles = 12;
  city.channels = 24;
  city.context_capacity_m = 120;
  city.spacing_m = 25.0;
  city.min_advance_m = 8;
  city.max_advance_m = 14;
  city.seed = seed;
  return city;
}

ServiceConfig small_service(const sim::CityFleetConfig& city,
                            std::size_t shards) {
  ServiceConfig cfg;
  cfg.shard_count = shards;
  cfg.cell_m = 100.0;
  cfg.queue_capacity = 64;
  cfg.max_vehicles = city.vehicles;
  cfg.max_sessions = 64;
  cfg.fleet.rups.channels = city.channels;
  cfg.fleet.rups.context_capacity_m = city.context_capacity_m;
  return cfg;
}

struct Outcome {
  bool has_estimate = false;
  double distance_m = 0.0;
  double confidence = 0.0;
  std::size_t syn_count = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome_of(const core::FleetEngine::NeighbourResult& r) {
  Outcome o;
  o.has_estimate = r.estimate.has_value();
  if (o.has_estimate) {
    o.distance_m = r.estimate->distance_m;
    o.confidence = r.estimate->confidence;
    o.syn_count = r.estimate->syn_count;
  }
  return o;
}

constexpr std::size_t kRounds = 10;
constexpr std::size_t kWarmup = 4;

struct Replay {
  std::vector<std::vector<Outcome>> outcomes;
  std::uint64_t accepted = 0;
  /// syncache.* counter deltas over the replay.
  std::map<std::string, std::uint64_t> cache_counters;
};

std::map<std::string, std::uint64_t> cache_counter_values() {
  std::map<std::string, std::uint64_t> out;
  const auto snap = obs::Registry::global().snapshot();
  for (const auto& c : snap.counters) {
    if (c.name.rfind("syncache.", 0) == 0) out[c.name] = c.value;
  }
  return out;
}

/// Drive one replayed CityFleet through a MatcherService.
Replay run_service(std::uint64_t seed, std::size_t shards,
                   util::ThreadPool* pool) {
  const sim::CityFleetConfig city_cfg = small_city(seed);
  sim::CityFleet city(city_cfg);
  MatcherService svc(small_service(city_cfg, shards));
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    EXPECT_TRUE(svc.register_vehicle(city.vehicle_id(v), city.position(v)));
  }

  Replay out;
  const auto counters_before = cache_counter_values();
  std::vector<MatcherService::Ticket> tickets;
  for (std::size_t round = 0; round < kRounds; ++round) {
    city.advance_round();
    svc.begin_round();
    for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
      for (const sim::CityFleet::Sample& s : city.samples(v)) {
        EXPECT_TRUE(
            svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power));
      }
    }
    if (round < kWarmup) continue;

    tickets.clear();
    for (const sim::CityFleet::Query& q : city.queries()) {
      tickets.push_back(
          svc.submit(city.vehicle_id(q.ego), city.vehicle_id(q.neighbour)));
    }
    svc.drain(pool);

    auto& round_outcomes = out.outcomes.emplace_back();
    for (const auto& t : tickets) {
      if (t.accepted()) {
        ++out.accepted;
        round_outcomes.push_back(outcome_of(svc.result(t)));
      } else {
        round_outcomes.push_back(Outcome{});
      }
    }
  }
  for (const auto& [name, value] : cache_counter_values()) {
    const auto it = counters_before.find(name);
    const std::uint64_t before = it == counters_before.end() ? 0 : it->second;
    out.cache_counters[name] = value - before;
  }
  return out;
}

/// The same workload through bare per-vehicle FleetEngines — the unsharded
/// single-process reference.
Replay run_reference(std::uint64_t seed) {
  const sim::CityFleetConfig city_cfg = small_city(seed);
  const ServiceConfig cfg = small_service(city_cfg, 1);
  sim::CityFleet city(city_cfg);

  std::vector<core::ContextTrajectory> trajs;
  std::vector<core::FleetEngine> engines;
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    trajs.emplace_back(cfg.fleet.rups.channels,
                       cfg.fleet.rups.context_capacity_m);
    engines.emplace_back(cfg.fleet);
  }

  Replay out;
  const auto counters_before = cache_counter_values();
  std::vector<core::FleetEngine::NeighbourResult> scratch;
  for (std::size_t round = 0; round < kRounds; ++round) {
    city.advance_round();
    for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
      for (const sim::CityFleet::Sample& s : city.samples(v)) {
        trajs[v].append(s.geo, s.power);
      }
    }
    if (round < kWarmup) continue;

    auto& round_outcomes = out.outcomes.emplace_back();
    for (const sim::CityFleet::Query& q : city.queries()) {
      const core::ContextTrajectory* nb = &trajs[q.neighbour];
      const std::uint64_t nb_id = city.vehicle_id(q.neighbour);
      engines[q.ego].estimate_batch_into(
          trajs[q.ego],
          std::span<const core::ContextTrajectory* const>(&nb, 1),
          std::span<const std::uint64_t>(&nb_id, 1), nullptr, scratch);
      round_outcomes.push_back(outcome_of(scratch[0]));
      ++out.accepted;
    }
  }
  for (const auto& [name, value] : cache_counter_values()) {
    const auto it = counters_before.find(name);
    const std::uint64_t before = it == counters_before.end() ? 0 : it->second;
    out.cache_counters[name] = value - before;
  }
  return out;
}

TEST(ShardRouting, AnyShardCountMatchesUnshardedEngineBitForBit) {
  for (const std::uint64_t seed : {0xC17FULL, 0xBEEFULL, 0x5EEDULL}) {
    const Replay reference = run_reference(seed);
    ASSERT_FALSE(reference.outcomes.empty());
    bool any_estimate = false;
    for (const auto& round : reference.outcomes) {
      for (const auto& o : round) any_estimate = any_estimate || o.has_estimate;
    }
    EXPECT_TRUE(any_estimate) << "workload produced no estimates; seed "
                              << seed;

    for (const std::size_t shards : {1UL, 2UL, 4UL}) {
      const Replay serial = run_service(seed, shards, nullptr);
      EXPECT_EQ(serial.outcomes, reference.outcomes)
          << "serial, shards=" << shards << ", seed=" << seed;
      EXPECT_EQ(serial.accepted, reference.accepted);
      // Same estimates from the same decisions: the tracking/full-search
      // counter deltas must match the unsharded engine exactly.
      EXPECT_EQ(serial.cache_counters, reference.cache_counters)
          << "serial, shards=" << shards << ", seed=" << seed;

      util::ThreadPool pool(3);
      const Replay pooled = run_service(seed, shards, &pool);
      EXPECT_EQ(pooled.outcomes, reference.outcomes)
          << "pooled, shards=" << shards << ", seed=" << seed;
      EXPECT_EQ(pooled.cache_counters, reference.cache_counters)
          << "pooled, shards=" << shards << ", seed=" << seed;
    }
  }
}

TEST(ShardRouting, HostilePositionsAreRejectedOrRoutedInRange) {
  // NaN / ±inf would make the shard computation undefined: both entry
  // points refuse them, count them, and leave the vehicle where it was.
  ServiceConfig cfg;
  cfg.shard_count = 3;
  MatcherService svc(cfg);
  obs::Counter& rejected = obs::Registry::global()
                               .counter_family("service.rejected_input",
                                               "reason")
                               .with("non_finite_position");
  [[maybe_unused]] const std::uint64_t before = rejected.value();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(svc.register_vehicle(1, nan));
  EXPECT_FALSE(svc.register_vehicle(1, -inf));
  EXPECT_EQ(svc.vehicle_count(), 0u);
  ASSERT_TRUE(svc.register_vehicle(1, 300.0));
  const std::uint32_t shard = svc.shard_of(1);
  const core::PowerVector power(cfg.fleet.rups.channels);
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_FALSE(svc.observe(1, bad, core::GeoSample{}, power)) << bad;
  }
  EXPECT_EQ(svc.shard_of(1), shard);
  EXPECT_EQ(rejected.value() - before, 5u);
  // Finite positions far beyond any integer cell index still route to a
  // valid shard.
  ASSERT_TRUE(svc.register_vehicle(2, 1e300));
  ASSERT_TRUE(svc.observe(1, -1e300, core::GeoSample{}, power));
  EXPECT_LT(svc.shard_of(1), svc.shard_count());
  EXPECT_LT(svc.shard_of(2), svc.shard_count());
}

TEST(ShardRouting, WrongWidthPowerIsRejectedWithoutTouchingTheVehicle) {
  // A power vector of the wrong width is refused at the boundary, counted,
  // and leaves the vehicle's position (and so its shard) where it was.
  ServiceConfig cfg;
  cfg.shard_count = 3;
  cfg.cell_m = 100.0;
  MatcherService svc(cfg);
  obs::Counter& rejected = obs::Registry::global()
                               .counter_family("service.rejected_input",
                                               "reason")
                               .with("width_mismatch");
  [[maybe_unused]] const std::uint64_t before = rejected.value();
  ASSERT_TRUE(svc.register_vehicle(1, 50.0));
  const std::uint32_t shard = svc.shard_of(1);
  const std::size_t width = cfg.fleet.rups.channels;
  EXPECT_FALSE(svc.observe(1, 250.0, core::GeoSample{},
                           core::PowerVector(width - 1)));
  EXPECT_FALSE(svc.observe(1, 250.0, core::GeoSample{},
                           core::PowerVector(width + 1)));
  EXPECT_EQ(svc.shard_of(1), shard);
  EXPECT_EQ(rejected.value() - before, 2u);
  EXPECT_TRUE(
      svc.observe(1, 250.0, core::GeoSample{}, core::PowerVector(width)));
  EXPECT_NE(svc.shard_of(1), shard);
}

TEST(ShardRouting, NonFiniteReadingsAndGeoAreRejectedBeforeAnyChange) {
  // A usable NaN/inf reading or a NaN/inf heading or time is refused at the
  // boundary and counted, leaving the vehicle's position and context as
  // they were; an unusable slot may hold anything.
  ServiceConfig cfg;
  cfg.shard_count = 3;
  cfg.cell_m = 100.0;
  MatcherService svc(cfg);
  obs::CounterFamily& family = obs::Registry::global().counter_family(
      "service.rejected_input", "reason");
  obs::Counter& bad_rssi = family.with("non_finite_rssi");
  obs::Counter& bad_geo = family.with("non_finite_geo");
  [[maybe_unused]] const std::uint64_t rssi0 = bad_rssi.value();
  [[maybe_unused]] const std::uint64_t geo0 = bad_geo.value();
  ASSERT_TRUE(svc.register_vehicle(1, 50.0));
  const std::uint32_t shard = svc.shard_of(1);
  const std::size_t width = cfg.fleet.rups.channels;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  for (const double bad : {nan, inf, -inf}) {
    core::PowerVector power(width);
    power.set(0, -70.0f);
    power.set(width - 1, static_cast<float>(bad),
              core::ChannelState::kInterpolated);
    EXPECT_FALSE(svc.observe(1, 250.0, core::GeoSample{}, power)) << bad;
    EXPECT_FALSE(svc.observe(1, 250.0, core::GeoSample{bad, 1.0},
                             core::PowerVector(width)))
        << bad;
    EXPECT_FALSE(svc.observe(1, 250.0, core::GeoSample{0.0, bad},
                             core::PowerVector(width)))
        << bad;
  }
  EXPECT_EQ(bad_rssi.value() - rssi0, 3u);
  EXPECT_EQ(bad_geo.value() - geo0, 6u);
  EXPECT_EQ(svc.shard_of(1), shard);

  // A NaN parked in an unusable slot is not a reading.
  core::PowerVector masked(width);
  masked.set(0, -70.0f);
  masked.set(1, static_cast<float>(nan), core::ChannelState::kMissing);
  EXPECT_TRUE(svc.observe(1, 250.0, core::GeoSample{}, masked));
  EXPECT_NE(svc.shard_of(1), shard);
}

TEST(Admission, UnknownVehicleAndSelfQueryAreRejected) {
  MatcherService svc(ServiceConfig{});
  ASSERT_TRUE(svc.register_vehicle(1, 0.0));
  svc.begin_round();

  const auto unknown = svc.submit(1, 99);
  EXPECT_EQ(unknown.admission, MatcherService::Admission::kUnknownVehicle);
  EXPECT_FALSE(unknown.accepted());

  const auto self = svc.submit(1, 1);
  EXPECT_EQ(self.admission, MatcherService::Admission::kUnknownVehicle);

  // Draining with nothing queued is a no-op, and rejected tickets carry an
  // invalid index rather than addressing a result slot.
  svc.drain();
  EXPECT_EQ(unknown.index, MatcherService::kInvalidIndex);
}

TEST(Admission, UndrainedAndRejectedTicketsReadNoEstimate) {
  const std::uint64_t seed = 0xC17FULL;
  const sim::CityFleetConfig city_cfg = small_city(seed);
  sim::CityFleet city(city_cfg);
  MatcherService svc(small_service(city_cfg, 2));
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    ASSERT_TRUE(svc.register_vehicle(city.vehicle_id(v), city.position(v)));
  }
  const auto play_round = [&] {
    city.advance_round();
    svc.begin_round();
    for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
      for (const sim::CityFleet::Sample& s : city.samples(v)) {
        ASSERT_TRUE(
            svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power));
      }
    }
  };
  const auto submit_all = [&] {
    std::vector<MatcherService::Ticket> tickets;
    for (const sim::CityFleet::Query& q : city.queries()) {
      tickets.push_back(
          svc.submit(city.vehicle_id(q.ego), city.vehicle_id(q.neighbour)));
      EXPECT_TRUE(tickets.back().accepted());
      EXPECT_FALSE(svc.result(tickets.back()).estimate.has_value());
    }
    return tickets;
  };
  for (std::size_t round = 0; round <= kWarmup; ++round) play_round();

  const std::uint64_t ego = city.vehicle_id(0);
  const auto self = svc.submit(ego, ego);
  ASSERT_FALSE(self.accepted());
  EXPECT_FALSE(svc.result(self).estimate.has_value());
  const auto unknown = svc.subscribe(ego, ~std::uint64_t{0});
  ASSERT_FALSE(unknown.accepted());
  EXPECT_FALSE(svc.stream_result(unknown).estimate.has_value());

  // First round: the slots have never been drained. After the drain the
  // results are exactly what bare per-vehicle engines compute.
  const auto tickets = submit_all();
  svc.drain();
  const Replay reference = run_reference(seed);
  ASSERT_FALSE(reference.outcomes.empty());
  ASSERT_EQ(tickets.size(), reference.outcomes[0].size());
  bool any_estimate = false;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Outcome o = outcome_of(svc.result(tickets[i]));
    EXPECT_EQ(o, reference.outcomes[0][i]) << "query " << i;
    any_estimate = any_estimate || o.has_estimate;
  }
  EXPECT_TRUE(any_estimate);

  // Next round: a re-used slot reads "no estimate" until its drain, not
  // the previous round's answer.
  play_round();
  (void)submit_all();
}

TEST(Admission, VehicleArenaExhaustionRejectsAndRecyclesAfterDeregister) {
  ServiceConfig cfg;
  cfg.max_vehicles = 2;
  MatcherService svc(cfg);
  EXPECT_TRUE(svc.register_vehicle(1, 0.0));
  EXPECT_TRUE(svc.register_vehicle(2, 10.0));
  EXPECT_FALSE(svc.register_vehicle(3, 20.0));  // arena full
  EXPECT_FALSE(svc.register_vehicle(1, 0.0));   // duplicate id
  EXPECT_EQ(svc.vehicle_count(), 2u);

  EXPECT_TRUE(svc.deregister_vehicle(1));
  EXPECT_FALSE(svc.deregister_vehicle(1));
  EXPECT_TRUE(svc.register_vehicle(3, 20.0));  // freed slot reused
  EXPECT_EQ(svc.vehicle_count(), 2u);
}

TEST(Admission, SessionArenaExhaustionRejectsWithReason) {
  ServiceConfig cfg;
  cfg.max_sessions = 1;
  MatcherService svc(cfg);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(svc.register_vehicle(id, static_cast<double>(id)));
  }
  svc.begin_round();
  const auto first = svc.submit(1, 2);
  EXPECT_TRUE(first.accepted());
  const auto second = svc.submit(1, 3);  // distinct pair needs a new session
  EXPECT_EQ(second.admission, MatcherService::Admission::kSessionsFull);
  // The established pair keeps being admitted.
  svc.drain();
  svc.begin_round();
  EXPECT_TRUE(svc.submit(1, 2).accepted());
  EXPECT_EQ(svc.session_count(), 1u);
}

TEST(Admission, QueueFullAndRoundFullRejectWithReason) {
  ServiceConfig cfg;
  cfg.shard_count = 2;
  cfg.queue_capacity = 1;
  cfg.max_round_requests = 3;
  MatcherService svc(cfg);
  // All on one cell: every ego routes to the same shard.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(svc.register_vehicle(id, 1.0));
  }
  svc.begin_round();
  EXPECT_TRUE(svc.submit(1, 2).accepted());
  const auto overflow = svc.submit(1, 3);
  EXPECT_EQ(overflow.admission, MatcherService::Admission::kQueueFull);

  // Queue capacity frees after a drain; the per-round ticket table does
  // not — its exhaustion is its own reason.
  svc.drain();
  EXPECT_TRUE(svc.submit(1, 3).accepted());
  svc.drain();
  EXPECT_TRUE(svc.submit(1, 4).accepted());
  svc.drain();
  const auto round_full = svc.submit(1, 5);
  EXPECT_EQ(round_full.admission, MatcherService::Admission::kRoundFull);

  svc.begin_round();  // new round resets the table
  EXPECT_TRUE(svc.submit(1, 5).accepted());
}

TEST(Admission, ReasonLabelsAreStable) {
  EXPECT_STREQ(
      MatcherService::admission_reason(MatcherService::Admission::kAccepted),
      "accepted");
  EXPECT_STREQ(
      MatcherService::admission_reason(MatcherService::Admission::kQueueFull),
      "queue_full");
  EXPECT_STREQ(MatcherService::admission_reason(
                   MatcherService::Admission::kSessionsFull),
               "sessions_full");
  EXPECT_STREQ(MatcherService::admission_reason(
                   MatcherService::Admission::kUnknownVehicle),
               "unknown_vehicle");
  EXPECT_STREQ(
      MatcherService::admission_reason(MatcherService::Admission::kRoundFull),
      "round_full");
}

TEST(Admission, DeregisterReleasesSessionsOfBothRoles) {
  MatcherService svc(ServiceConfig{});
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(svc.register_vehicle(id, static_cast<double>(id)));
  }
  svc.begin_round();
  EXPECT_TRUE(svc.submit(1, 2).accepted());  // 2 as neighbour
  EXPECT_TRUE(svc.submit(2, 3).accepted());  // 2 as ego
  EXPECT_TRUE(svc.submit(1, 3).accepted());
  svc.drain();
  EXPECT_EQ(svc.session_count(), 3u);

  EXPECT_TRUE(svc.deregister_vehicle(2));
  EXPECT_EQ(svc.session_count(), 1u);  // only (1, 3) survives
  svc.begin_round();
  EXPECT_EQ(svc.submit(1, 2).admission,
            MatcherService::Admission::kUnknownVehicle);
  EXPECT_TRUE(svc.submit(1, 3).accepted());
  svc.drain();
}

TEST(Health, AdmissionRejectRuleFiresOnSustainedRejection) {
  obs::HealthConfig health_cfg;
  health_cfg.min_admissions = 8;
  health_cfg.max_admission_reject_rate = 0.5;
  obs::HealthMonitor health(health_cfg);

  ServiceConfig cfg;
  cfg.shard_count = 1;
  cfg.queue_capacity = 1;
  cfg.max_round_requests = 64;  // rejections come from the queue, not the
                                // per-round ticket table
  MatcherService svc(cfg);
  svc.set_health_monitor(&health);
  ASSERT_TRUE(svc.register_vehicle(1, 0.0));
  ASSERT_TRUE(svc.register_vehicle(2, 5.0));
  ASSERT_TRUE(svc.register_vehicle(3, 9.0));

  svc.begin_round();
  EXPECT_TRUE(svc.submit(1, 2).accepted());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(svc.submit(1, 3).admission,
              MatcherService::Admission::kQueueFull);
  }
  const obs::HealthReport report = health.report();
  EXPECT_EQ(report.admissions, 17u);
  EXPECT_GT(report.admission_reject_rate, 0.5);
  bool fired = false;
  for (const auto& alert : report.alerts) {
    fired = fired || alert.rule == "admission_reject";
  }
  EXPECT_TRUE(fired);
  svc.drain();
}

TEST(StreamTelemetry, ServiceAndEngineHistogramsCountOnlyTheirOwnUpdates) {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& service_us = reg.histogram("service.stream.update_us");
  obs::Histogram& engine_us = reg.histogram("stream.update_us");
  obs::Counter& service_updates = reg.counter("service.stream.updates");
  obs::Counter& engine_updates = reg.counter("stream.updates");
  const std::uint64_t service_us0 = service_us.count();
  const std::uint64_t engine_us0 = engine_us.count();
  const std::uint64_t service_updates0 = service_updates.value();
  const std::uint64_t engine_updates0 = engine_updates.value();

  // Subscription drains: one service.stream.update_us sample per
  // re-estimated subscription.
  const sim::CityFleetConfig city_cfg = small_city(0x57AEULL);
  sim::CityFleet city(city_cfg);
  MatcherService svc(small_service(city_cfg, 2));
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    ASSERT_TRUE(svc.register_vehicle(city.vehicle_id(v), city.position(v)));
  }
  ASSERT_TRUE(svc.subscribe(city.vehicle_id(0), city.vehicle_id(1)).accepted());
  ASSERT_TRUE(svc.subscribe(city.vehicle_id(2), city.vehicle_id(3)).accepted());
  for (std::size_t round = 0; round < 3; ++round) {
    city.advance_round();
    svc.begin_round();
    for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
      for (const sim::CityFleet::Sample& s : city.samples(v)) {
        ASSERT_TRUE(
            svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power));
      }
    }
    svc.drain();
    svc.drain_stream();
  }

  // One whole StreamingEngine update: one stream.update_us sample.
  stream::StreamConfig scfg;
  scfg.fleet.rups = small_service(city_cfg, 1).fleet.rups;
  stream::StreamingEngine engine(scfg);
  engine.add_neighbour(city.vehicle_id(1));
  core::ContextTrajectory ego(city_cfg.channels, city_cfg.context_capacity_m);
  core::ContextTrajectory nb(city_cfg.channels, city_cfg.context_capacity_m);
  for (const sim::CityFleet::Sample& s : city.samples(0)) {
    ego.append(s.geo, s.power);
  }
  for (const sim::CityFleet::Sample& s : city.samples(1)) {
    nb.append(s.geo, s.power);
  }
  const std::array<const core::ContextTrajectory*, 1> senders{&nb};
  engine.update(ego, senders);

  const std::uint64_t service_events =
      service_updates.value() - service_updates0;
  EXPECT_GT(service_events, 0u);
  EXPECT_EQ(service_us.count() - service_us0, service_events);
  EXPECT_EQ(engine_updates.value() - engine_updates0, 1u);
  EXPECT_EQ(engine_us.count() - engine_us0, 1u);
}

}  // namespace
}  // namespace rups::service
